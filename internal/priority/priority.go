// Package priority implements the task-ordering heuristics the paper
// evaluates for choosing which ready node to execute next among nodes that
// share (or nearly share) a deadline: the near-optimal pUBS priority function
// of Gruian, the Largest-Task-First and Shortest-Task-First heuristics, a
// seeded Random order and a FIFO/EDF tie-breaking order.
//
// A priority function maps each ready Candidate to a priority value; the
// scheduler executes the candidate with the smallest value (subject to the
// feasibility check of the paper's Algorithm 2 when candidates from
// non-imminent task graphs are allowed).
package priority

import (
	"math"
	"math/rand"
)

// Candidate describes one ready node offered to the priority function.
type Candidate struct {
	// GraphIndex identifies the task graph within the system.
	GraphIndex int
	// Node is the node's ID within its graph.
	Node int
	// RemainingWCET is the worst-case cycles the node still needs (its full
	// WCET unless it was preempted part-way).
	RemainingWCET float64
	// EstimatedActual is the estimate X_k of the cycles the node will
	// actually require (from the history estimator, or the oracle). The
	// scheduler fills it only for a Function that ReadsEstimate; it is zero
	// otherwise.
	EstimatedActual float64
	// AbsoluteDeadline is the absolute deadline of the node's instance.
	AbsoluteDeadline float64
	// EDFPosition is the rank of the node's instance in EDF order among all
	// released instances (0 = most imminent deadline).
	EDFPosition int
}

// Context carries the scheduler state a priority function may consult.
type Context struct {
	// Now is the current simulation time in seconds.
	Now float64
	// CurrentFrequency is the reference frequency s_o currently selected by
	// the DVS algorithm, in Hz.
	CurrentFrequency float64
	// FMax is the maximum processor frequency in Hz.
	FMax float64
	// FrequencyAfter returns the reference frequency the DVS algorithm would
	// select immediately after the candidate completed having consumed
	// assumedCycles. It is used by pUBS to evaluate the slack-recovery
	// benefit s_{o,k} of running the candidate next. May be nil, in which
	// case pUBS sees no speed reduction for any candidate and gives each its
	// no-reduction value.
	FrequencyAfter func(c Candidate, assumedCycles float64) float64
	// Rand is the seeded random source used by the Random policy. May be nil
	// for deterministic policies.
	Rand *rand.Rand
}

// Function orders ready candidates; the scheduler picks the candidate with
// the smallest priority value (ties broken by EDF position, then node ID).
type Function interface {
	// Name returns a short identifier ("pUBS", "LTF", ...).
	Name() string
	// Priority returns the priority value of candidate c.
	Priority(c Candidate, ctx *Context) float64
}

// ReadsEstimate reports whether f may read Candidate.EstimatedActual. It is
// false for this package's Random, FIFO, LTF and STF, which never do, and
// true for PUBS and for any Function defined elsewhere, so the scheduler
// asks and feeds its Estimator only where an estimate can matter.
func ReadsEstimate(f Function) bool {
	switch f.(type) {
	case Random, FIFO, LTF, STF:
		return false
	}
	return true
}

// PUBS is Gruian's near-optimal priority function for tasks sharing a
// deadline:
//
//	p_UBS(o, tau_k) = X_k / (s_o^2 - s_{o,k}^2)
//
// where X_k is the estimated actual requirement of the candidate, s_o the
// current speed and s_{o,k} the speed after appending the candidate to the
// partial order. Candidates that promise the largest speed reduction per
// cycle of execution get the smallest values. Candidates that offer no speed
// reduction are pushed to the back (but remain schedulable).
type PUBS struct{}

// NewPUBS returns the pUBS priority function.
func NewPUBS() PUBS { return PUBS{} }

// Name implements Function.
func (PUBS) Name() string { return "pUBS" }

// Priority implements Function.
func (PUBS) Priority(c Candidate, ctx *Context) float64 {
	xk := c.EstimatedActual
	if xk <= 0 {
		xk = c.RemainingWCET
	}
	if xk <= 0 {
		return math.MaxFloat64
	}
	so := ctx.CurrentFrequency
	if so <= 0 {
		so = ctx.FMax
	}
	sok := so
	if ctx.FrequencyAfter != nil {
		sok = ctx.FrequencyAfter(c, xk)
	}
	// Normalise speeds so the value does not depend on the frequency unit.
	if ctx.FMax > 0 {
		so /= ctx.FMax
		sok /= ctx.FMax
	}
	den := so*so - sok*sok
	if den <= 1e-15 {
		// No expected speed reduction: de-prioritise. 1e30 + xk rounds to
		// exactly 1e30 for any xk below ~7e13 cycles (half an ulp of 1e30),
		// so such candidates tie and the scheduler orders them by EDF
		// position and then node ID, not by size.
		return 1e30 + xk
	}
	return xk / den
}

// LTF is the Largest-Task-First heuristic (used by the slack-reclamation
// scheme of Zhu, Melhem and Childers that the paper compares against in
// Table 1): candidates with the largest worst-case requirement run first.
type LTF struct{}

// NewLTF returns the Largest-Task-First heuristic.
func NewLTF() LTF { return LTF{} }

// Name implements Function.
func (LTF) Name() string { return "LTF" }

// Priority implements Function.
func (LTF) Priority(c Candidate, ctx *Context) float64 { return -c.RemainingWCET }

// STF is the Shortest-Task-First heuristic: candidates with the smallest
// worst-case requirement run first.
type STF struct{}

// NewSTF returns the Shortest-Task-First heuristic.
func NewSTF() STF { return STF{} }

// Name implements Function.
func (STF) Name() string { return "STF" }

// Priority implements Function.
func (STF) Priority(c Candidate, ctx *Context) float64 { return c.RemainingWCET }

// Random picks uniformly at random among the ready candidates (the "Random"
// ordering of the paper's Tables 1 and 2). It requires ctx.Rand; without it
// the order degenerates to FIFO.
type Random struct{}

// NewRandom returns the random ordering policy.
func NewRandom() Random { return Random{} }

// Name implements Function.
func (Random) Name() string { return "Random" }

// Priority implements Function.
func (Random) Priority(c Candidate, ctx *Context) float64 {
	if ctx.Rand == nil {
		return float64(c.EDFPosition)*1e6 + float64(c.Node)
	}
	return ctx.Rand.Float64()
}

// FIFO orders candidates by EDF position and then node ID; it reproduces the
// "canonical EDF ordering" traces of the paper's Figure 5.
type FIFO struct{}

// NewFIFO returns the FIFO/EDF tie-breaking order.
func NewFIFO() FIFO { return FIFO{} }

// Name implements Function.
func (FIFO) Name() string { return "FIFO" }

// Priority implements Function.
func (FIFO) Priority(c Candidate, ctx *Context) float64 {
	return float64(c.EDFPosition)*1e6 + float64(c.Node)
}
