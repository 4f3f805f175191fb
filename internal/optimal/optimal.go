// Package optimal provides the single-task-graph scheduling machinery behind
// the paper's Table 1: given one DAG of tasks sharing a deadline and the
// greedy speed-rescaling execution model of Gruian's UBS (before every task
// the speed is set to remaining-worst-case-work / time-to-deadline), it can
//
//   - evaluate the energy of any given execution order (EvaluateOrder),
//   - build an order greedily with any priority function (GreedyOrder), and
//   - find the energy-optimal order exactly, by a dynamic programme over the
//     DAG's order ideals (OptimalOrder), which is the baseline the paper
//     normalises Table 1 against.
//
// Energy uses the idealised convex power model P(f) ∝ f^PowerExponent (the
// default exponent 3 matches the paper's s³ battery-current scaling), so
// energies are reported in arbitrary units and are meaningful as ratios.
package optimal

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"battsched/internal/priority"
	"battsched/internal/taskgraph"
)

// Params configure the single-graph execution model.
type Params struct {
	// Deadline is the common absolute deadline of all tasks (seconds,
	// relative to a release at time zero).
	Deadline float64
	// FMax is the maximum processor frequency in Hz.
	FMax float64
	// PowerExponent is the exponent of the convex power model P ∝ f^k
	// (default 3).
	PowerExponent float64
	// Actuals are the actual execution requirements per node in cycles
	// (indexed by NodeID). Nil means every node takes its WCET.
	Actuals []float64
}

// Errors returned by the package.
var (
	ErrBadParams = errors.New("optimal: invalid parameters")
	ErrBadOrder  = errors.New("optimal: order is not a linear extension of the graph")
	ErrTooLarge  = errors.New("optimal: graph too large for the exact programme")
)

// Evaluation is the outcome of executing one order.
type Evaluation struct {
	// Order is the executed order of node IDs.
	Order []taskgraph.NodeID
	// Energy is the consumed energy in arbitrary (consistent) units.
	Energy float64
	// Makespan is the completion time of the last task in seconds.
	Makespan float64
	// Feasible reports whether the order finished by the deadline.
	Feasible bool
}

func (p Params) withDefaults() Params {
	if p.PowerExponent <= 0 {
		p.PowerExponent = 3
	}
	return p
}

// validate rejects what no order can be evaluated on: an empty or cyclic
// graph, an edge naming an unknown node, a WCET that is not positive and
// finite, a Deadline or FMax that is not positive and finite, a non-finite
// PowerExponent, or a non-finite actual. The graph's period is never read.
func (p Params) validate(g *taskgraph.Graph) error {
	if g == nil || g.NumNodes() == 0 {
		return fmt.Errorf("%w: empty graph", ErrBadParams)
	}
	if !(p.Deadline > 0 && finite(p.Deadline) && p.FMax > 0 && finite(p.FMax)) || !finite(p.PowerExponent) {
		return fmt.Errorf("%w: deadline=%v fmax=%v exponent=%v", ErrBadParams, p.Deadline, p.FMax, p.PowerExponent)
	}
	for _, n := range g.Nodes {
		if !(n.WCET > 0 && finite(n.WCET)) {
			return fmt.Errorf("%w: node %d has WCET %v", ErrBadParams, n.ID, n.WCET)
		}
	}
	for _, e := range g.Edges {
		if min(e.From, e.To) < 0 || int(max(e.From, e.To)) >= g.NumNodes() {
			return fmt.Errorf("%w: edge %v names an unknown node", ErrBadParams, e)
		}
	}
	if _, err := g.TopologicalOrder(); err != nil {
		return fmt.Errorf("%w: %w", ErrBadParams, err)
	}
	if p.Actuals != nil && len(p.Actuals) != g.NumNodes() {
		return fmt.Errorf("%w: %d actuals for %d nodes", ErrBadParams, len(p.Actuals), g.NumNodes())
	}
	for i, a := range p.Actuals {
		if !finite(a) {
			return fmt.Errorf("%w: node %d has actual %v", ErrBadParams, i, a)
		}
	}
	return nil
}

// finite reports whether x is neither infinite nor NaN.
func finite(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) }

// actual returns the actual cycles of node id under p.
func (p Params) actual(g *taskgraph.Graph, id taskgraph.NodeID) float64 {
	if p.Actuals == nil {
		return g.Nodes[id].WCET
	}
	a := p.Actuals[id]
	if a <= 0 {
		return g.Nodes[id].WCET
	}
	if a > g.Nodes[id].WCET {
		return g.Nodes[id].WCET
	}
	return a
}

// clampSpeed limits s to [0, FMax].
func (p Params) clampSpeed(s float64) float64 {
	if s > p.FMax {
		return p.FMax
	}
	if s < 0 {
		return 0
	}
	return s
}

// stepEnergy returns the energy of executing `cycles` at speed s under the
// convex power model.
func (p Params) stepEnergy(s, cycles float64) float64 {
	if s <= 0 {
		return 0
	}
	return math.Pow(s/p.FMax, p.PowerExponent-1) * cycles
}

// EvaluateOrder simulates the execution of the graph in the given order under
// the greedy speed-rescaling model and returns its energy and makespan. The
// order must be a linear extension of the graph.
func EvaluateOrder(g *taskgraph.Graph, order []taskgraph.NodeID, params Params) (Evaluation, error) {
	params = params.withDefaults()
	if err := params.validate(g); err != nil {
		return Evaluation{}, err
	}
	if !g.IsLinearExtension(order) {
		return Evaluation{}, ErrBadOrder
	}
	remWC := g.TotalWCET()
	t := 0.0
	energy := 0.0
	for _, id := range order {
		s := params.clampSpeed(remWC / math.Max(params.Deadline-t, 1e-12))
		if s <= 0 {
			s = params.FMax
		}
		ac := params.actual(g, id)
		t += ac / s
		energy += params.stepEnergy(s, ac)
		remWC -= g.Nodes[id].WCET
		if remWC < 0 {
			remWC = 0
		}
	}
	return Evaluation{
		Order:    append([]taskgraph.NodeID(nil), order...),
		Energy:   energy,
		Makespan: t,
		Feasible: t <= params.Deadline+1e-9,
	}, nil
}

// GreedyOrder builds an execution order by repeatedly applying the priority
// function to the set of ready (precedence-satisfied) tasks, exactly as the
// paper's methodology does within a single task graph, and evaluates it.
//
// estimates supplies the X_k values handed to the priority function (indexed
// by NodeID); nil uses the actual requirements (a perfect estimator). rng is
// only needed for the Random priority function.
func GreedyOrder(g *taskgraph.Graph, prio priority.Function, params Params, estimates []float64, rng *rand.Rand) (Evaluation, error) {
	params = params.withDefaults()
	if err := params.validate(g); err != nil {
		return Evaluation{}, err
	}
	if prio == nil {
		prio = priority.NewFIFO()
	}
	if estimates != nil && len(estimates) != g.NumNodes() {
		return Evaluation{}, fmt.Errorf("%w: %d estimates for %d nodes", ErrBadParams, len(estimates), g.NumNodes())
	}
	n := g.NumNodes()
	predsLeft := make([]int, n)
	for i := 0; i < n; i++ {
		predsLeft[i] = len(g.Predecessors(taskgraph.NodeID(i)))
	}
	done := make([]bool, n)
	order := make([]taskgraph.NodeID, 0, n)
	remWC := g.TotalWCET()
	t := 0.0

	estimate := func(id taskgraph.NodeID) float64 {
		if estimates != nil && estimates[id] > 0 {
			return math.Min(estimates[id], g.Nodes[id].WCET)
		}
		return params.actual(g, id)
	}

	for len(order) < n {
		so := params.clampSpeed(remWC / math.Max(params.Deadline-t, 1e-12))
		if so <= 0 {
			so = params.FMax
		}
		ctx := &priority.Context{
			Now:              t,
			CurrentFrequency: so,
			FMax:             params.FMax,
			Rand:             rng,
			FrequencyAfter: func(c priority.Candidate, assumedCycles float64) float64 {
				remAfter := remWC - c.RemainingWCET
				if remAfter < 0 {
					remAfter = 0
				}
				tAfter := t + assumedCycles/so
				return params.clampSpeed(remAfter / math.Max(params.Deadline-tAfter, 1e-12))
			},
		}
		bestIdx := -1
		var bestVal float64
		for i := 0; i < n; i++ {
			if done[i] || predsLeft[i] > 0 {
				continue
			}
			id := taskgraph.NodeID(i)
			c := priority.Candidate{
				GraphIndex:       0,
				Node:             i,
				RemainingWCET:    g.Nodes[i].WCET,
				EstimatedActual:  estimate(id),
				AbsoluteDeadline: params.Deadline,
				EDFPosition:      0,
			}
			if v := prio.Priority(c, ctx); bestIdx < 0 || v < bestVal {
				bestVal = v
				bestIdx = i
			}
		}
		id := taskgraph.NodeID(bestIdx)
		ac := params.actual(g, id)
		t += ac / so
		remWC -= g.Nodes[id].WCET
		if remWC < 0 {
			remWC = 0
		}
		done[bestIdx] = true
		for _, s := range g.Successors(id) {
			predsLeft[s]--
		}
		order = append(order, id)
	}
	return EvaluateOrder(g, order, params)
}

// maxIdeals bounds OptimalOrder's states, the graph's order ideals, which it
// holds in memory at once: n independent tasks have 2^n, so without a bound
// 30 of them would ask for 2^30 states. Table 1's largest DAG has 2,040.
const maxIdeals = 1 << 20

// OptimalOrder returns the energy-minimal linear extension of the graph under
// the greedy speed-rescaling model, evaluated by EvaluateOrder.
//
// A task of actual work a, started with worst-case work R left and time τ to
// the deadline, leaves τ·(R−a)/R, so every later time-left is proportional to
// the current one. With P ∝ f^k the cheapest completion after a set S of
// finished tasks then costs C(S)/τ^(k−1), and C solves a dynamic programme
// over the order ideals (sets of finished tasks closed under precedence):
// C(all) = 0 and C(S) = min over ready i of a_i·(R_S/f_max)^(k−1) +
// C(S∪{i})·(R_S/(R_S−a_i))^(k−1), the second term 0 when S∪{i} is all. Ties
// go to the lowest node ID.
//
// This is exact while no speed clamps at FMax. UBS speeds never rise, so a
// worst-case load TotalWCET/(FMax·Deadline) of at most 1 suffices; above it,
// beyond 1e-12 of rounding, OptimalOrder returns ErrBadParams. A graph of
// more than 64 nodes or maxIdeals order ideals returns ErrTooLarge.
func OptimalOrder(g *taskgraph.Graph, params Params) (Evaluation, error) {
	params = params.withDefaults()
	if err := params.validate(g); err != nil {
		return Evaluation{}, err
	}
	n := g.NumNodes()
	if n > 64 {
		return Evaluation{}, fmt.Errorf("%w: %d nodes, at most 64", ErrTooLarge, n)
	}
	if load := g.TotalWCET() / (params.FMax * params.Deadline); load > 1+1e-12 {
		return Evaluation{}, fmt.Errorf("%w: worst-case load %v exceeds 1", ErrBadParams, load)
	}
	all, exp := ^uint64(0)>>(64-n), params.PowerExponent-1
	preds := make([]uint64, n) // preds[i] is the bit set of node i's predecessors
	for i := range n {
		for _, pr := range g.Predecessors(taskgraph.NodeID(i)) {
			preds[i] |= 1 << pr
		}
	}
	cost := make(map[uint64]float64) // C(S) by the bit set S, short of all
	ideals := 2                      // the empty set and all

	// best returns C(s) and the ready node attaining it; ok is false once
	// the programme needs more than maxIdeals states.
	var best func(s uint64) (c float64, next int, ok bool)
	best = func(s uint64) (c float64, next int, ok bool) {
		var r float64
		for rest := all &^ s; rest != 0; rest &= rest - 1 {
			r += g.Nodes[bits.TrailingZeros64(rest)].WCET
		}
		now := math.Pow(r/params.FMax, exp)
		next = -1
		for rest := all &^ s; rest != 0; rest &= rest - 1 {
			i := bits.TrailingZeros64(rest)
			if preds[i]&^s != 0 {
				continue
			}
			a := params.actual(g, taskgraph.NodeID(i))
			v := a * now
			if after := s | 1<<i; after != all {
				ca, seen := cost[after]
				if !seen {
					if ideals++; ideals > maxIdeals {
						return 0, 0, false
					}
					if ca, _, ok = best(after); !ok {
						return 0, 0, false
					}
					cost[after] = ca
				}
				v += ca * math.Pow(r/(r-a), exp)
			}
			if next < 0 || v < c {
				c, next = v, i
			}
		}
		return c, next, true
	}

	order := make([]taskgraph.NodeID, 0, n)
	for s := uint64(0); s != all; {
		_, next, ok := best(s)
		if !ok {
			return Evaluation{}, fmt.Errorf("%w: more than %d order ideals", ErrTooLarge, maxIdeals)
		}
		order = append(order, taskgraph.NodeID(next))
		s |= 1 << next
	}
	return EvaluateOrder(g, order, params)
}

// RandomOrder builds a uniformly random linear extension (by repeatedly
// picking a random ready task) and evaluates it. It is the "Random" column of
// Table 1.
func RandomOrder(g *taskgraph.Graph, params Params, rng *rand.Rand) (Evaluation, error) {
	if rng == nil {
		return Evaluation{}, fmt.Errorf("%w: nil RNG", ErrBadParams)
	}
	return GreedyOrder(g, priority.NewRandom(), params, nil, rng)
}
