package priority

import (
	"math"
	"math/bits"
)

// Estimator predicts the actual execution requirement X_k of a node instance
// before it runs. The paper notes that the quality of the pUBS schedule
// depends directly on the quality of this estimate and suggests keeping a
// history of previous instances — which is what HistoryEstimator does.
//
// Estimate must depend only on its arguments and on the observations made
// through Observe. The scheduler relies on this: it caches each node
// instance's estimate and asks again only after it observes the same
// (graphIndex, nodeID), so an estimator that also learns from elsewhere (a
// clock, or an Observe from another simulation sharing it) would rank nodes
// by stale estimates. The scheduler neither asks nor feeds an estimator
// whose estimates nothing reads: with a priority function that does not
// ReadsEstimate, or with oracle estimates.
type Estimator interface {
	// Estimate returns the predicted actual cycles for the node identified by
	// (graphIndex, nodeID) whose worst case is wcet cycles. The result is in
	// (0, wcet].
	Estimate(graphIndex, nodeID int, wcet float64) float64
	// Observe records the actual cycles consumed by a completed instance.
	Observe(graphIndex, nodeID int, wcet, actual float64)
}

// DefaultInitialFraction is the fraction of the WCET assumed for a node that
// has never been observed. The paper draws actual requirements uniformly in
// [20 %, 100 %] of the WCET, whose mean is 60 %.
const DefaultInitialFraction = 0.6

// HistoryEstimator keeps an exponentially weighted moving average of the
// actual/WCET ratio of each node across instances. It is not safe for
// concurrent use: give each scheduling engine its own.
//
// The history is dense: one row of ratios per graph, indexed by node, so its
// memory grows with the largest |id| observed. Ids are meant to be small
// indices, as the scheduler's graph and node indices are; negative ids are
// kept too.
type HistoryEstimator struct {
	// Alpha is the EWMA smoothing factor in (0, 1]; larger values weigh the
	// most recent instance more heavily.
	Alpha float64
	// InitialFraction is the assumed actual/WCET ratio before any
	// observation.
	InitialFraction float64

	// rows[slot(graphIndex)][slot(nodeID)] is a node's ratio. +0 marks a
	// node never observed: an observed ratio is positive, and one that
	// underflows to zero is stored as −0 (see Observe).
	rows [][]float64
}

// Capacity floors of the history rows, in slots (two per non-negative id,
// see slot): room for 8 graphs of 16 nodes before a row or the row table
// grows, so a fresh estimator allocates one row per graph plus the table.
const (
	minGraphSlots = 16
	minNodeSlots  = 32
)

// NewHistoryEstimator returns a history estimator with the given smoothing
// factor (clamped to (0,1]; 0 selects 0.5) and the default initial fraction.
func NewHistoryEstimator(alpha float64) *HistoryEstimator {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.5
	}
	return &HistoryEstimator{Alpha: alpha, InitialFraction: DefaultInitialFraction}
}

// slot maps an id onto a dense index, interleaving negative ids with the
// others (0, −1, 1, −2, 2, … → 0, 1, 2, 3, 4, …).
func slot(id int) uint { return uint(id<<1) ^ uint(id>>(bits.UintSize-1)) }

// grown returns s extended to hold index i, at least doubled and at least
// floor long; the new tail is zero.
func grown[T any](s []T, i uint, floor int) []T {
	if i < uint(len(s)) {
		return s
	}
	t := make([]T, max(int(i)+1, 2*len(s), floor))
	copy(t, s)
	return t
}

// Estimate implements Estimator.
func (h *HistoryEstimator) Estimate(graphIndex, nodeID int, wcet float64) float64 {
	if wcet <= 0 {
		return 0
	}
	var frac float64
	g, n := slot(graphIndex), slot(nodeID)
	if g < uint(len(h.rows)) && n < uint(len(h.rows[g])) {
		frac = h.rows[g][n]
	}
	if math.Float64bits(frac) == 0 {
		frac = h.InitialFraction
		if frac <= 0 || frac > 1 {
			frac = DefaultInitialFraction
		}
	}
	est := frac * wcet
	if est <= 0 {
		est = 1e-9 * wcet
	}
	if est > wcet {
		est = wcet
	}
	return est
}

// Observe implements Estimator.
func (h *HistoryEstimator) Observe(graphIndex, nodeID int, wcet, actual float64) {
	if wcet <= 0 || actual <= 0 {
		return
	}
	frac := actual / wcet
	if frac > 1 {
		frac = 1
	}
	g, n := slot(graphIndex), slot(nodeID)
	h.rows = grown(h.rows, g, minGraphSlots)
	row := grown(h.rows[g], n, minNodeSlots)
	h.rows[g] = row
	if prev := row[n]; math.Float64bits(prev) != 0 {
		frac = (1-h.Alpha)*prev + h.Alpha*frac
	}
	if frac == 0 {
		// A ratio that underflowed to zero still counts as observed; −0
		// estimates exactly as +0 does.
		frac = math.Copysign(0, -1)
	}
	row[n] = frac
}

// Reset forgets all recorded history while keeping the rows' storage, so a
// reused estimator starts the next simulation from InitialFraction without
// reallocating.
func (h *HistoryEstimator) Reset() {
	for _, row := range h.rows {
		clear(row)
	}
}

// OracleEstimator returns a fixed fraction of the WCET and ignores
// observations. With Fraction = 1 it reproduces worst-case-pessimistic
// estimates; experiments that want a perfect oracle can instead bypass the
// estimator and pass the true actual cycles directly.
type OracleEstimator struct {
	// Fraction is the assumed actual/WCET ratio in (0, 1].
	Fraction float64
}

// Estimate implements Estimator.
func (o OracleEstimator) Estimate(graphIndex, nodeID int, wcet float64) float64 {
	f := o.Fraction
	if f <= 0 || f > 1 {
		f = 1
	}
	return f * wcet
}

// Observe implements Estimator. It is a no-op.
func (o OracleEstimator) Observe(graphIndex, nodeID int, wcet, actual float64) {}

// compile-time interface checks
var (
	_ Estimator = (*HistoryEstimator)(nil)
	_ Estimator = OracleEstimator{}
)
