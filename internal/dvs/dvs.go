// Package dvs implements the dynamic voltage/frequency-setting algorithms the
// paper builds on: the cycle-conserving (ccEDF) and look-ahead (laEDF)
// real-time DVS algorithms of Pillai and Shin, extended to periodic task
// graphs as described in Section 4.1 of the paper, plus a no-DVS baseline
// that always runs at the maximum frequency.
//
// A frequency-setting algorithm sees, at every scheduling decision point, a
// summary of all released-but-unfinished task-graph instances (InstanceView)
// and returns the reference frequency fref that guarantees every subsequent
// deadline. The scheduler in internal/core invokes it on every task-graph
// release and on every node completion, exactly as in the paper's Algorithm 1.
package dvs

import "sort"

// InstanceView is the scheduler's summary of one released, incomplete
// task-graph instance, in EDF order (earliest absolute deadline first).
type InstanceView struct {
	// GraphIndex identifies the task graph within the system.
	GraphIndex int
	// ReleaseTime is the absolute release time of this instance in seconds.
	ReleaseTime float64
	// AbsoluteDeadline is the absolute deadline (release + period) in seconds.
	AbsoluteDeadline float64
	// Period is the graph period (= relative deadline) in seconds.
	Period float64
	// TotalWCET is the static worst-case work of the whole graph in cycles.
	TotalWCET float64
	// AdjustedWCET is the paper's WC_i: the sum of the actual cycles of the
	// nodes of this instance that have already completed plus the worst-case
	// cycles of the nodes that have not, in cycles.
	AdjustedWCET float64
	// RemainingWorstCase is the worst-case work still to be executed for this
	// instance (unfinished nodes at their WCET, minus cycles already executed
	// of the in-progress node), in cycles. The scheduler maintains it only
	// when something reads it: an Algorithm that ReadsRemainingWork, or
	// BAS-2's feasibility check. Otherwise it is not maintained and reads 0.
	RemainingWorstCase float64
}

// Algorithm selects the reference frequency at a scheduling decision point.
type Algorithm interface {
	// Name returns a short identifier ("ccEDF", "laEDF", "noDVS").
	Name() string
	// SelectFrequency returns the reference frequency fref in Hz given the
	// current time, the maximum processor frequency and the views of all
	// released incomplete instances. The result is always in [0, fmax]; 0
	// means the processor may idle. Implementations must not retain or
	// modify the slice: the scheduler keeps the views across decisions and
	// edits them between calls, so an implementation that keeps a reference
	// to it is broken. For every algorithm but LAEDF, whose look-ahead
	// queries an LAEDFPlan instead, pUBS's look-ahead also changes one view
	// in place and restores it after each call.
	SelectFrequency(now, fmax float64, instances []InstanceView) float64
}

// ReadsRemainingWork reports whether a may read
// InstanceView.RemainingWorstCase. It is false for this package's NoDVS,
// Static and CCEDF, which never do, and true for LAEDF and for any Algorithm
// defined elsewhere, so the scheduler sums an instance's remaining work only
// where it can matter.
func ReadsRemainingWork(a Algorithm) bool {
	switch a.(type) {
	case NoDVS, Static, CCEDF:
		return false
	}
	return true
}

// sortEDF returns the instances sorted by absolute deadline (stable, earliest
// first) without modifying the input. The scheduler always passes views in
// EDF order already, in which case the input is returned as-is (read-only)
// and no copy is allocated — a stable sort of an already-sorted slice is the
// identity, so the result is unchanged.
func sortEDF(instances []InstanceView) []InstanceView {
	sorted := true
	for i := 1; i < len(instances); i++ {
		if instances[i].AbsoluteDeadline < instances[i-1].AbsoluteDeadline {
			sorted = false
			break
		}
	}
	if sorted {
		return instances
	}
	out := append([]InstanceView(nil), instances...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].AbsoluteDeadline < out[j].AbsoluteDeadline })
	return out
}

// clampFrequency limits f to [0, fmax].
func clampFrequency(f, fmax float64) float64 {
	if f < 0 {
		return 0
	}
	if f > fmax {
		return fmax
	}
	return f
}

// NoDVS is the baseline that never scales: the processor always runs at fmax
// while there is pending work (the "EDF, no DVS" row of the paper's Table 2).
type NoDVS struct{}

// NewNoDVS returns the no-DVS baseline.
func NewNoDVS() NoDVS { return NoDVS{} }

// Name implements Algorithm.
func (NoDVS) Name() string { return "noDVS" }

// SelectFrequency implements Algorithm.
func (NoDVS) SelectFrequency(now, fmax float64, instances []InstanceView) float64 {
	if len(instances) == 0 {
		return 0
	}
	return fmax
}

// Static runs at a fixed utilisation-derived frequency: fref = U * fmax with
// U the static worst-case utilisation of the released instances' graphs. It
// corresponds to the classic "static voltage scaling" RT-DVS variant and is
// useful as an additional baseline in ablations.
type Static struct{}

// NewStatic returns the static-scaling baseline.
func NewStatic() Static { return Static{} }

// Name implements Algorithm.
func (Static) Name() string { return "staticEDF" }

// SelectFrequency implements Algorithm.
func (Static) SelectFrequency(now, fmax float64, instances []InstanceView) float64 {
	if len(instances) == 0 || fmax <= 0 {
		return 0
	}
	var u float64
	for _, in := range instances {
		if in.Period > 0 {
			u += in.TotalWCET / (fmax * in.Period)
		}
	}
	return clampFrequency(u*fmax, fmax)
}

// CCEDF is the cycle-conserving EDF DVS algorithm of Pillai and Shin,
// extended to task graphs (the paper's Algorithm 1): the utilisation is the
// sum over released graphs of WC_i/D_i where WC_i counts completed nodes at
// their actual cycles and pending nodes at their worst case; fref = U * fmax.
type CCEDF struct{}

// NewCCEDF returns the cycle-conserving EDF frequency setter.
func NewCCEDF() CCEDF { return CCEDF{} }

// Name implements Algorithm.
func (CCEDF) Name() string { return "ccEDF" }

// SelectFrequency implements Algorithm.
func (CCEDF) SelectFrequency(now, fmax float64, instances []InstanceView) float64 {
	if len(instances) == 0 || fmax <= 0 {
		return 0
	}
	var u float64
	for _, in := range instances {
		if in.Period > 0 {
			u += in.AdjustedWCET / (fmax * in.Period)
		}
	}
	return clampFrequency(u*fmax, fmax)
}

// LAEDF is the look-ahead EDF DVS algorithm of Pillai and Shin extended to
// task graphs: it estimates the minimum amount of work that must be completed
// before the earliest deadline so that all later deadlines can still be met
// at full speed, and runs just fast enough to finish that work in time. It is
// more aggressive than CCEDF (runs slower earlier) while still guaranteeing
// all deadlines.
type LAEDF struct{}

// NewLAEDF returns the look-ahead EDF frequency setter.
func NewLAEDF() LAEDF { return LAEDF{} }

// Name implements Algorithm.
func (LAEDF) Name() string { return "laEDF" }

// SelectFrequency implements Algorithm. It is one plan over the views,
// evaluated at now.
func (LAEDF) SelectFrequency(now, fmax float64, instances []InstanceView) float64 {
	var p LAEDFPlan
	p.Reset(fmax, sortEDF(instances))
	return p.Frequency(now)
}

// LAEDFPlan is laEDF's pass over one set of views in EDF order, kept so that
// the frequency of those views and the frequency after one view's remaining
// work changes share it. laEDF walks from the latest deadline down to the
// earliest, so the pass's state on reaching position k does not depend on
// the remaining work at k or before it: a query for position k redoes only
// positions k..0, with the same float operations as a full pass over an
// edited copy of the views, and so does Refresh, which keeps the plan up to
// date when the remaining work at k and before it changes. Neither the pass
// nor a query depends on the time, which enters only at the end: the check
// for an immediate earliest deadline and the final division. A zero
// LAEDFPlan is an empty plan; Reset reuses its storage.
type LAEDFPlan struct {
	fmax  float64
	dn    float64 // the earliest deadline
	total float64 // the pass's sum of work due before dn, in seconds at fmax
	steps []laedfStep
}

// laedfStep is one EDF position of the pass: its inputs, and the pass's
// utilisation u and sum s on reaching it from the latest deadline.
type laedfStep struct {
	share float64 // TotalWCET/(fmax·Period), or 0 for a view without a period
	slack float64 // AbsoluteDeadline − dn
	cLeft float64 // RemainingWorstCase/fmax
	u, s  float64
}

// advance runs the pass over the step's position with remaining work cLeft,
// from state (u, s), and returns the state after it.
func (st *laedfStep) advance(u, s, cLeft float64) (float64, float64) {
	// Subtracting a zero share leaves u as it is, bit for bit.
	u -= st.share
	var x float64
	if st.slack <= 0 {
		// The instance with the earliest deadline: all of its remaining work
		// must be done before dn.
		x = cLeft
	} else {
		x = cLeft - (1-u)*st.slack
		if x < 0 {
			x = 0
		}
		u += (cLeft - x) / st.slack
	}
	return u, s + x
}

// Reset computes the plan of views, which must be in EDF order (as
// SelectFrequency's views are after sorting). The plan copies what it needs,
// so views may change afterwards.
func (p *LAEDFPlan) Reset(fmax float64, views []InstanceView) {
	p.fmax = fmax
	p.steps = p.steps[:0]
	if len(views) == 0 || fmax <= 0 {
		return
	}
	p.dn = views[0].AbsoluteDeadline
	// Work in normalised "seconds at fmax" units.
	var u float64
	for _, in := range views {
		st := laedfStep{slack: in.AbsoluteDeadline - p.dn}
		if in.Period > 0 {
			st.share = in.TotalWCET / (fmax * in.Period)
			u += st.share
		}
		p.steps = append(p.steps, st)
	}
	// The pass reaches the latest deadline with every share and no work.
	top := len(p.steps) - 1
	p.steps[top].u = u
	p.Refresh(top, views)
}

// Refresh brings the plan up to date with views whose RemainingWorstCase
// changed at position k or before it since the plan was computed: it
// re-reads the remaining work of positions k..0 and reruns the pass over
// them from the state stored at k, which such a change leaves as it was.
// The result is bit for bit that of Reset over views. Any other change to
// the views (a view added, removed or moved, or a deadline, period or
// worst-case total changed) needs Reset. A k past the last view refreshes
// every position, and a negative k none.
func (p *LAEDFPlan) Refresh(k int, views []InstanceView) {
	k = min(k, len(p.steps)-1)
	if k < 0 {
		return
	}
	u, s := p.steps[k].u, p.steps[k].s
	// Latest deadline first.
	for i := k; i >= 0; i-- {
		st := &p.steps[i]
		st.cLeft = views[i].RemainingWorstCase / p.fmax
		st.u, st.s = u, s
		u, s = st.advance(u, s, st.cLeft)
	}
	p.total = s
}

// Frequency returns the frequency laEDF selects at now for the plan's views.
func (p *LAEDFPlan) Frequency(now float64) float64 { return p.frequency(now, p.total) }

// FrequencyAfter returns the frequency laEDF selects at now for the plan's
// views with view k's RemainingWorstCase replaced by remaining. A k outside
// the views selects Frequency(now).
func (p *LAEDFPlan) FrequencyAfter(now float64, k int, remaining float64) float64 {
	if k < 0 || k >= len(p.steps) || p.dn <= now {
		return p.Frequency(now)
	}
	st := &p.steps[k]
	u, s := st.advance(st.u, st.s, remaining/p.fmax)
	for i := k - 1; i >= 0; i-- {
		st := &p.steps[i]
		u, s = st.advance(u, s, st.cLeft)
	}
	return p.frequency(now, s)
}

// frequency runs just fast enough to finish s seconds of work at fmax by the
// earliest deadline: 0 without work, and fmax when that deadline is
// (numerically) immediate.
func (p *LAEDFPlan) frequency(now, s float64) float64 {
	if len(p.steps) == 0 {
		return 0
	}
	if p.dn <= now {
		return p.fmax
	}
	return clampFrequency(s/(p.dn-now)*p.fmax, p.fmax)
}
