package stochastic

import (
	"math"

	"battsched/internal/battery"
	"battsched/internal/profile"
)

// This file is the analytic fast path of the expected-value mode: the
// battery.SegmentDrainer / battery.RepetitionTransferer implementation.
//
// Within a constant-current segment evaluated at step h, the expected-value
// recursion of drainExpected is, per step m = 0, 1, ...:
//
//	rec_m   = min(p_m · idleFrac · Imax · h, bound_m)   p_m = P·e^(−λ·dod_m)
//	demand  = I·h
//	survive when demand ≤ available_m + rec_m
//
// The delivered charge — and hence the depth of discharge driving p_m —
// advances by exactly I·h per step no matter what recovery does, so away
// from the bound clamp the recovery sequence is geometric: rec_m = a·qᵐ with
// a = p₀·idleFrac·Imax·h and q = e^(−λ·I·h/Max). Partial sums telescope to
// S_k = a·(1−qᵏ)/(1−q), which updates the three state variables over any k
// steps in O(1). The steps where a branch decision is near — the recovery
// clamp engaging (the margin is monotone decreasing in m) or exhaustion (the
// survival margin is concave in m, so both admit endpoint checks with a
// binary search for the boundary) — are executed through drainExpected
// itself, so every branch is taken by the exact reference arithmetic and the
// fast path only bulk-applies step runs that provably stay on the plain
// surviving branch, with a small absolute slack guarding the closed-form
// versus iterated rounding difference.

// AnalyticOK implements battery.AnalyticGater: the closed-form segment fast
// path covers expected-value mode only. Monte Carlo trajectories are defined
// one RNG draw per slot and must keep the stepped path.
func (b *Battery) AnalyticOK() bool { return !b.params.MonteCarlo }

// prefixSlack is the margin, in coulombs, by which the closed-form branch
// conditions must hold for a step to be bulk-applied. It is several orders of
// magnitude above the closed-form-versus-iterated rounding difference and
// several below any physically meaningful charge, so knife-edge steps — and
// only those — fall through to the exact per-step arithmetic.
const prefixSlack = 1e-6

// expectedConsts returns the geometric-recovery constants of the current
// state for a constant current at step h: the first-step recovery a (zero
// when the bound store is empty — then the clamp pins recovery to exactly
// zero and the same formulas cover the pure-drain phase), the per-step decay
// exponent x (rec_m = a·e^(−x·m)), and the per-step demand d.
func (b *Battery) expectedConsts(current, h float64) (a, x, d float64) {
	demandFrac := math.Min(current/b.params.MaxCurrent, 1)
	idleFrac := 1 - demandFrac
	a = b.recoveryProbability() * idleFrac * b.params.MaxCurrent * h
	if b.bound <= 0 {
		a = 0
	}
	x = b.params.RecoveryDecay * current * h / b.params.MaxCoulombs
	d = current * h
	return a, x, d
}

// geomSum returns Σ_{m=0}^{k-1} a·e^(−x·m) via expm1, which keeps full
// precision when x is tiny (1−e^(−x) would cancel).
func geomSum(a, x, k float64) float64 {
	if x == 0 {
		return a * k
	}
	return a * math.Expm1(-x*k) / math.Expm1(-x)
}

// expectedPrefix returns how many of the next `remaining` whole steps can be
// bulk-applied from the given state: the largest k such that every step
// m < k stays on the plain surviving branch with prefixSlack to spare. The
// no-clamp margin bound − S_m − rec_m is monotone decreasing in m and the
// survival margin available + S_m − m·d + rec_m − d is concave with a
// non-negative value required at m = 0, so the admissible set is a prefix
// and a binary search finds its end.
func expectedPrefix(avail, bound, a, x, d float64, remaining int) int {
	ok := func(m int) bool {
		fm := float64(m)
		s := geomSum(a, x, fm)
		rec := a * math.Exp(-x*fm)
		if a > 0 && bound-s-rec <= prefixSlack {
			return false
		}
		return avail+s-fm*d+rec-d > prefixSlack
	}
	if !ok(0) {
		return 0
	}
	if ok(remaining - 1) {
		return remaining
	}
	lo, hi := 0, remaining-1
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if ok(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// applyExpectedSlots advances the state over k plain surviving steps in
// closed form (the caller guarantees, via expectedPrefix, that no branch
// decision occurs inside the run).
func (b *Battery) applyExpectedSlots(a, x, d float64, k int) {
	fk := float64(k)
	s := geomSum(a, x, fk)
	demand := d * fk
	b.available += s - demand
	b.bound -= s
	b.delivered += demand
}

// DrainSegment implements battery.SegmentDrainer. In expected-value mode it
// reproduces the step-h expected recursion (h = Params.ExpectedStep) over the
// whole constant-current segment: whole steps bulk-applied in closed form
// where provably branch-free, exact drainExpected steps at branch
// boundaries, and a final fractional step for the segment tail — the same
// step sequence the uniform-stepping driver at MaxStep = h generates. In
// Monte Carlo mode it delegates to the exact slot path (the analytic gate
// keeps the drivers off this method, but the delegation makes it correct
// regardless).
func (b *Battery) DrainSegment(current, dt float64) (sustained float64, alive bool) {
	if !b.alive {
		return 0, false
	}
	if dt <= 0 {
		return 0, true
	}
	if current < 0 {
		current = 0
	}
	if b.params.MonteCarlo {
		return b.drainMonteCarlo(current, dt)
	}
	h := b.estep
	slots := int(math.Floor(dt / h))
	tail := dt - float64(slots)*h
	if tail <= 1e-12 {
		tail = 0
	}
	done := 0.0
	for remaining := slots; remaining > 0; {
		a, x, d := b.expectedConsts(current, h)
		k := expectedPrefix(b.available, b.bound, a, x, d, remaining)
		if k < 1 {
			s, al := b.drainExpected(current, h)
			if !al {
				return done + s, false
			}
			done += h
			remaining--
			continue
		}
		b.applyExpectedSlots(a, x, d, k)
		done += float64(k) * h
		remaining -= k
	}
	if tail > 0 {
		s, al := b.drainExpected(current, tail)
		if !al {
			return done + s, false
		}
	}
	return dt, true
}

// ExhaustionTime implements battery.SegmentDrainer. Survival requires the
// cumulative demand to stay within the nominal store plus everything the
// bound store can ever release, so exhaustion under a positive constant
// current happens within MaxCoulombs/I plus one step; draining a scratch
// copy over that horizon pins the instant without touching the state. In
// Monte Carlo mode the exhaustion time is a random variable; this reports
// the expected-value mode estimate (the analytic driver never runs Monte
// Carlo instances, so nothing dispatches on it).
func (b *Battery) ExhaustionTime(current float64) float64 {
	if !b.alive {
		return 0
	}
	if current <= 0 {
		return math.Inf(1)
	}
	clone := *b
	clone.params.MonteCarlo = false
	horizon := b.params.MaxCoulombs/current + b.estep
	sustained, alive := clone.DrainSegment(current, horizon)
	if alive {
		return math.Inf(1)
	}
	return sustained
}

// repStep is one step of the repetition operator: the whole-step run or the
// fractional tail of one segment. The recovery constant is stored per unit of
// the repetition-start recovery probability, which is the only state
// dependence: within a repetition the depth of discharge advances
// deterministically, so every step's recovery sum is the start probability
// times a precomputed factor.
type repStep struct {
	demand float64 // slots·I·h for a whole-step run, I·tail for a tail
	rec    float64 // Σ recovery over the step, per unit start probability
	decay  float64 // e^(−λ·demand/Max): probability decay across the step
}

// repOp is the battery.RepetitionOperator of one profile for one instance:
// one recoveryProbability evaluation (a single exp) plus a handful of
// multiply-adds per step advance a whole repetition, replacing the per-step
// exp of the reference recursion. Steps exist only for non-empty segment
// parts, so a sub-step segment (every segment of a schedule-shaped profile
// at the default 1 s step) costs one step, its tail; the empty whole-step
// run it skips would apply recovery p·0, demand 0 and decay e⁰ = 1, an exact
// identity, so skipping it changes no bit of the state.
type repOp struct {
	b     *Battery
	steps []repStep
	// conservative-survival bounds over one repetition
	totalDemand  float64 // coulombs demanded by one full repetition
	maxStepDem   float64 // largest single-step demand
	recPerProb   float64 // recovery upper bound per unit probability: Imax·Σ idle_s·dur_s
	stepRecCoeff float64 // single-step recovery upper bound per unit probability: Imax·h
	// probability cache: CanAdvance evaluates the start probability (one
	// exp) and Advance reuses it when the state has not moved in between
	// (the driver's call pattern), halving the exps per repetition.
	cachedP         float64
	cachedDelivered float64
	cacheValid      bool
}

// RepetitionOperator implements battery.RepetitionTransferer.
func (b *Battery) RepetitionOperator(p *profile.Profile) battery.RepetitionOperator {
	h := b.estep
	lambda := b.params.RecoveryDecay / b.params.MaxCoulombs
	// at most two steps per segment: its whole-step run and its tail
	op := &repOp{b: b, steps: make([]repStep, 0, 2*len(p.Segments)), stepRecCoeff: b.params.MaxCurrent * h}
	for _, sg := range p.Segments {
		cur := sg.Current
		if cur < 0 {
			cur = 0
		}
		slots := int(math.Floor(sg.Duration / h))
		tail := sg.Duration - float64(slots)*h
		if tail <= 1e-12 {
			tail = 0
		}
		idle := 1 - math.Min(cur/b.params.MaxCurrent, 1)
		x := lambda * cur * h
		demand, tailDem := float64(slots)*cur*h, cur*tail
		if slots > 0 {
			rec := geomSum(idle*b.params.MaxCurrent*h, x, float64(slots))
			op.steps = append(op.steps, repStep{demand, rec, math.Exp(-x * float64(slots))})
		}
		if tail > 0 {
			op.steps = append(op.steps, repStep{tailDem, idle * b.params.MaxCurrent * tail, math.Exp(-lambda * cur * tail)})
		}
		op.totalDemand += demand + tailDem
		if d := cur * h; d > op.maxStepDem {
			op.maxStepDem = d
		}
		op.recPerProb += idle * b.params.MaxCurrent * sg.Duration
	}
	return op
}

// CanAdvance implements battery.RepetitionOperator. It is conservative in
// the required direction: recovery only ever adds charge, so the available
// store minus the repetition's whole demand lower-bounds every step's
// available charge, and the recovery probability only decays within a
// repetition, so the start probability times the cached idle time
// upper-bounds the repetition's recovery draw on the bound store. When
// either margin is thin the driver falls back to segment stepping and the
// exact arithmetic decides.
func (o *repOp) CanAdvance() bool {
	b := o.b
	if !b.alive || b.params.MonteCarlo {
		return false
	}
	if b.available-o.totalDemand <= o.maxStepDem+prefixSlack {
		return false
	}
	p0 := b.recoveryProbability()
	o.cachedP, o.cachedDelivered, o.cacheValid = p0, b.delivered, true
	return b.bound > p0*(o.recPerProb+o.stepRecCoeff)+prefixSlack
}

// Advance implements battery.RepetitionOperator: one full repetition on the
// plain surviving branch throughout (guaranteed by CanAdvance). The
// probability factor threads through the steps as a running product of
// cached decays, so the whole repetition costs one exp. The state lives in
// locals for the loop, so each step's updates chain through registers
// rather than through memory.
func (o *repOp) Advance() {
	b := o.b
	p := 0.0
	if o.cacheValid && o.cachedDelivered == b.delivered {
		p = o.cachedP
	} else {
		p = b.recoveryProbability()
	}
	o.cacheValid = false
	avail, bound, deliv := b.available, b.bound, b.delivered
	for _, st := range o.steps {
		rec := p * st.rec
		avail += rec - st.demand
		bound -= rec
		deliv += st.demand
		p *= st.decay
	}
	b.available, b.bound, b.delivered = avail, bound, deliv
}

// compile-time interface checks
var (
	_ battery.SegmentDrainer       = (*Battery)(nil)
	_ battery.RepetitionTransferer = (*Battery)(nil)
	_ battery.AnalyticGater        = (*Battery)(nil)
	_ battery.RepetitionOperator   = (*repOp)(nil)
)
