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

// expectedPrefix returns how many of the next `remaining` whole steps can be
// bulk-applied from the given state: the largest k such that every step
// m < k stays on the plain surviving branch with prefixSlack to spare. The
// no-clamp margin bound − S_m − rec_m is monotone decreasing in m and the
// survival margin available + S_m − m·d + rec_m − d is concave with a
// non-negative value required at m = 0, so the admissible set is a prefix
// and battery.SearchPrefix finds its end.
func expectedPrefix(avail, bound, a, x, d float64, remaining int) int {
	return battery.SearchPrefix(remaining, func(m int) bool {
		fm := float64(m)
		s := battery.GeomSum(a, x, fm)
		rec := a * math.Exp(-x*fm)
		if a > 0 && bound-s-rec <= prefixSlack {
			return false
		}
		return avail+s-fm*d+rec-d > prefixSlack
	})
}

// applyExpectedSlots advances the state over k plain surviving steps in
// closed form (the caller guarantees, via expectedPrefix, that no branch
// decision occurs inside the run).
func (b *Battery) applyExpectedSlots(a, x, d float64, k int) {
	fk := float64(k)
	s := battery.GeomSum(a, x, fk)
	demand := d * fk
	b.available += s - demand
	b.bound -= s
	b.delivered += demand
}

// DrainSegment implements battery.SegmentDrainer. It reproduces the step-h
// expected recursion (h = Params.ExpectedStep) over the whole
// constant-current segment: whole steps bulk-applied in closed form where
// provably branch-free, exact drainExpected steps at branch boundaries, and
// a final fractional step for the segment tail — the same step sequence the
// uniform-stepping driver at MaxStep = h generates.
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

// repOp is the battery.RepetitionOperator of one profile for one instance.
// Within a repetition the depth of discharge advances deterministically, so a
// repetition depends on the state only through its start recovery
// probability p: it moves p·R from the bound to the available store, with
// R = Σᵢ recᵢ·Πⱼ₍ⱼ<ᵢ₎ decayⱼ over its steps (each segment's whole-step run and
// fractional tail, as in DrainSegment), delivers D, and shrinks p by e^(−x),
// x = λ·D. (The expected recovery is the integrated intensity of a rate that
// decays exponentially in delivered charge.) So repetition j starts at
// p₀e^(−xj), and the first j repetitions recover a geometric sum.
type repOp struct {
	b *Battery
	// closed form of one repetition per unit start probability
	rec    float64 // R
	demand float64 // D, the coulombs one repetition demands
	x      float64 // λ·D, the probability decay exponent of one repetition
	// conservative-survival bounds over one repetition
	maxStepDem float64 // largest single-step demand
	recBound   float64 // recovery draw upper bound per unit probability: Imax·(Σ idle_s·dur_s + h)
}

// RepetitionOperator implements battery.RepetitionTransferer.
func (b *Battery) RepetitionOperator(p *profile.Profile) battery.RepetitionOperator {
	h := b.estep
	lambda := b.params.RecoveryDecay / b.params.MaxCoulombs
	op := &repOp{b: b, recBound: b.params.MaxCurrent * h}
	decay := 1.0 // probability decay of the steps so far
	step := func(rec, demand float64) {
		op.rec += decay * rec
		op.demand += demand
		decay *= math.Exp(-lambda * demand)
	}
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
		if slots > 0 {
			step(battery.GeomSum(idle*b.params.MaxCurrent*h, lambda*cur*h, float64(slots)), float64(slots)*cur*h)
		}
		if tail > 0 {
			step(idle*b.params.MaxCurrent*tail, cur*tail)
		}
		if d := cur * h; d > op.maxStepDem {
			op.maxStepDem = d
		}
		op.recBound += idle * b.params.MaxCurrent * sg.Duration
	}
	op.x = lambda * op.demand
	return op
}

// Advance implements battery.RepetitionOperator. Repetition j passes the
// check when, at its start, the available store minus the repetition's
// demand exceeds the largest step demand (recovery only adds charge) and the
// bound store exceeds the largest recovery draw the repetition could make
// (the probability only decays within it), each by prefixSlack; thin
// margins fall back to segment stepping. The available margin is concave in
// j (its increment p₀e^(−xj)·R − D falls with j); the bound margin changes
// by p₀e^(−xj)·(recBound·(1−e^(−x)) − R) per repetition, always with the
// same sign. So the admissible set, which must contain j = 0, is a prefix.
func (o *repOp) Advance(max int) int {
	b := o.b
	if !b.alive {
		return 0
	}
	p0 := b.recoveryProbability()
	a := p0 * o.rec // the first repetition's recovery
	k := battery.SearchPrefix(max, func(j int) bool {
		fj := float64(j)
		s := battery.GeomSum(a, o.x, fj)
		if b.available+s-fj*o.demand-o.demand <= o.maxStepDem+prefixSlack {
			return false
		}
		return b.bound-s > p0*math.Exp(-o.x*fj)*o.recBound+prefixSlack
	})
	if k > 0 {
		fk := float64(k)
		s := battery.GeomSum(a, o.x, fk)
		b.available += s - fk*o.demand
		b.bound -= s
		b.delivered += fk * o.demand
	}
	return k
}

// compile-time interface checks
var (
	_ battery.SegmentDrainer       = (*Battery)(nil)
	_ battery.RepetitionTransferer = (*Battery)(nil)
	_ battery.RepetitionOperator   = (*repOp)(nil)
)
