package stochastic

import (
	"math"
	"math/rand"
	"testing"

	"battsched/internal/battery"
	"battsched/internal/profile"
)

// refSeg is one segment of the reference repetition operator: the
// per-repetition form the closed-form runs replaced, with the whole-step run
// and the fractional tail of a segment in one record.
type refSeg struct {
	demand, recFactor, decay          float64
	tail, tailDem, tailRec, tailDecay float64
}

// refOp is the reference operator: its segments plus the conservative
// survival bounds canAdvance reads, accumulated per segment.
type refOp struct {
	segs                                              []refSeg
	totalDemand, maxStepDem, recPerProb, stepRecCoeff float64
}

func newRefOp(b *Battery, p *profile.Profile) refOp {
	h := b.estep
	lambda := b.params.RecoveryDecay / b.params.MaxCoulombs
	op := refOp{stepRecCoeff: b.params.MaxCurrent * h}
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
		rs := refSeg{
			demand:    float64(slots) * cur * h,
			recFactor: battery.GeomSum(idle*b.params.MaxCurrent*h, x, float64(slots)),
			decay:     math.Exp(-x * float64(slots)),
			tail:      tail,
			tailDem:   cur * tail,
			tailRec:   idle * b.params.MaxCurrent * tail,
			tailDecay: math.Exp(-lambda * cur * tail),
		}
		op.segs = append(op.segs, rs)
		op.totalDemand += rs.demand + rs.tailDem
		if d := cur * h; d > op.maxStepDem {
			op.maxStepDem = d
		}
		op.recPerProb += idle * b.params.MaxCurrent * sg.Duration
	}
	return op
}

// canAdvance is the reference survival check of one repetition from b's
// state: the inequalities the closed form evaluates at the start of every
// repetition of a run.
func (op refOp) canAdvance(b *Battery) bool {
	if !b.alive {
		return false
	}
	if b.available-op.totalDemand <= op.maxStepDem+prefixSlack {
		return false
	}
	p0 := b.recoveryProbability()
	return b.bound > p0*(op.recPerProb+op.stepRecCoeff)+prefixSlack
}

// advance applies one repetition segment by segment, reading and writing
// the state through b on every update.
func (op refOp) advance(b *Battery) {
	p := b.recoveryProbability()
	for i := range op.segs {
		sg := &op.segs[i]
		rec := p * sg.recFactor
		b.available += rec - sg.demand
		b.bound -= rec
		b.delivered += sg.demand
		p *= sg.decay
		if sg.tail > 0 {
			rec = p * sg.tailRec
			b.available += rec - sg.tailDem
			b.bound -= rec
			b.delivered += sg.tailDem
			p *= sg.tailDecay
		}
	}
}

// mixedProfile draws n segments covering every shape the operator tells
// apart relative to the step h: schedule-shaped 1–50 ms segments, other
// sub-step segments, whole steps with a tail, exact multiples of the step,
// and multi-second whole seconds; at zero current, below MaxCurrent and
// above it. Segments are set directly, so equal neighbours stay separate.
func mixedProfile(rng *rand.Rand, h, maxCurrent float64, n int) *profile.Profile {
	p := profile.New()
	for i := 0; i < n; i++ {
		var dur float64
		switch rng.Intn(5) {
		case 0:
			dur = 0.001 + 0.049*rng.Float64()
		case 1:
			dur = h * (0.001 + 0.998*rng.Float64())
		case 2:
			dur = h * (1 + 20*rng.Float64())
		case 3:
			dur = h * float64(1+rng.Intn(20))
		case 4:
			dur = float64(2 + rng.Intn(10))
		}
		var cur float64
		switch rng.Intn(4) {
		case 0:
			cur = 0
		case 1:
			cur = maxCurrent * (1 + rng.Float64())
		default:
			cur = maxCurrent * rng.Float64()
		}
		p.Segments = append(p.Segments, profile.Segment{Duration: dur, Current: cur})
	}
	return p
}

// scheduleProfile draws n segments shaped like a recorded Table 2 load:
// 1–50 ms each, at a handful of current levels.
func scheduleProfile(rng *rand.Rand, n int) *profile.Profile {
	levels := []float64{0, 0.02, 0.25, 0.5, 0.9, 1.4}
	p := profile.New()
	for i := 0; i < n; i++ {
		p.Segments = append(p.Segments, profile.Segment{Duration: 0.001 + 0.049*rng.Float64(), Current: levels[rng.Intn(len(levels))]})
	}
	return p
}

// TestRepetitionOperatorMatchesReference pins the closed-form runs against
// the per-repetition operator they replaced, at a tolerance: closed-form
// geometric sums cannot match per-repetition float association bit for bit.
// From fresh, mid-life, near-death, empty-bound and low-bound states, on schedule-shaped
// and random profiles at the default and the slot-exact step, one Advance
// call applies k repetitions where the reference's run of consecutive
// canAdvance successes has length r: k must be within 1 of r, the state
// within 1e-9 of the capacity of k reference advances (a near-empty store
// carries the reference's own accumulated rounding, so the scale is the
// capacity, not the value), and a clone segment-stepped
// through the same k repetitions must never die.
func TestRepetitionOperatorMatchesReference(t *testing.T) {
	def := Default().Params()
	const maxRun = 20000
	for _, step := range []float64{1, SlotDuration} {
		ps := def
		ps.ExpectedStep = step
		for seed := int64(1); seed <= 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			prof := mixedProfile(rng, step, ps.MaxCurrent, 1+rng.Intn(40))
			if seed%2 == 0 {
				prof = scheduleProfile(rng, 20+rng.Intn(150))
			}
			b, err := New(ps)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefOp(b, prof)
			// The reference's run from full charge places the mid-life and
			// near-death states.
			life := *b
			run := 0
			for run < maxRun && ref.canAdvance(&life) {
				ref.advance(&life)
				run++
			}
			starts := map[string]Battery{"fresh": *b}
			for name, reps := range map[string]int{"mid-life": run / 2, "near-death": max(run-2, 0)} {
				st := *b
				for i := 0; i < reps; i++ {
					ref.advance(&st)
				}
				starts[name] = st
			}
			empty := starts["mid-life"]
			empty.bound = 0
			starts["empty-bound"] = empty
			// A bound store worth a few thousand of the largest recovery
			// draws runs out before the available store, so the bound
			// check, not the available one, ends the run.
			low := *b
			low.bound = 3000 * low.recoveryProbability() * (ref.recPerProb + ref.stepRecCoeff)
			starts["low-bound"] = low
			for name, st := range starts {
				want := st
				r := 0
				for r < maxRun && ref.canAdvance(&want) {
					ref.advance(&want)
					r++
				}
				fast := st
				k := fast.RepetitionOperator(prof).Advance(maxRun)
				if k < r-1 || k > r+1 {
					t.Fatalf("step %v seed %d %s: Advance applied %d repetitions, reference run %d", step, seed, name, k, r)
				}
				want = st
				for i := 0; i < k; i++ {
					ref.advance(&want)
				}
				for _, c := range []struct {
					what      string
					got, want float64
				}{
					{"available", fast.available, want.available},
					{"bound", fast.bound, want.bound},
					{"delivered", fast.delivered, want.delivered},
				} {
					if d := math.Abs(c.got - c.want); d > 1e-9*ps.MaxCoulombs {
						t.Fatalf("step %v seed %d %s: %s after %d repetitions = %v, reference %v (diff %.3g C)",
							step, seed, name, c.what, k, c.got, c.want, d)
					}
				}
				seg := st
				for i := 0; i < k; i++ {
					for _, sg := range prof.Segments {
						if _, alive := seg.DrainSegment(sg.Current, sg.Duration); !alive {
							t.Fatalf("step %v seed %d %s: segment stepping died in repetition %d of %d admitted", step, seed, name, i, k)
						}
					}
				}
			}
		}
	}
}
