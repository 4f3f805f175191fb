package diffusion

import (
	"math"
	"math/rand"
	"testing"

	"battsched/internal/profile"
)

// refOp is the reference operator: one repetition as a per-term decay and
// offset, applied one repetition at a time behind the per-repetition
// headroom check.
type refOp struct {
	decay, offset    []float64
	charge, headroom float64
}

func newRefOp(b *Battery, p *profile.Profile) refOp {
	n := len(b.unavailable)
	op := refOp{decay: make([]float64, n), offset: make([]float64, n)}
	for m := range op.decay {
		op.decay[m] = 1
	}
	beta2 := b.params.BetaSquared
	for _, seg := range p.Segments {
		var osum float64
		for m := range op.decay {
			k := beta2 * float64(m+1) * float64(m+1)
			e := math.Exp(-k * seg.Duration)
			op.decay[m] *= e
			op.offset[m] = op.offset[m]*e + seg.Current*(1-e)/k
			osum += op.offset[m]
		}
		op.charge += seg.Current * seg.Duration
		if h := op.charge + 2*osum; h > op.headroom {
			op.headroom = h
		}
	}
	return op
}

// canAdvance is the reference survival check: sigma plus the headroom must
// stay below alpha.
func (o refOp) canAdvance(b *Battery) bool {
	return b.alive && b.Sigma()+o.headroom < b.params.AlphaCoulombs
}

// advance applies one repetition.
func (o refOp) advance(b *Battery) {
	for m := range b.unavailable {
		b.unavailable[m] = b.unavailable[m]*o.decay[m] + o.offset[m]
	}
	b.delivered += o.charge
}

// clone returns an independent copy of b's state.
func clone(b *Battery) *Battery {
	c := *b
	c.unavailable = append([]float64(nil), b.unavailable...)
	c.decayBuf = nil
	return &c
}

// testProfile draws n segments: 1–50 ms at a handful of current levels when
// schedule is set (the shape of a recorded Table 2 load), otherwise 1 ms to
// 30 s at currents up to 3 A.
func testProfile(rng *rand.Rand, n int, schedule bool) *profile.Profile {
	levels := []float64{0, 0.02, 0.25, 0.5, 0.9, 1.4}
	p := profile.New()
	for i := 0; i < n; i++ {
		seg := profile.Segment{Duration: 0.001 + 30*rng.Float64()*rng.Float64(), Current: 3 * rng.Float64()}
		if schedule {
			seg = profile.Segment{Duration: 0.001 + 0.049*rng.Float64(), Current: levels[rng.Intn(len(levels))]}
		}
		p.Segments = append(p.Segments, seg)
	}
	return p
}

// TestRepetitionOperatorMatchesReference pins the closed-form runs against
// the per-repetition operator they replaced, at a tolerance: the closed form
// cannot match per-repetition float association bit for bit. From fresh,
// mid-life and near-death states, on schedule-shaped and random profiles,
// one Advance call applies k repetitions where the reference's run of
// consecutive canAdvance successes has length r: k must be within 1 of r,
// the state within 1e-9 of the capacity of k reference advances, and a clone
// segment-stepped through the same k repetitions must never die.
func TestRepetitionOperatorMatchesReference(t *testing.T) {
	const maxRun = 5000
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prof := testProfile(rng, 1+rng.Intn(100), seed%2 == 0)
		b := Default()
		ref := newRefOp(b, prof)
		life := clone(b)
		run := 0
		for run < maxRun && ref.canAdvance(life) {
			ref.advance(life)
			run++
		}
		starts := map[string]*Battery{"fresh": clone(b)}
		for name, reps := range map[string]int{"mid-life": run / 2, "near-death": max(run-2, 0)} {
			st := clone(b)
			for i := 0; i < reps; i++ {
				ref.advance(st)
			}
			starts[name] = st
		}
		for name, st := range starts {
			want := clone(st)
			r := 0
			for r < maxRun && ref.canAdvance(want) {
				ref.advance(want)
				r++
			}
			fast := clone(st)
			k := fast.RepetitionOperator(prof).Advance(maxRun)
			if k < r-1 || k > r+1 {
				t.Fatalf("seed %d %s: Advance applied %d repetitions, reference run %d", seed, name, k, r)
			}
			want = clone(st)
			for i := 0; i < k; i++ {
				ref.advance(want)
			}
			tol := 1e-9 * b.MaxCapacity()
			if math.Abs(fast.delivered-want.delivered) > tol {
				t.Fatalf("seed %d %s: delivered after %d repetitions = %v, reference %v", seed, name, k, fast.delivered, want.delivered)
			}
			for m := range fast.unavailable {
				if math.Abs(fast.unavailable[m]-want.unavailable[m]) > tol {
					t.Fatalf("seed %d %s: term %d after %d repetitions = %v, reference %v", seed, name, m, k, fast.unavailable[m], want.unavailable[m])
				}
			}
			seg := clone(st)
			for i := 0; i < k; i++ {
				for _, sg := range prof.Segments {
					if _, alive := seg.DrainSegment(sg.Current, sg.Duration); !alive {
						t.Fatalf("seed %d %s: segment stepping died in repetition %d of %d admitted", seed, name, i, k)
					}
				}
			}
		}
	}
}
