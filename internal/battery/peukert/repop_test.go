package peukert

import (
	"math"
	"math/rand"
	"testing"

	"battsched/internal/profile"
)

// refOp is the reference operator: both budgets advanced one repetition at
// a time behind the per-repetition exact survival check.
type refOp struct{ weighted, charge float64 }

func newRefOp(b *Battery, p *profile.Profile) refOp {
	var op refOp
	for _, seg := range p.Segments {
		op.weighted += b.weightRate(seg.Current) * seg.Duration
		op.charge += seg.Current * seg.Duration
	}
	return op
}

// canAdvance is the reference survival check: both budgets must stay below
// their capacities after one more repetition.
func (o refOp) canAdvance(b *Battery) bool {
	return b.alive &&
		b.weighted+o.weighted < b.params.ReferenceCapacityCoulombs &&
		b.delivered+o.charge < b.params.MaxCoulombs
}

// advance applies one repetition.
func (o refOp) advance(b *Battery) {
	b.weighted += o.weighted
	b.delivered += o.charge
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
// the per-repetition budgets they replaced, at a tolerance: j·w cannot match
// j repeated additions bit for bit. From fresh, mid-life and near-death
// states, on schedule-shaped and random profiles, one Advance call applies k
// repetitions where the reference's run of consecutive canAdvance successes
// has length r: k must be within 1 of r, the budgets within 1e-9 of the
// capacity of k reference advances, and a clone segment-stepped through the
// same k repetitions must never die.
func TestRepetitionOperatorMatchesReference(t *testing.T) {
	const maxRun = 20000
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prof := testProfile(rng, 1+rng.Intn(150), seed%2 == 0)
		b := Default()
		ref := newRefOp(b, prof)
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
				t.Fatalf("seed %d %s: Advance applied %d repetitions, reference run %d", seed, name, k, r)
			}
			want = st
			for i := 0; i < k; i++ {
				ref.advance(&want)
			}
			tol := 1e-9 * b.MaxCapacity()
			if math.Abs(fast.weighted-want.weighted) > tol || math.Abs(fast.delivered-want.delivered) > tol {
				t.Fatalf("seed %d %s: (weighted, delivered) after %d repetitions = (%v, %v), reference (%v, %v)",
					seed, name, k, fast.weighted, fast.delivered, want.weighted, want.delivered)
			}
			seg := st
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
