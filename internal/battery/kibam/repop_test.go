package kibam

import (
	"math"
	"math/rand"
	"testing"

	"battsched/internal/profile"
)

// refOp is the reference operator: one repetition as the composition of the
// segments' affine maps on (y1, y2), a 2x2 matrix plus an offset, applied one
// repetition at a time behind the per-repetition peak-drain check.
type refOp struct {
	m11, m12, m21, m22 float64
	d1, d2             float64
	charge             float64
	peak, peakE, peakR float64
}

func newRefOp(b *Battery, p *profile.Profile) refOp {
	op := refOp{m11: 1, m22: 1}
	kp, c := b.kp, b.params.C
	var duration float64
	for _, seg := range p.Segments {
		e := math.Exp(-kp * seg.Duration)
		r := (kp*seg.Duration - 1 + e) / kp
		a11 := e + c*(1-e)
		a12 := c * (1 - e)
		a21 := (1 - c) * (1 - e)
		a22 := e + (1-c)*(1-e)
		v1 := -seg.Current * ((1-e)/kp + c*r)
		v2 := -seg.Current * (1 - c) * r
		op.m11, op.m12, op.m21, op.m22, op.d1, op.d2 =
			a11*op.m11+a12*op.m21, a11*op.m12+a12*op.m22,
			a21*op.m11+a22*op.m21, a21*op.m12+a22*op.m22,
			a11*op.d1+a12*op.d2+v1, a21*op.d1+a22*op.d2+v2
		op.charge += seg.Current * seg.Duration
		duration += seg.Duration
		if seg.Current > op.peak {
			op.peak = seg.Current
		}
	}
	op.peakE = math.Exp(-kp * duration)
	op.peakR = (kp*duration - 1 + op.peakE) / kp
	return op
}

// canAdvance is the reference survival check: y1 after draining the peak
// current for a whole repetition from b's state must stay positive.
func (o refOp) canAdvance(b *Battery) bool {
	if !b.alive {
		return false
	}
	c := b.params.C
	y0 := b.y1 + b.y2
	y1 := b.y1*o.peakE + (y0*b.kp*c-o.peak)*(1-o.peakE)/b.kp - o.peak*c*o.peakR
	return y1 > 0
}

// advance applies one repetition.
func (o refOp) advance(b *Battery) {
	b.y1, b.y2 = o.m11*b.y1+o.m12*b.y2+o.d1, o.m21*b.y1+o.m22*b.y2+o.d2
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
// the per-repetition matrix operator they replaced, at a tolerance: the
// closed form cannot match per-repetition float association bit for bit.
// From fresh, mid-life and near-death states, on schedule-shaped and random
// profiles, one Advance call applies k repetitions where the reference's run
// of consecutive canAdvance successes has length r: k must be within 1 of r,
// the state within 1e-9 of the capacity of k reference advances, and a clone
// segment-stepped through the same k repetitions must never die.
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
			if math.Abs(fast.y1-want.y1) > tol || math.Abs(fast.y2-want.y2) > tol || math.Abs(fast.delivered-want.delivered) > tol {
				t.Fatalf("seed %d %s: (y1, y2, delivered) after %d repetitions = (%v, %v, %v), reference (%v, %v, %v)",
					seed, name, k, fast.y1, fast.y2, fast.delivered, want.y1, want.y2, want.delivered)
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
