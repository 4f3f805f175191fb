package stochastic

import (
	"math"
	"math/rand"
	"testing"

	"battsched/internal/profile"
)

// refSeg is one segment of the reference repetition operator: the
// per-segment form the flat step loop replaced, with the whole-step run and
// the fractional tail of a segment in one record.
type refSeg struct {
	demand, recFactor, decay          float64
	tail, tailDem, tailRec, tailDecay float64
}

// refOp is the reference operator: its segments plus the conservative
// survival bounds CanAdvance reads, accumulated per segment.
type refOp struct {
	segs                                []refSeg
	totalDemand, maxStepDem, recPerProb float64
}

func newRefOp(b *Battery, p *profile.Profile) refOp {
	h := b.estep
	lambda := b.params.RecoveryDecay / b.params.MaxCoulombs
	var op refOp
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
			recFactor: geomSum(idle*b.params.MaxCurrent*h, x, float64(slots)),
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

// TestRepetitionOperatorMatchesPerSegmentReference: the flat step loop of
// the repetition operator is bit for bit the per-segment loop it replaced.
// From several start states, the available, bound and delivered charges
// must have identical bits after every one of many repetitions, and the
// bounds CanAdvance reads must be identical too. Every other call goes
// through CanAdvance first, so Advance also runs on its cached probability.
func TestRepetitionOperatorMatchesPerSegmentReference(t *testing.T) {
	def := Default().Params()
	for _, step := range []float64{1, def.SlotDuration} {
		ps := def
		ps.ExpectedStep = step
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			fast, err := New(ps)
			if err != nil {
				t.Fatal(err)
			}
			prof := mixedProfile(rng, step, ps.MaxCurrent, 1+rng.Intn(80))
			op := fast.RepetitionOperator(prof).(*repOp)
			ref := newRefOp(fast, prof)
			if math.Float64bits(op.totalDemand) != math.Float64bits(ref.totalDemand) ||
				math.Float64bits(op.maxStepDem) != math.Float64bits(ref.maxStepDem) ||
				math.Float64bits(op.recPerProb) != math.Float64bits(ref.recPerProb) {
				t.Fatalf("step %v seed %d: bounds (%v, %v, %v), reference (%v, %v, %v)", step, seed,
					op.totalDemand, op.maxStepDem, op.recPerProb, ref.totalDemand, ref.maxStepDem, ref.recPerProb)
			}
			starts := []struct{ avail, bound, deliv float64 }{
				{ps.NominalCoulombs, ps.MaxCoulombs - ps.NominalCoulombs, 0},
				{0.5 * ps.NominalCoulombs, 0.8 * (ps.MaxCoulombs - ps.NominalCoulombs), 0.3 * ps.MaxCoulombs},
				{0.9 * ps.NominalCoulombs, 0, 0.6 * ps.MaxCoulombs},
				{rng.Float64() * ps.NominalCoulombs, rng.Float64() * (ps.MaxCoulombs - ps.NominalCoulombs), rng.Float64() * ps.MaxCoulombs},
			}
			for si, st := range starts {
				fast.available, fast.bound, fast.delivered = st.avail, st.bound, st.deliv
				refB := *fast
				for rep := 0; rep < 40; rep++ {
					if rep%2 == 0 {
						op.CanAdvance()
					}
					op.Advance()
					ref.advance(&refB)
					if math.Float64bits(fast.available) != math.Float64bits(refB.available) ||
						math.Float64bits(fast.bound) != math.Float64bits(refB.bound) ||
						math.Float64bits(fast.delivered) != math.Float64bits(refB.delivered) {
						t.Fatalf("step %v seed %d start %d repetition %d: (avail, bound, delivered) = (%v, %v, %v), reference (%v, %v, %v)",
							step, seed, si, rep, fast.available, fast.bound, fast.delivered, refB.available, refB.bound, refB.delivered)
					}
				}
			}
		}
	}
}
