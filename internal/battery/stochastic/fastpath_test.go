package stochastic_test

import (
	"math"
	"math/rand"
	"testing"

	"battsched/internal/battery"
	"battsched/internal/battery/stochastic"
	"battsched/internal/profile"
)

// fastpathProfiles are the load shapes the accuracy gates run on: the bench
// profile (burst / plateau / near-idle tail with non-integral durations), a
// schedule-shaped profile and constant loads across the curve sweep's range.
// The schedule profile is shaped like a recorded Table 2 load: every segment
// lasts 1–50 ms, far below the default 1 s step, so whole-step runs are
// empty and each segment is one tail step.
func fastpathProfiles() map[string]*profile.Profile {
	bench := profile.New()
	bench.Append(33.4, 1.2)
	bench.Append(21.7, 0.4)
	bench.Append(5.1, 0.01)
	rng := rand.New(rand.NewSource(7))
	levels := []float64{0.02, 0.25, 0.5, 0.9, 1.4}
	schedule := profile.New()
	for i := 0; i < 150; i++ {
		schedule.Append(0.001+0.049*rng.Float64(), levels[rng.Intn(len(levels))])
	}
	return map[string]*profile.Profile{
		"bench":        bench,
		"schedule":     schedule,
		"constant-0.2": profile.Constant(0.2, 60*3600),
		"constant-1.0": profile.Constant(1.0, 60*3600),
		"constant-2.0": profile.Constant(2.0, 60*3600),
	}
}

func relDiff(a, b float64) float64 {
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return 0
	}
	return math.Abs(a-b) / scale
}

// TestFastPathMatchesSteppedDefault: with the default ExpectedStep the
// analytic path reproduces the historical 1 s-substep expected-value
// recursion; the only difference is closed-form versus iterated float
// rounding, so lifetimes and delivered charges agree to ~1e-12 (asserted at
// 1e-9 for headroom).
func TestFastPathMatchesSteppedDefault(t *testing.T) {
	for name, p := range fastpathProfiles() {
		m := stochastic.Default()
		fast, err := battery.SimulateUntilExhausted(m, p, battery.SimulateOptions{MaxTime: 60 * 3600})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := battery.SimulateUntilExhausted(m, p, battery.SimulateOptions{MaxTime: 60 * 3600, MaxStep: 1})
		if err != nil {
			t.Fatal(err)
		}
		if d := relDiff(fast.Lifetime, ref.Lifetime); d > 1e-9 {
			t.Errorf("%s: lifetime fast %v vs stepped %v (rel %.3e)", name, fast.Lifetime, ref.Lifetime, d)
		}
		if d := relDiff(fast.DeliveredCharge, ref.DeliveredCharge); d > 1e-9 {
			t.Errorf("%s: delivered fast %v vs stepped %v (rel %.3e)", name, fast.DeliveredCharge, ref.DeliveredCharge, d)
		}
		if fast.Exhausted != ref.Exhausted || fast.Repetitions != ref.Repetitions {
			t.Errorf("%s: fast %+v vs stepped %+v", name, fast, ref)
		}
	}
}

// TestFastPathSlotExactAccuracy is the accuracy gate of the satellite task:
// with ExpectedStep = SlotDuration the segment-stepped expected-value mode
// stays within 1e-6 of the fine-stepped SlotDuration-resolution reference on
// every gate profile.
func TestFastPathSlotExactAccuracy(t *testing.T) {
	ps := stochastic.Default().Params()
	ps.ExpectedStep = stochastic.SlotDuration
	for name, p := range fastpathProfiles() {
		m, err := stochastic.New(ps)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := battery.SimulateUntilExhausted(m, p, battery.SimulateOptions{MaxTime: 60 * 3600})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := battery.SimulateUntilExhausted(stochastic.Default(), p, battery.SimulateOptions{MaxTime: 60 * 3600, MaxStep: stochastic.SlotDuration})
		if err != nil {
			t.Fatal(err)
		}
		if d := relDiff(fast.Lifetime, ref.Lifetime); d > 1e-6 {
			t.Errorf("%s: lifetime fast %v vs slot-stepped %v (rel %.3e)", name, fast.Lifetime, ref.Lifetime, d)
		}
		if d := relDiff(fast.DeliveredCharge, ref.DeliveredCharge); d > 1e-6 {
			t.Errorf("%s: delivered fast %v vs slot-stepped %v (rel %.3e)", name, fast.DeliveredCharge, ref.DeliveredCharge, d)
		}
	}
}

// TestFastPathOperatorConsistency: the repetition transfer operator and plain
// segment stepping are the same arithmetic up to exp-product rounding, so a
// driver run (which uses the operator for the battery's whole steady state)
// agrees with a manual DrainSegment-only replay to ~1e-9.
func TestFastPathOperatorConsistency(t *testing.T) {
	for name, p := range fastpathProfiles() {
		withOp := stochastic.Default()
		r, err := battery.SimulateUntilExhausted(withOp, p, battery.SimulateOptions{MaxTime: 60 * 3600})
		if err != nil {
			t.Fatal(err)
		}
		segOnly := stochastic.Default()
		segOnly.Reset()
		t2, alive := 0.0, true
		for alive && t2 < 60*3600 {
			for _, seg := range p.Segments {
				s, al := segOnly.DrainSegment(seg.Current, seg.Duration)
				t2 += s
				if !al {
					alive = false
					break
				}
			}
		}
		if alive {
			t.Fatalf("%s: segment-only replay survived the horizon", name)
		}
		if d := relDiff(r.Lifetime, t2); d > 1e-9 {
			t.Errorf("%s: lifetime with operator %v vs segment-only %v (rel %.3e)", name, r.Lifetime, t2, d)
		}
		if d := relDiff(r.DeliveredCharge, segOnly.DeliveredCharge()); d > 1e-9 {
			t.Errorf("%s: delivered with operator %v vs segment-only %v (rel %.3e)", name, r.DeliveredCharge, segOnly.DeliveredCharge(), d)
		}
	}
}

// TestExpectedStepValidation: the new knob is range-checked.
func TestExpectedStepValidation(t *testing.T) {
	for _, bad := range []float64{-1, 10.5} {
		ps := stochastic.Default().Params()
		ps.ExpectedStep = bad
		if _, err := stochastic.New(ps); err == nil {
			t.Errorf("ExpectedStep %v: want error", bad)
		}
	}
	ps := stochastic.Default().Params()
	ps.ExpectedStep = 0.5
	if _, err := stochastic.New(ps); err != nil {
		t.Errorf("ExpectedStep 0.5: %v", err)
	}
}
