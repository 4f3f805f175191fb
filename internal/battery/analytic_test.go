package battery_test

import (
	"math"
	"testing"

	"battsched/internal/battery"
	"battsched/internal/battery/diffusion"
	"battsched/internal/battery/kibam"
	"battsched/internal/battery/peukert"
	"battsched/internal/profile"
)

// quantumModel is a test double with an internal step quantum: every Drain
// call sustains at most quantum seconds regardless of the requested dt, like
// a model with a coarse internal time discretisation. It never implements
// SegmentDrainer, so it always takes the stepped path.
type quantumModel struct {
	quantum   float64
	capacity  float64
	delivered float64
	alive     bool
}

func (q *quantumModel) Name() string { return "quantum" }
func (q *quantumModel) Reset()       { q.delivered = 0; q.alive = true }
func (q *quantumModel) Drain(current, dt float64) (float64, bool) {
	if !q.alive {
		return 0, false
	}
	if dt <= 0 {
		return 0, true
	}
	s := math.Min(dt, q.quantum)
	q.delivered += current * s
	if q.delivered >= q.capacity {
		q.alive = false
		return s, false
	}
	return s, true
}
func (q *quantumModel) MaxCapacity() float64     { return q.capacity }
func (q *quantumModel) DeliveredCharge() float64 { return q.delivered }

// TestSteppedAccountingUsesSustainedTime is the regression test for the
// substep accounting fix: the driver must deduct the sustained time from the
// segment remainder, not the requested dt, or a model that sustains only part
// of a step sees the profile advance faster than its own clock (here: 16
// repetitions counted inside a 10 s horizon of a 2 s profile).
func TestSteppedAccountingUsesSustainedTime(t *testing.T) {
	m := &quantumModel{quantum: 0.3, capacity: 1e9}
	p := profile.Constant(0.5, 2)
	r, err := battery.SimulateUntilExhausted(m, p, battery.SimulateOptions{MaxTime: 10, MaxStep: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Exhausted {
		t.Fatal("battery should have survived the horizon")
	}
	if math.Abs(r.Lifetime-10) > 1e-9 {
		t.Fatalf("lifetime = %v, want the 10 s horizon", r.Lifetime)
	}
	if r.Repetitions != 5 {
		t.Fatalf("repetitions = %d, want 5 (10 s / 2 s profile)", r.Repetitions)
	}
	if want := 0.5 * 10; math.Abs(r.DeliveredCharge-want) > 1e-9 {
		t.Fatalf("delivered = %v, want %v (0.5 A over the whole horizon)", r.DeliveredCharge, want)
	}
}

// TestSteppedRejectsStalledModel pins the no-progress guard: a model that
// sustains zero time while claiming to be alive is an error, not a hang.
func TestSteppedRejectsStalledModel(t *testing.T) {
	m := &quantumModel{quantum: 0, capacity: 1e9}
	p := profile.Constant(1, 10)
	if _, err := battery.SimulateUntilExhausted(m, p, battery.SimulateOptions{MaxTime: 100, MaxStep: 1}); err == nil {
		t.Fatal("expected an error for a model that makes no progress")
	}
}

// lazySegmentDrainer violates the SegmentDrainer contract by under-sustaining
// surviving segments (it reuses the quantum model's partial advance).
type lazySegmentDrainer struct{ quantumModel }

func (l *lazySegmentDrainer) DrainSegment(current, dt float64) (float64, bool) {
	return l.Drain(current, dt)
}

// TestAnalyticRejectsUnderSustainingModel pins the analytic-path contract
// guard: a model that survives a segment without sustaining all of it is an
// error, not a silent time drift or a hang.
func TestAnalyticRejectsUnderSustainingModel(t *testing.T) {
	m := &lazySegmentDrainer{quantumModel{quantum: 0.3, capacity: 1e9}}
	p := profile.Constant(1, 10)
	if _, err := battery.SimulateUntilExhausted(m, p, battery.SimulateOptions{MaxTime: 100}); err == nil {
		t.Fatal("expected an error for an under-sustaining SegmentDrainer")
	}
}

// recoveryProfile is a recovery-heavy two-level load: heavy bursts separated
// by near-rest periods, the shape that exercises both the rate-capacity and
// the recovery effects.
func recoveryProfile() *profile.Profile {
	p := profile.New()
	p.Append(5, 1.2)
	p.Append(5, 0.05)
	return p
}

// scaledAnalyticModels returns small-capacity instances of the three
// closed-form models, so a MaxStep 1e-3 reference simulation stays fast.
func scaledAnalyticModels(t *testing.T) []battery.Model {
	t.Helper()
	kb, err := kibam.New(kibam.Params{CapacityCoulombs: battery.Coulombs(100), C: 0.5, K: 2.2e-4})
	if err != nil {
		t.Fatal(err)
	}
	df, err := diffusion.New(diffusion.Params{AlphaCoulombs: battery.Coulombs(100), BetaSquared: 4.0e-3})
	if err != nil {
		t.Fatal(err)
	}
	pk, err := peukert.New(peukert.Params{
		ReferenceCapacityCoulombs: battery.Coulombs(80),
		MaxCoulombs:               battery.Coulombs(100),
		ReferenceCurrent:          1.0,
		Exponent:                  1.15,
	})
	if err != nil {
		t.Fatal(err)
	}
	return []battery.Model{kb, df, pk}
}

// TestAnalyticMatchesFineStepReference is the accuracy test justifying the
// golden regeneration: on a recovery-heavy profile the analytic path must be
// at least as close to a fine-step (MaxStep 1e-3) reference as the MaxStep 2
// stepping the experiments used before, and itself within rounding of the
// reference (the closed forms are exact; only the float association differs).
func TestAnalyticMatchesFineStepReference(t *testing.T) {
	p := recoveryProfile()
	for _, m := range scaledAnalyticModels(t) {
		if _, ok := m.(battery.SegmentDrainer); !ok {
			t.Fatalf("%s: expected an analytic model", m.Name())
		}
		ref, err := battery.SimulateUntilExhausted(m, p, battery.SimulateOptions{MaxTime: 1e6, MaxStep: 1e-3})
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		coarse, err := battery.SimulateUntilExhausted(m, p, battery.SimulateOptions{MaxTime: 1e6, MaxStep: 2})
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		analytic, err := battery.SimulateUntilExhausted(m, p, battery.SimulateOptions{MaxTime: 1e6})
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if !ref.Exhausted || !coarse.Exhausted || !analytic.Exhausted {
			t.Fatalf("%s: battery survived: ref=%v coarse=%v analytic=%v", m.Name(), ref, coarse, analytic)
		}
		errAnalytic := math.Abs(analytic.Lifetime - ref.Lifetime)
		errCoarse := math.Abs(coarse.Lifetime - ref.Lifetime)
		slack := 1e-7 * ref.Lifetime
		if errAnalytic > errCoarse+slack {
			t.Fatalf("%s: analytic lifetime error %v exceeds MaxStep-2 error %v (ref %v, analytic %v, coarse %v)",
				m.Name(), errAnalytic, errCoarse, ref.Lifetime, analytic.Lifetime, coarse.Lifetime)
		}
		if errAnalytic > 1e-6*ref.Lifetime {
			t.Fatalf("%s: analytic lifetime %v deviates from fine-step reference %v by %v",
				m.Name(), analytic.Lifetime, ref.Lifetime, errAnalytic)
		}
		if dq := math.Abs(analytic.DeliveredCharge - ref.DeliveredCharge); dq > 1e-6*ref.DeliveredCharge {
			t.Fatalf("%s: analytic delivered %v deviates from reference %v by %v",
				m.Name(), analytic.DeliveredCharge, ref.DeliveredCharge, dq)
		}
	}
}

// TestAnalyticCountsRepetitionsLikeStepped checks the two paths agree on the
// repetition count and exhaustion flag, not just the lifetime.
func TestAnalyticCountsRepetitionsLikeStepped(t *testing.T) {
	p := recoveryProfile()
	for _, m := range scaledAnalyticModels(t) {
		stepped, err := battery.SimulateUntilExhausted(m, p, battery.SimulateOptions{MaxTime: 1e6, MaxStep: 2})
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		analytic, err := battery.SimulateUntilExhausted(m, p, battery.SimulateOptions{MaxTime: 1e6})
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if stepped.Repetitions != analytic.Repetitions || stepped.Exhausted != analytic.Exhausted {
			t.Fatalf("%s: stepped %+v vs analytic %+v", m.Name(), stepped, analytic)
		}
	}
}

// TestAnalyticHorizonClipping checks the analytic path clips the final
// partial repetition at the horizon exactly as the stepped path does.
func TestAnalyticHorizonClipping(t *testing.T) {
	for _, m := range scaledAnalyticModels(t) {
		p := profile.Constant(0.001, 7) // tiny load: the horizon wins
		r, err := battery.SimulateUntilExhausted(m, p, battery.SimulateOptions{MaxTime: 100})
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if r.Exhausted {
			t.Fatalf("%s: battery should have survived", m.Name())
		}
		if math.Abs(r.Lifetime-100) > 1e-9 {
			t.Fatalf("%s: lifetime = %v, want horizon 100", m.Name(), r.Lifetime)
		}
		if r.Repetitions != 14 { // floor(100 / 7)
			t.Fatalf("%s: repetitions = %d, want 14", m.Name(), r.Repetitions)
		}
		if want := 0.001 * 100; math.Abs(r.DeliveredCharge-want) > 1e-9 {
			t.Fatalf("%s: delivered = %v, want %v", m.Name(), r.DeliveredCharge, want)
		}
	}
}

// TestExhaustionTimeMatchesConstantLoadLifetime cross-checks the Newton
// root-finding against the simulation driver on a fresh cell.
func TestExhaustionTimeMatchesConstantLoadLifetime(t *testing.T) {
	for _, m := range scaledAnalyticModels(t) {
		sd := m.(interface{ ExhaustionTime(float64) float64 })
		m.Reset()
		te := sd.ExhaustionTime(0.8)
		r, err := battery.ConstantLoadLifetime(m, 0.8, 1e6)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if !r.Exhausted {
			t.Fatalf("%s: battery survived", m.Name())
		}
		if math.Abs(te-r.Lifetime) > 1e-6*r.Lifetime {
			t.Fatalf("%s: ExhaustionTime = %v, simulated lifetime = %v", m.Name(), te, r.Lifetime)
		}
		m.Reset()
		if rest := sd.ExhaustionTime(0); !math.IsInf(rest, 1) {
			t.Fatalf("%s: ExhaustionTime(0) = %v, want +Inf", m.Name(), rest)
		}
	}
}

// TestSolveExhaustionRoot pins the shared root-finder on a known function.
func TestSolveExhaustionRoot(t *testing.T) {
	// f(t) = 100 - 3t - t^2 crosses zero at t = (-3 + sqrt(409))/2.
	root := battery.SolveExhaustion(func(tt float64) (float64, float64) {
		return 100 - 3*tt - tt*tt, -3 - 2*tt
	}, 1)
	want := (-3 + math.Sqrt(409)) / 2
	if math.Abs(root-want) > 1e-9 {
		t.Fatalf("root = %v, want %v", root, want)
	}
	if r := battery.SolveExhaustion(func(float64) (float64, float64) { return 1, 0 }, 1); !math.IsInf(r, 1) {
		t.Fatalf("root of a positive function = %v, want +Inf", r)
	}
}
