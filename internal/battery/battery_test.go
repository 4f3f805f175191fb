package battery_test

import (
	"errors"
	"math"
	"testing"

	"battsched/internal/battery"
	"battsched/internal/battery/diffusion"
	"battsched/internal/battery/kibam"
	"battsched/internal/battery/peukert"
	"battsched/internal/battery/stochastic"
	"battsched/internal/profile"
)

func allModels() []battery.Model {
	return []battery.Model{kibam.Default(), diffusion.Default(), stochastic.Default(), peukert.Default()}
}

func TestUnitConversions(t *testing.T) {
	if got := battery.Coulombs(1000); got != 3600 {
		t.Fatalf("Coulombs(1000 mAh) = %v, want 3600", got)
	}
	if got := battery.MAh(3600); got != 1000 {
		t.Fatalf("MAh(3600 C) = %v, want 1000", got)
	}
	if battery.MAh(battery.Coulombs(123.4)) != 123.4 {
		t.Fatal("MAh/Coulombs not inverse")
	}
}

func TestResultAccessors(t *testing.T) {
	r := battery.Result{Lifetime: 600, DeliveredCharge: 7200, Exhausted: true}
	if r.LifetimeMinutes() != 10 {
		t.Fatalf("LifetimeMinutes = %v", r.LifetimeMinutes())
	}
	if r.DeliveredMAh() != 2000 {
		t.Fatalf("DeliveredMAh = %v", r.DeliveredMAh())
	}
}

func TestSimulateErrors(t *testing.T) {
	p := profile.Constant(1, 10)
	if _, err := battery.SimulateUntilExhausted(nil, p, battery.SimulateOptions{}); !errors.Is(err, battery.ErrNilModel) {
		t.Fatalf("nil model err = %v", err)
	}
	if _, err := battery.SimulateUntilExhausted(kibam.Default(), profile.New(), battery.SimulateOptions{}); !errors.Is(err, battery.ErrBadProfile) {
		t.Fatalf("empty profile err = %v", err)
	}
	for _, seg := range []profile.Segment{
		{Duration: math.NaN(), Current: 0.5},
		{Duration: math.Inf(1), Current: 0.5},
		{Duration: 1, Current: math.NaN()},
		{Duration: 1, Current: math.Inf(1)},
	} {
		bad := &profile.Profile{Segments: []profile.Segment{seg}}
		if _, err := battery.SimulateUntilExhausted(kibam.Default(), bad, battery.SimulateOptions{MaxTime: 100}); !errors.Is(err, battery.ErrBadProfile) {
			t.Fatalf("profile %+v err = %v, want ErrBadProfile", seg, err)
		}
	}
	if _, err := battery.ConstantLoadLifetime(kibam.Default(), 1, 0); !errors.Is(err, battery.ErrBadHorizon) {
		t.Fatalf("bad horizon err = %v", err)
	}
}

// TestMeaninglessMaxStepRefused pins the one MaxStep rule in both simulation
// entry points: NaN, an infinity or a negative substep fails with ErrBadStep.
// Before, -1 and NaN ran the analytic path, as 0 does, and +Inf the stepped
// path with infinite substeps.
func TestMeaninglessMaxStepRefused(t *testing.T) {
	p := profile.Constant(1, 10)
	for _, step := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -1e-300} {
		opts := battery.SimulateOptions{MaxStep: step}
		if _, err := battery.SimulateUntilExhausted(kibam.Default(), p, opts); !errors.Is(err, battery.ErrBadStep) {
			t.Fatalf("SimulateUntilExhausted with MaxStep %v: err = %v, want ErrBadStep", step, err)
		}
		if _, err := battery.SimulateBatch(allModels(), p, opts); !errors.Is(err, battery.ErrBadStep) {
			t.Fatalf("SimulateBatch with MaxStep %v: err = %v, want ErrBadStep", step, err)
		}
		if err := battery.CheckMaxStep(step); !errors.Is(err, battery.ErrBadStep) {
			t.Fatalf("CheckMaxStep(%v) = %v, want ErrBadStep", step, err)
		}
	}
	for _, step := range []float64{0, math.Copysign(0, -1), 1e-300, 2} {
		if err := battery.CheckMaxStep(step); err != nil {
			t.Fatalf("CheckMaxStep(%v) = %v", step, err)
		}
	}
}

func TestSimulateHorizonWithoutExhaustion(t *testing.T) {
	b := kibam.Default()
	// A tiny current for a short horizon: the battery must survive.
	r, err := battery.SimulateUntilExhausted(b, profile.Constant(0.001, 10), battery.SimulateOptions{MaxTime: 100})
	if err != nil {
		t.Fatal(err)
	}
	if r.Exhausted {
		t.Fatal("battery should not be exhausted")
	}
	if math.Abs(r.Lifetime-100) > 1e-6 {
		t.Fatalf("lifetime = %v, want horizon 100", r.Lifetime)
	}
	if r.Repetitions != 10 {
		t.Fatalf("repetitions = %d, want 10", r.Repetitions)
	}
}

func TestSimulateRepeatsProfileUntilDeath(t *testing.T) {
	for _, m := range allModels() {
		p := profile.New()
		p.Append(30, 1.5)
		p.Append(30, 0.2)
		r, err := battery.SimulateUntilExhausted(m, p, battery.SimulateOptions{MaxTime: 1e6})
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if !r.Exhausted {
			t.Fatalf("%s: battery did not die", m.Name())
		}
		if r.Repetitions < 1 {
			t.Fatalf("%s: expected at least one full repetition", m.Name())
		}
		if r.Lifetime < float64(r.Repetitions)*p.Duration()-1e-6 {
			t.Fatalf("%s: lifetime %v inconsistent with %d repetitions", m.Name(), r.Lifetime, r.Repetitions)
		}
		if r.DeliveredCharge <= 0 || r.DeliveredCharge > m.MaxCapacity()+1e-6 {
			t.Fatalf("%s: delivered charge %v out of range", m.Name(), r.DeliveredCharge)
		}
	}
}

func TestDeliveredChargeMatchesModelAccounting(t *testing.T) {
	for _, m := range allModels() {
		r, err := battery.ConstantLoadLifetime(m, 1.0, 1e6)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if math.Abs(r.DeliveredCharge-m.DeliveredCharge()) > 1e-6 {
			t.Fatalf("%s: result delivered %v != model delivered %v", m.Name(), r.DeliveredCharge, m.DeliveredCharge())
		}
	}
}

func TestAllModelsRankLoadsConsistently(t *testing.T) {
	// Every model must exhibit the rate-capacity effect the scheduling
	// guidelines rely on: delivered capacity is non-increasing in the load.
	for _, m := range allModels() {
		points, err := battery.DeliveredCapacityCurve(m, []float64{0.25, 0.5, 1.0, 2.0}, 1e6)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		for i := 1; i < len(points); i++ {
			if points[i].DeliveredMAh > points[i-1].DeliveredMAh+1 {
				t.Fatalf("%s: delivered capacity increases with load: %+v", m.Name(), points)
			}
		}
		for _, pt := range points {
			if pt.LifetimeMinutes <= 0 {
				t.Fatalf("%s: non-positive lifetime in curve: %+v", m.Name(), pt)
			}
		}
	}
}

func TestCurveExtrapolationMatchesPaperCapacities(t *testing.T) {
	// The paper defines the maximum capacity (2000 mAh) as the zero-load
	// extrapolation and quotes a nominal capacity around 1600 mAh. Check the
	// default KiBaM and stochastic cells reproduce those two anchors.
	for _, m := range []battery.Model{kibam.Default(), stochastic.Default()} {
		low, err := battery.ConstantLoadLifetime(m, 0.02, 5e7)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if low.DeliveredMAh() < 1850 {
			t.Fatalf("%s: near-zero-load capacity = %v mAh, want close to 2000", m.Name(), low.DeliveredMAh())
		}
		nominal, err := battery.ConstantLoadLifetime(m, 2.0, 5e7)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if nominal.DeliveredMAh() < 1350 || nominal.DeliveredMAh() > 1850 {
			t.Fatalf("%s: 2A-load capacity = %v mAh, want in [1350, 1850]", m.Name(), nominal.DeliveredMAh())
		}
	}
}
