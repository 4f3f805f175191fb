package stochastic

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"battsched/internal/battery"
	"battsched/internal/profile"
)

func TestNewRejectsBadParams(t *testing.T) {
	ok := Default().Params()
	bad := []func(Params) Params{
		func(p Params) Params { p.MaxCoulombs = 0; return p },
		func(p Params) Params { p.NominalCoulombs = 0; return p },
		func(p Params) Params { p.NominalCoulombs = p.MaxCoulombs + 1; return p },
		func(p Params) Params { p.MaxCurrent = 0; return p },
		func(p Params) Params { p.RecoveryProb = -0.1; return p },
		func(p Params) Params { p.RecoveryProb = 1.1; return p },
		func(p Params) Params { p.RecoveryDecay = -1; return p },
	}
	for i, mut := range bad {
		if _, err := New(mut(ok)); !errors.Is(err, ErrBadParams) {
			t.Errorf("case %d: expected ErrBadParams, got %v", i, err)
		}
	}
}

func TestResetRestoresState(t *testing.T) {
	b := Default()
	b.Drain(2, 100)
	b.Reset()
	if b.DeliveredCharge() != 0 {
		t.Fatalf("delivered after reset = %v", b.DeliveredCharge())
	}
	if math.Abs(b.AvailableCharge()-b.Params().NominalCoulombs) > 1e-9 {
		t.Fatalf("available after reset = %v, want %v", b.AvailableCharge(), b.Params().NominalCoulombs)
	}
	if math.Abs(b.AvailableCharge()+b.BoundCharge()-b.MaxCapacity()) > 1e-9 {
		t.Fatal("available + bound != max capacity after reset")
	}
}

func TestExpectedModeIsDeterministic(t *testing.T) {
	run := func() battery.Result {
		b := Default()
		r, err := battery.ConstantLoadLifetime(b, 1.2, 1e6)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Lifetime != b.Lifetime || a.DeliveredCharge != b.DeliveredCharge {
		t.Fatalf("expected-value mode not deterministic: %+v vs %+v", a, b)
	}
}

func TestRateCapacityEffectExpectedMode(t *testing.T) {
	loads := []float64{0.2, 0.5, 1.0, 1.8, 2.4}
	prev := math.Inf(1)
	for _, i := range loads {
		b := Default()
		r, err := battery.ConstantLoadLifetime(b, i, 2e6)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Exhausted {
			t.Fatalf("battery did not die at %v A", i)
		}
		if r.DeliveredCharge > prev+1e-3 {
			t.Fatalf("delivered charge increased with load at %v A: %v > %v", i, r.DeliveredCharge, prev)
		}
		if r.DeliveredCharge > b.MaxCapacity()+1e-6 {
			t.Fatalf("delivered exceeds theoretical capacity")
		}
		if r.DeliveredCharge < b.Params().NominalCoulombs-b.Params().MaxCurrent*SlotDuration-1e-3 {
			t.Fatalf("delivered %v below nominal capacity %v", r.DeliveredCharge, b.Params().NominalCoulombs)
		}
		prev = r.DeliveredCharge
	}
}

func TestHeavyLoadDeliversNominalOnly(t *testing.T) {
	b := Default()
	r, err := battery.ConstantLoadLifetime(b, b.Params().MaxCurrent, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Exhausted {
		t.Fatal("battery survived a max-current discharge")
	}
	if math.Abs(r.DeliveredCharge-b.Params().NominalCoulombs) > 0.01*b.Params().NominalCoulombs {
		t.Fatalf("delivered at max current = %v, want ~nominal %v", r.DeliveredCharge, b.Params().NominalCoulombs)
	}
}

func TestLightLoadApproachesMaxCapacity(t *testing.T) {
	b := Default()
	r, err := battery.ConstantLoadLifetime(b, 0.05, 2e7)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Exhausted {
		t.Fatal("battery did not die under the horizon")
	}
	if frac := r.DeliveredCharge / b.MaxCapacity(); frac < 0.9 {
		t.Fatalf("light-load delivered fraction = %v, want >= 0.9", frac)
	}
}

func TestBurstyLoadOutlivesContinuousLoad(t *testing.T) {
	// Same average current, one continuous and one bursty with rest periods:
	// the bursty one must deliver at least as much charge (recovery effect).
	avg := 1.0
	cont := Default()
	rc, err := battery.ConstantLoadLifetime(cont, avg, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	burst := Default()
	// 2 A for 5 s then idle 5 s = same 1 A average.
	p := profileWith(t, 2*avg, 5, 0, 5)
	rb, err := battery.SimulateUntilExhausted(burst, p, battery.SimulateOptions{MaxTime: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if rb.DeliveredCharge < rc.DeliveredCharge-1 {
		t.Fatalf("bursty load delivered %v, continuous delivered %v", rb.DeliveredCharge, rc.DeliveredCharge)
	}
}

func TestRecoveryProbabilityDecaysWithDischarge(t *testing.T) {
	b := Default()
	p0 := b.recoveryProbability()
	b.Drain(2.0, 1000)
	p1 := b.recoveryProbability()
	if p1 >= p0 {
		t.Fatalf("recovery probability did not decay: %v -> %v", p0, p1)
	}
	if p0 > 1 || p1 < 0 {
		t.Fatalf("probabilities out of range: %v, %v", p0, p1)
	}
}

func TestDrainAfterDeathAndEdgeInputs(t *testing.T) {
	b := Default()
	for {
		if _, alive := b.Drain(2.4, 100); !alive {
			break
		}
	}
	if s, alive := b.Drain(1, 1); s != 0 || alive {
		t.Fatalf("Drain after death = (%v,%v)", s, alive)
	}
	c := Default()
	if s, alive := c.Drain(1, 0); s != 0 || !alive {
		t.Fatalf("Drain(1,0) = (%v,%v)", s, alive)
	}
	if s, alive := c.Drain(-1, 5); s != 5 || !alive {
		t.Fatalf("Drain(-1,5) = (%v,%v)", s, alive)
	}
}

func TestNameAndString(t *testing.T) {
	b := Default()
	if b.Name() != "stochastic" {
		t.Fatalf("Name = %q", b.Name())
	}
	if b.String() == "" {
		t.Fatal("empty String()")
	}
}

// Property: delivered charge stays within [0, MaxCoulombs] and available/bound
// stores stay non-negative for arbitrary load sequences (expected-value mode).
func TestStochasticInvariantProperty(t *testing.T) {
	f := func(loads []float64) bool {
		b := Default()
		for _, l := range loads {
			i := math.Abs(math.Mod(l, 3))
			_, alive := b.Drain(i, 60)
			if b.DeliveredCharge() < -1e-9 || b.DeliveredCharge() > b.MaxCapacity()+1e-6 {
				return false
			}
			if b.AvailableCharge() < -1e-6 || b.BoundCharge() < -1e-6 {
				return false
			}
			if !alive {
				break
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// profileWith builds an alternating two-level profile.
func profileWith(t *testing.T, i1, d1, i2, d2 float64) *profile.Profile {
	t.Helper()
	p := profile.New()
	p.Append(d1, i1)
	p.Append(d2, i2)
	return p
}
