package kibam

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"battsched/internal/battery"
	"battsched/internal/profile"
)

func TestNewRejectsBadParams(t *testing.T) {
	bad := []Params{
		{CapacityCoulombs: 0, C: 0.5, K: 1e-4},
		{CapacityCoulombs: 100, C: 0, K: 1e-4},
		{CapacityCoulombs: 100, C: 1, K: 1e-4},
		{CapacityCoulombs: 100, C: 0.5, K: 0},
	}
	for i, p := range bad {
		if _, err := New(p); !errors.Is(err, ErrBadParams) {
			t.Errorf("case %d: New(%+v) err = %v, want ErrBadParams", i, p, err)
		}
	}
}

func TestResetRestoresFullCharge(t *testing.T) {
	b := Default()
	if _, alive := b.Drain(2.0, 100); !alive {
		t.Fatal("battery died unexpectedly early")
	}
	b.Reset()
	if got := b.AvailableCharge() + b.BoundCharge(); math.Abs(got-b.MaxCapacity()) > 1e-6 {
		t.Fatalf("total charge after Reset = %v, want %v", got, b.MaxCapacity())
	}
	if b.DeliveredCharge() != 0 {
		t.Fatalf("delivered after Reset = %v, want 0", b.DeliveredCharge())
	}
}

func TestDrainConservesCharge(t *testing.T) {
	b := Default()
	before := b.AvailableCharge() + b.BoundCharge()
	const i, dt = 1.0, 500.0
	b.Drain(i, dt)
	after := b.AvailableCharge() + b.BoundCharge()
	if math.Abs(before-after-i*dt) > 1e-6*before {
		t.Fatalf("charge not conserved: before=%v after=%v drawn=%v", before, after, i*dt)
	}
	if math.Abs(b.DeliveredCharge()-i*dt) > 1e-9 {
		t.Fatalf("delivered = %v, want %v", b.DeliveredCharge(), i*dt)
	}
}

func TestZeroCurrentRecoversAvailableWell(t *testing.T) {
	b := Default()
	b.Drain(2.0, 600) // deplete the available well somewhat
	availBefore := b.AvailableCharge()
	boundBefore := b.BoundCharge()
	b.Drain(0, 600) // rest
	if b.AvailableCharge() <= availBefore {
		t.Fatalf("available well did not recover during rest: %v -> %v", availBefore, b.AvailableCharge())
	}
	if b.BoundCharge() >= boundBefore {
		t.Fatalf("bound well did not supply recovery: %v -> %v", boundBefore, b.BoundCharge())
	}
}

func TestNegativeCurrentTreatedAsZero(t *testing.T) {
	b := Default()
	sustained, alive := b.Drain(-5, 10)
	if sustained != 10 || !alive {
		t.Fatalf("Drain(-5, 10) = (%v, %v), want (10, true)", sustained, alive)
	}
	if b.DeliveredCharge() != 0 {
		t.Fatalf("delivered = %v, want 0", b.DeliveredCharge())
	}
}

func TestDrainAfterDeathReturnsZero(t *testing.T) {
	b := Default()
	// Run a huge current until death.
	for i := 0; i < 100000; i++ {
		if _, alive := b.Drain(10, 10); !alive {
			break
		}
	}
	sustained, alive := b.Drain(1, 1)
	if sustained != 0 || alive {
		t.Fatalf("Drain after death = (%v, %v), want (0, false)", sustained, alive)
	}
}

func TestZeroAndNegativeDt(t *testing.T) {
	b := Default()
	if s, alive := b.Drain(1, 0); s != 0 || !alive {
		t.Fatalf("Drain(1,0) = (%v,%v)", s, alive)
	}
	if s, alive := b.Drain(1, -3); s != 0 || !alive {
		t.Fatalf("Drain(1,-3) = (%v,%v)", s, alive)
	}
}

func TestRateCapacityEffect(t *testing.T) {
	// Higher constant loads must deliver less total charge.
	loads := []float64{0.2, 0.5, 1.0, 2.0, 4.0}
	var prev float64 = math.Inf(1)
	for _, i := range loads {
		b := Default()
		r, err := battery.ConstantLoadLifetime(b, i, 1e6)
		if err != nil {
			t.Fatalf("ConstantLoadLifetime(%v): %v", i, err)
		}
		if !r.Exhausted {
			t.Fatalf("battery did not die at load %v", i)
		}
		if r.DeliveredCharge > prev+1e-6 {
			t.Fatalf("delivered charge increased with load: %v A -> %v C (prev %v C)", i, r.DeliveredCharge, prev)
		}
		if r.DeliveredCharge > b.MaxCapacity()+1e-6 {
			t.Fatalf("delivered %v exceeds max capacity %v", r.DeliveredCharge, b.MaxCapacity())
		}
		prev = r.DeliveredCharge
	}
}

func TestLowLoadApproachesMaxCapacity(t *testing.T) {
	b := Default()
	r, err := battery.ConstantLoadLifetime(b, 0.05, 1e7)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Exhausted {
		t.Fatal("battery did not die under the horizon")
	}
	if frac := r.DeliveredCharge / b.MaxCapacity(); frac < 0.93 {
		t.Fatalf("low-load delivered fraction = %v, want >= 0.93", frac)
	}
}

func TestNominalCapacityCalibration(t *testing.T) {
	// At a ~1 A load the default cell should deliver roughly its nominal
	// capacity (about 1600 mAh out of 2000 mAh maximum).
	b := Default()
	r, err := battery.ConstantLoadLifetime(b, 1.0, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	mah := r.DeliveredMAh()
	if mah < 1400 || mah > 1850 {
		t.Fatalf("delivered at 1A = %v mAh, want within [1400, 1850]", mah)
	}
}

// DrainEuler is a reference forward-Euler integration of the KiBaM ODEs with
// the given step, for cross-checking the closed form.
func (b *Battery) DrainEuler(current, dt, step float64) (sustained float64, alive bool) {
	if !b.alive {
		return 0, false
	}
	if step <= 0 {
		step = dt / 1000
	}
	c := b.params.C
	t := 0.0
	for t < dt {
		h := math.Min(step, dt-t)
		h1 := b.y1 / c
		h2 := b.y2 / (1 - c)
		flow := b.params.K * (h2 - h1)
		b.y1 += (-current + flow) * h
		b.y2 += -flow * h
		b.delivered += current * h
		t += h
		if b.y1 <= 0 {
			b.y1 = 0
			b.alive = false
			return t, false
		}
	}
	return dt, true
}

func TestClosedFormMatchesEuler(t *testing.T) {
	a := Default()
	e := Default()
	const current, dt = 1.5, 400.0
	a.Drain(current, dt)
	e.DrainEuler(current, dt, 0.01)
	if math.Abs(a.AvailableCharge()-e.AvailableCharge()) > 1e-3*a.MaxCapacity() {
		t.Fatalf("available: closed form %v vs Euler %v", a.AvailableCharge(), e.AvailableCharge())
	}
	if math.Abs(a.BoundCharge()-e.BoundCharge()) > 1e-3*a.MaxCapacity() {
		t.Fatalf("bound: closed form %v vs Euler %v", a.BoundCharge(), e.BoundCharge())
	}
}

func TestDrainEulerDeathAndDefaults(t *testing.T) {
	b := Default()
	// Massive current kills it quickly even with default step selection.
	sustained, alive := b.DrainEuler(1000, 100, 0)
	if alive {
		t.Fatal("battery survived a 1000 A discharge")
	}
	if sustained <= 0 || sustained >= 100 {
		t.Fatalf("sustained = %v, want within (0, 100)", sustained)
	}
	if s, alive2 := b.DrainEuler(1, 1, 0.1); s != 0 || alive2 {
		t.Fatalf("DrainEuler after death = (%v,%v)", s, alive2)
	}
}

func TestDeathTimeBisection(t *testing.T) {
	b := Default()
	// Available well is 3600 C; at 10 A with little recovery the battery dies
	// around 360 s. Drain in a single long step and check the sustained time
	// is located inside the interval, not snapped to an end.
	sustained, alive := b.Drain(10, 1000)
	if alive {
		t.Fatal("battery should have died")
	}
	if sustained < 300 || sustained > 450 {
		t.Fatalf("death time = %v s, want roughly 360 s", sustained)
	}
	if b.AvailableCharge() > 1e-3 {
		t.Fatalf("available charge at death = %v, want ~0", b.AvailableCharge())
	}
}

func TestStringAndAccessors(t *testing.T) {
	b := Default()
	if b.String() == "" {
		t.Fatal("empty String()")
	}
	if b.Name() != "kibam" {
		t.Fatalf("Name = %q", b.Name())
	}
	if b.params.C != 0.5 {
		t.Fatalf("Params.C = %v", b.params.C)
	}
}

// Property: delivered charge never exceeds maximum capacity and total
// remaining charge never goes negative, for arbitrary piecewise loads.
func TestKibamInvariantProperty(t *testing.T) {
	f := func(loads []float64) bool {
		b := Default()
		for _, l := range loads {
			i := math.Abs(math.Mod(l, 5))
			_, alive := b.Drain(i, 120)
			if b.DeliveredCharge() > b.MaxCapacity()+1e-6 {
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

// TestRepetitionOperatorMatchesSegmentStepping checks the precomputed affine
// transfer operator reproduces segment-by-segment closed-form stepping over
// many profile repetitions.
func TestRepetitionOperatorMatchesSegmentStepping(t *testing.T) {
	p := profile.New()
	p.Append(30, 1.5)
	p.Append(20, 0.1)
	p.Append(10, 0.6)
	viaOperator := Default()
	viaSegments := Default()
	reps := viaOperator.RepetitionOperator(p).Advance(40)
	if reps < 10 {
		t.Fatalf("operator advanced only %d repetitions before its conservative check tripped", reps)
	}
	for r := 0; r < reps; r++ {
		for _, s := range p.Segments {
			if _, alive := viaSegments.DrainSegment(s.Current, s.Duration); !alive {
				t.Fatalf("segment path died at repetition %d", r)
			}
		}
	}
	tol := 1e-9 * viaSegments.MaxCapacity()
	if math.Abs(viaOperator.AvailableCharge()-viaSegments.AvailableCharge()) > tol {
		t.Fatalf("available: operator %v vs segments %v", viaOperator.AvailableCharge(), viaSegments.AvailableCharge())
	}
	if math.Abs(viaOperator.BoundCharge()-viaSegments.BoundCharge()) > tol {
		t.Fatalf("bound: operator %v vs segments %v", viaOperator.BoundCharge(), viaSegments.BoundCharge())
	}
	if math.Abs(viaOperator.DeliveredCharge()-viaSegments.DeliveredCharge()) > tol {
		t.Fatalf("delivered: operator %v vs segments %v", viaOperator.DeliveredCharge(), viaSegments.DeliveredCharge())
	}
}

// TestExhaustionTimeAgreesWithDrain checks the Newton root coincides with the
// death instant Drain locates inside a long segment.
func TestExhaustionTimeAgreesWithDrain(t *testing.T) {
	b := Default()
	te := b.ExhaustionTime(10)
	sustained, alive := b.Drain(10, 1e6)
	if alive {
		t.Fatal("battery should have died")
	}
	if math.Abs(te-sustained) > 1e-6*te {
		t.Fatalf("ExhaustionTime = %v, Drain death at %v", te, sustained)
	}
	if b.ExhaustionTime(1) != 0 {
		t.Fatalf("ExhaustionTime after death = %v, want 0", b.ExhaustionTime(1))
	}
}
