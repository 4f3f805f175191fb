package peukert

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
		{ReferenceCapacityCoulombs: 0, MaxCoulombs: 100, ReferenceCurrent: 1, Exponent: 1.1},
		{ReferenceCapacityCoulombs: 200, MaxCoulombs: 100, ReferenceCurrent: 1, Exponent: 1.1},
		{ReferenceCapacityCoulombs: 100, MaxCoulombs: 100, ReferenceCurrent: 0, Exponent: 1.1},
		{ReferenceCapacityCoulombs: 100, MaxCoulombs: 100, ReferenceCurrent: 1, Exponent: 0.9},
	}
	for i, p := range bad {
		if _, err := New(p); !errors.Is(err, ErrBadParams) {
			t.Errorf("case %d: New(%+v) err = %v, want ErrBadParams", i, p, err)
		}
	}
}

func TestReferenceCurrentDeliversReferenceCapacity(t *testing.T) {
	b := Default()
	r, err := battery.ConstantLoadLifetime(b, b.Params().ReferenceCurrent, 1e7)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Exhausted {
		t.Fatal("battery did not die")
	}
	if math.Abs(r.DeliveredCharge-b.Params().ReferenceCapacityCoulombs) > 1e-3*b.Params().ReferenceCapacityCoulombs {
		t.Fatalf("delivered at reference current = %v, want %v", r.DeliveredCharge, b.Params().ReferenceCapacityCoulombs)
	}
}

func TestHighCurrentDeliversLess(t *testing.T) {
	loads := []float64{0.5, 1.0, 2.0, 4.0}
	prev := math.Inf(1)
	for _, i := range loads {
		b := Default()
		r, err := battery.ConstantLoadLifetime(b, i, 1e7)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Exhausted {
			t.Fatalf("battery did not die at %v A", i)
		}
		if r.DeliveredCharge > prev+1e-6 {
			t.Fatalf("delivered charge increased with load at %v A", i)
		}
		prev = r.DeliveredCharge
	}
}

func TestLowCurrentCappedAtMaxCapacity(t *testing.T) {
	b := Default()
	r, err := battery.ConstantLoadLifetime(b, 0.01, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Exhausted {
		t.Fatal("battery did not die")
	}
	if r.DeliveredCharge > b.MaxCapacity()+1e-6 {
		t.Fatalf("delivered %v exceeds max capacity %v", r.DeliveredCharge, b.MaxCapacity())
	}
	if r.DeliveredCharge < 0.99*b.MaxCapacity() {
		t.Fatalf("low-load delivered %v, want close to max %v", r.DeliveredCharge, b.MaxCapacity())
	}
}

func TestConstantLifetimeMatchesPeukertLaw(t *testing.T) {
	// For I above the point where the absolute cap binds, the lifetime must
	// satisfy L = Cref/Iref * (Iref/I)^k.
	b := Default()
	p := b.Params()
	const current = 2.0
	r, err := battery.ConstantLoadLifetime(b, current, 1e7)
	if err != nil {
		t.Fatal(err)
	}
	want := p.ReferenceCapacityCoulombs / p.ReferenceCurrent * math.Pow(p.ReferenceCurrent/current, p.Exponent)
	if math.Abs(r.Lifetime-want) > 1e-3*want {
		t.Fatalf("lifetime = %v, Peukert's law predicts %v", r.Lifetime, want)
	}
}

func TestNoRecoveryEffect(t *testing.T) {
	// Unlike KiBaM/diffusion, resting does not restore anything: an
	// intermittent load delivers exactly the same charge as a continuous one.
	cont := Default()
	rc, err := battery.ConstantLoadLifetime(cont, 2.0, 1e7)
	if err != nil {
		t.Fatal(err)
	}
	inter := Default()
	var active float64
	alive := true
	for alive {
		var sustained float64
		sustained, alive = inter.Drain(2.0, 10)
		active += sustained
		if alive {
			inter.Drain(0, 10)
		}
	}
	if math.Abs(active-rc.Lifetime) > 1e-6*rc.Lifetime+1e-6 {
		t.Fatalf("intermittent active time %v != continuous lifetime %v", active, rc.Lifetime)
	}
}

func TestResetDrainAfterDeathAndEdgeInputs(t *testing.T) {
	b := Default()
	b.Drain(1, 100)
	b.Reset()
	if b.DeliveredCharge() != 0 {
		t.Fatalf("delivered after reset = %v", b.DeliveredCharge())
	}
	for {
		if _, alive := b.Drain(3, 1000); !alive {
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
	if s, alive := c.Drain(-1, 7); s != 7 || !alive {
		t.Fatalf("Drain(-1,7) = (%v,%v)", s, alive)
	}
}

func TestNameAndString(t *testing.T) {
	b := Default()
	if b.Name() != "peukert" {
		t.Fatalf("Name = %q", b.Name())
	}
	if b.String() == "" {
		t.Fatal("empty String()")
	}
}

// Property: delivered charge is bounded by the maximum capacity and by the
// reference capacity scaled for the applied (constant) rate.
func TestPeukertBoundsProperty(t *testing.T) {
	f := func(x float64) bool {
		current := 0.1 + math.Abs(math.Mod(x, 5))
		b := Default()
		r, err := battery.ConstantLoadLifetime(b, current, 1e8)
		if err != nil || !r.Exhausted {
			return false
		}
		return r.DeliveredCharge <= b.MaxCapacity()+1e-6 && r.DeliveredCharge > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestRepetitionOperatorMatchesSegmentStepping checks the per-repetition
// budget increments reproduce segment-by-segment stepping, including the
// exact (not conservative) survival check.
func TestRepetitionOperatorMatchesSegmentStepping(t *testing.T) {
	p := profile.New()
	p.Append(30, 1.5)
	p.Append(20, 0.1)
	p.Append(10, 0.6)
	viaOperator := Default()
	viaSegments := Default()
	reps := viaOperator.RepetitionOperator(p).Advance(40)
	if reps < 10 {
		t.Fatalf("operator advanced only %d repetitions", reps)
	}
	for r := 0; r < reps; r++ {
		for _, s := range p.Segments {
			if _, alive := viaSegments.DrainSegment(s.Current, s.Duration); !alive {
				t.Fatalf("segment path died at repetition %d", r)
			}
		}
	}
	if math.Abs(viaOperator.DeliveredCharge()-viaSegments.DeliveredCharge()) > 1e-9*viaSegments.MaxCapacity() {
		t.Fatalf("delivered: operator %v vs segments %v", viaOperator.DeliveredCharge(), viaSegments.DeliveredCharge())
	}
	if math.Abs(viaOperator.weighted-viaSegments.weighted) > 1e-9*viaSegments.MaxCapacity() {
		t.Fatalf("weighted: operator %v vs segments %v", viaOperator.weighted, viaSegments.weighted)
	}
	// The Peukert survival check is exact: after CanAdvance trips, one more
	// repetition must indeed kill the segment-stepped battery.
	if reps < 40 {
		alive := true
		for _, s := range p.Segments {
			if _, alive = viaSegments.DrainSegment(s.Current, s.Duration); !alive {
				break
			}
		}
		if alive {
			t.Fatal("CanAdvance tripped but the next repetition was survivable")
		}
	}
}
