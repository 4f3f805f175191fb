package diffusion

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
		{AlphaCoulombs: 0, BetaSquared: 1e-3},
		{AlphaCoulombs: 100, BetaSquared: 0},
		{AlphaCoulombs: 100, BetaSquared: 1e-3, Terms: -1},
	}
	for i, p := range bad {
		if _, err := New(p); !errors.Is(err, ErrBadParams) {
			t.Errorf("case %d: New(%+v) err = %v, want ErrBadParams", i, p, err)
		}
	}
}

func TestDefaultTermsApplied(t *testing.T) {
	b, err := New(Params{AlphaCoulombs: 100, BetaSquared: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if b.Params().Terms != DefaultTerms {
		t.Fatalf("Terms = %d, want %d", b.Params().Terms, DefaultTerms)
	}
}

func TestResetClearsState(t *testing.T) {
	b := Default()
	b.Drain(1, 100)
	if b.Sigma() == 0 {
		t.Fatal("sigma should be positive after a drain")
	}
	b.Reset()
	if b.Sigma() != 0 || b.DeliveredCharge() != 0 || b.UnavailableCharge() != 0 {
		t.Fatalf("state not cleared: sigma=%v delivered=%v unavailable=%v",
			b.Sigma(), b.DeliveredCharge(), b.UnavailableCharge())
	}
}

func TestSigmaAccountsDeliveredPlusUnavailable(t *testing.T) {
	b := Default()
	b.Drain(1.0, 200)
	want := b.DeliveredCharge() + b.UnavailableCharge()
	if math.Abs(b.Sigma()-want) > 1e-9 {
		t.Fatalf("Sigma = %v, want %v", b.Sigma(), want)
	}
	if b.UnavailableCharge() <= 0 {
		t.Fatal("unavailable charge should be positive immediately after a load")
	}
}

func TestRecoveryDuringRest(t *testing.T) {
	b := Default()
	b.Drain(2.0, 300)
	u0 := b.UnavailableCharge()
	d0 := b.DeliveredCharge()
	b.Drain(0, 3000)
	if b.UnavailableCharge() >= u0 {
		t.Fatalf("unavailable charge did not decay during rest: %v -> %v", u0, b.UnavailableCharge())
	}
	if b.DeliveredCharge() != d0 {
		t.Fatalf("rest changed delivered charge: %v -> %v", d0, b.DeliveredCharge())
	}
}

func TestRateCapacityEffect(t *testing.T) {
	loads := []float64{0.2, 0.5, 1.0, 2.0, 4.0}
	prev := math.Inf(1)
	for _, i := range loads {
		b := Default()
		r, err := battery.ConstantLoadLifetime(b, i, 1e6)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Exhausted {
			t.Fatalf("battery did not die at load %v", i)
		}
		if r.DeliveredCharge > prev+1e-6 {
			t.Fatalf("delivered charge increased with load at %v A", i)
		}
		if r.DeliveredCharge > b.MaxCapacity()+1e-6 {
			t.Fatalf("delivered %v exceeds alpha %v", r.DeliveredCharge, b.MaxCapacity())
		}
		prev = r.DeliveredCharge
	}
}

func TestLowLoadApproachesAlpha(t *testing.T) {
	b := Default()
	r, err := battery.ConstantLoadLifetime(b, 0.05, 1e7)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Exhausted {
		t.Fatal("battery did not die under the horizon")
	}
	if frac := r.DeliveredCharge / b.MaxCapacity(); frac < 0.9 {
		t.Fatalf("low-load delivered fraction = %v, want >= 0.9", frac)
	}
}

func TestConstantLoadLifetimeMatchesClosedForm(t *testing.T) {
	// For a constant current I applied from t=0, the model predicts failure
	// when I*(L + 2*sum_m (1-exp(-beta^2 m^2 L))/(beta^2 m^2)) = alpha.
	// Verify the simulated lifetime satisfies this equation.
	b := Default()
	const current = 1.0
	r, err := battery.ConstantLoadLifetime(b, current, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	p := b.Params()
	L := r.Lifetime
	sigma := current * L
	for m := 1; m <= p.Terms; m++ {
		k := p.BetaSquared * float64(m) * float64(m)
		sigma += 2 * current * (1 - math.Exp(-k*L)) / k
	}
	if math.Abs(sigma-p.AlphaCoulombs) > 1e-3*p.AlphaCoulombs {
		t.Fatalf("closed-form sigma at simulated lifetime = %v, want alpha = %v", sigma, p.AlphaCoulombs)
	}
}

func TestDrainAfterDeath(t *testing.T) {
	b := Default()
	for i := 0; i < 1000000; i++ {
		if _, alive := b.Drain(5, 10); !alive {
			break
		}
	}
	if s, alive := b.Drain(1, 1); s != 0 || alive {
		t.Fatalf("Drain after death = (%v,%v), want (0,false)", s, alive)
	}
}

func TestZeroNegativeInputs(t *testing.T) {
	b := Default()
	if s, alive := b.Drain(1, 0); s != 0 || !alive {
		t.Fatalf("Drain(1,0) = (%v,%v)", s, alive)
	}
	if s, alive := b.Drain(-2, 10); s != 10 || !alive {
		t.Fatalf("Drain(-2,10) = (%v,%v)", s, alive)
	}
	if b.DeliveredCharge() != 0 {
		t.Fatalf("negative current delivered charge = %v", b.DeliveredCharge())
	}
}

func TestNameParamsString(t *testing.T) {
	b := Default()
	if b.Name() != "diffusion" {
		t.Fatalf("Name = %q", b.Name())
	}
	if b.String() == "" {
		t.Fatal("empty String()")
	}
}

// Property: the intermittent-load lifetime is never shorter than the
// continuous-load lifetime at the same current amplitude (recovery during
// rest can only help).
func TestRestNeverHurtsProperty(t *testing.T) {
	f := func(seed int64) bool {
		amp := 1.0 + math.Abs(float64(seed%300))/100.0 // 1.0 .. 4.0 A
		cont := Default()
		rc, err := battery.ConstantLoadLifetime(cont, amp, 1e6)
		if err != nil || !rc.Exhausted {
			return false
		}
		// 50% duty cycle with 10 s bursts.
		inter := Default()
		var tTotal, active float64
		alive := true
		for alive && tTotal < 1e6 {
			var sustained float64
			sustained, alive = inter.Drain(amp, 10)
			active += sustained
			tTotal += sustained
			if !alive {
				break
			}
			inter.Drain(0, 10)
			tTotal += 10
		}
		// Active time under the intermittent load must be at least the
		// continuous lifetime.
		return active >= rc.Lifetime-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestRepetitionOperatorMatchesSegmentStepping checks the diagonal transfer
// operator reproduces segment-by-segment recurrence stepping over many
// profile repetitions.
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
	if math.Abs(viaOperator.Sigma()-viaSegments.Sigma()) > tol {
		t.Fatalf("sigma: operator %v vs segments %v", viaOperator.Sigma(), viaSegments.Sigma())
	}
	if math.Abs(viaOperator.DeliveredCharge()-viaSegments.DeliveredCharge()) > tol {
		t.Fatalf("delivered: operator %v vs segments %v", viaOperator.DeliveredCharge(), viaSegments.DeliveredCharge())
	}
}

// TestDecayCacheSemigroup checks the decay-factor buffer keyed by dt does not
// change the recurrence: splitting a constant-current interval into repeated
// equal steps (cache hits) plus a remainder (cache miss) matches one whole
// step.
func TestDecayCacheSemigroup(t *testing.T) {
	split := Default()
	whole := Default()
	split.Drain(1.2, 2)
	split.Drain(1.2, 2)
	split.Drain(1.2, 3)
	whole.Drain(1.2, 7)
	if math.Abs(split.Sigma()-whole.Sigma()) > 1e-9*whole.MaxCapacity() {
		t.Fatalf("sigma: split %v vs whole %v", split.Sigma(), whole.Sigma())
	}
	if math.Abs(split.DeliveredCharge()-whole.DeliveredCharge()) > 1e-9 {
		t.Fatalf("delivered: split %v vs whole %v", split.DeliveredCharge(), whole.DeliveredCharge())
	}
}
