package priority

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNames(t *testing.T) {
	if NewPUBS().Name() != "pUBS" || NewLTF().Name() != "LTF" || NewSTF().Name() != "STF" ||
		NewRandom().Name() != "Random" || NewFIFO().Name() != "FIFO" {
		t.Fatal("unexpected priority function names")
	}
}

func TestLTFAndSTFOrderByWCET(t *testing.T) {
	small := Candidate{RemainingWCET: 10}
	big := Candidate{RemainingWCET: 100}
	ctx := &Context{}
	if NewLTF().Priority(big, ctx) >= NewLTF().Priority(small, ctx) {
		t.Fatal("LTF should prefer the larger task")
	}
	if NewSTF().Priority(small, ctx) >= NewSTF().Priority(big, ctx) {
		t.Fatal("STF should prefer the smaller task")
	}
}

func TestFIFOOrdersByEDFPositionThenNode(t *testing.T) {
	ctx := &Context{}
	f := NewFIFO()
	a := Candidate{EDFPosition: 0, Node: 5}
	b := Candidate{EDFPosition: 1, Node: 0}
	c := Candidate{EDFPosition: 0, Node: 2}
	if !(f.Priority(c, ctx) < f.Priority(a, ctx) && f.Priority(a, ctx) < f.Priority(b, ctx)) {
		t.Fatal("FIFO ordering wrong")
	}
}

func TestRandomUsesRNGAndFallsBackToFIFO(t *testing.T) {
	r := NewRandom()
	ctx := &Context{Rand: rand.New(rand.NewSource(1))}
	c := Candidate{EDFPosition: 0, Node: 0}
	v1 := r.Priority(c, ctx)
	v2 := r.Priority(c, ctx)
	if v1 == v2 {
		t.Log("two identical random draws (possible but unlikely)")
	}
	if v1 < 0 || v1 >= 1 {
		t.Fatalf("random priority %v outside [0,1)", v1)
	}
	noRNG := &Context{}
	if got := r.Priority(Candidate{EDFPosition: 2, Node: 3}, noRNG); got != 2e6+3 {
		t.Fatalf("fallback priority = %v", got)
	}
}

func TestPUBSPrefersLargerSpeedReductionPerCycle(t *testing.T) {
	// Two candidates with the same estimated actual; candidate A's completion
	// lowers the frequency much more than B's. pUBS must prefer A.
	ctx := &Context{
		Now:              0,
		CurrentFrequency: 0.8e9,
		FMax:             1e9,
		FrequencyAfter: func(c Candidate, assumed float64) float64 {
			if c.Node == 0 {
				return 0.5e9 // big reduction
			}
			return 0.78e9 // small reduction
		},
	}
	a := Candidate{Node: 0, RemainingWCET: 10e6, EstimatedActual: 4e6}
	b := Candidate{Node: 1, RemainingWCET: 10e6, EstimatedActual: 4e6}
	p := NewPUBS()
	if !(p.Priority(a, ctx) < p.Priority(b, ctx)) {
		t.Fatal("pUBS should prefer the candidate with the larger speed reduction")
	}
}

func TestPUBSPrefersSmallerCostForSameReduction(t *testing.T) {
	ctx := &Context{
		CurrentFrequency: 0.8e9,
		FMax:             1e9,
		FrequencyAfter:   func(c Candidate, assumed float64) float64 { return 0.6e9 },
	}
	cheap := Candidate{Node: 0, RemainingWCET: 10e6, EstimatedActual: 2e6}
	dear := Candidate{Node: 1, RemainingWCET: 10e6, EstimatedActual: 8e6}
	p := NewPUBS()
	if !(p.Priority(cheap, ctx) < p.Priority(dear, ctx)) {
		t.Fatal("pUBS should prefer the cheaper candidate when the reduction is equal")
	}
}

func TestPUBSNoReductionGoesLast(t *testing.T) {
	ctx := &Context{
		CurrentFrequency: 0.8e9,
		FMax:             1e9,
		FrequencyAfter: func(c Candidate, assumed float64) float64 {
			return c.EstimatedActual/1e6*0 + ifElse(c.Node == 0, 0.8e9, 0.6e9)
		},
	}
	flat := Candidate{Node: 0, RemainingWCET: 10e6, EstimatedActual: 5e6}
	useful := Candidate{Node: 1, RemainingWCET: 10e6, EstimatedActual: 5e6}
	p := NewPUBS()
	if !(p.Priority(useful, ctx) < p.Priority(flat, ctx)) {
		t.Fatal("a candidate with no speed reduction must rank behind one with a reduction")
	}
	if p.Priority(flat, ctx) < 1e29 {
		t.Fatal("no-reduction candidates should get a sentinel-large priority")
	}
}

func ifElse(cond bool, a, b float64) float64 {
	if cond {
		return a
	}
	return b
}

func TestPUBSWithoutFrequencyAfterSeesNoReduction(t *testing.T) {
	// Without a FrequencyAfter closure no candidate promises a speed
	// reduction, so each gets the no-reduction value, as a closure returning
	// the current frequency gives.
	ctx := &Context{CurrentFrequency: 0.8e9, FMax: 1e9}
	flat := &Context{CurrentFrequency: 0.8e9, FMax: 1e9,
		FrequencyAfter: func(Candidate, float64) float64 { return 0.8e9 }}
	p := NewPUBS()
	for _, c := range []Candidate{
		{Node: 0, RemainingWCET: 10e6, EstimatedActual: 2e6, AbsoluteDeadline: 0.1},
		{Node: 1, RemainingWCET: 10e6, EstimatedActual: 9.8e6, AbsoluteDeadline: 0.1},
	} {
		got := p.Priority(c, ctx)
		if want := p.Priority(c, flat); got != want || got != 1e30 {
			t.Fatalf("node %d without FrequencyAfter: %v, want the no-reduction value %v = 1e30", c.Node, got, want)
		}
	}
}

func TestPUBSDegenerateInputs(t *testing.T) {
	p := NewPUBS()
	ctx := &Context{CurrentFrequency: 0, FMax: 1e9}
	// Zero estimated actual and zero WCET: sentinel value, no panic.
	if got := p.Priority(Candidate{}, ctx); got != math.MaxFloat64 {
		t.Fatalf("degenerate candidate priority = %v", got)
	}
	// Zero current frequency falls back to fmax.
	c := Candidate{RemainingWCET: 10e6, EstimatedActual: 5e6, AbsoluteDeadline: 1}
	if got := p.Priority(c, ctx); math.IsNaN(got) || got <= 0 {
		t.Fatalf("priority with zero current frequency = %v", got)
	}
}

// Property: pUBS priorities are monotone in X_k when the speed reduction is
// held fixed — doubling the expected cost never improves the rank.
func TestPUBSMonotoneInCostProperty(t *testing.T) {
	p := NewPUBS()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ctx := &Context{
			CurrentFrequency: 0.5e9 + rng.Float64()*0.5e9,
			FMax:             1e9,
		}
		drop := rng.Float64() * 0.3e9
		ctx.FrequencyAfter = func(c Candidate, assumed float64) float64 { return ctx.CurrentFrequency - drop }
		x := 1e6 + rng.Float64()*10e6
		a := Candidate{RemainingWCET: 20e6, EstimatedActual: x}
		b := Candidate{RemainingWCET: 20e6, EstimatedActual: 2 * x}
		return p.Priority(a, ctx) <= p.Priority(b, ctx)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHistoryEstimatorDefaultsAndLearning(t *testing.T) {
	e := NewHistoryEstimator(0.5)
	const wcet = 1000.0
	// Before any observation: the default fraction of the WCET.
	if got := e.Estimate(0, 0, wcet); math.Abs(got-DefaultInitialFraction*wcet) > 1e-9 {
		t.Fatalf("initial estimate = %v, want %v", got, DefaultInitialFraction*wcet)
	}
	// After observing a 30% actual repeatedly the estimate converges there.
	for i := 0; i < 20; i++ {
		e.Observe(0, 0, wcet, 300)
	}
	if got := e.Estimate(0, 0, wcet); math.Abs(got-300) > 10 {
		t.Fatalf("estimate after observations = %v, want ~300", got)
	}
	if got := observed(e); got != 1 {
		t.Fatalf("%d nodes observed, want 1", got)
	}
	// Other nodes unaffected.
	if got := e.Estimate(1, 0, wcet); math.Abs(got-DefaultInitialFraction*wcet) > 1e-9 {
		t.Fatalf("unrelated node estimate = %v", got)
	}
}

func TestHistoryEstimatorClampsAndIgnoresBadObservations(t *testing.T) {
	e := NewHistoryEstimator(0)
	if e.Alpha != 0.5 {
		t.Fatalf("alpha default = %v, want 0.5", e.Alpha)
	}
	e.Observe(0, 0, 0, 10)    // ignored (bad wcet)
	e.Observe(0, 0, 100, 0)   // ignored (bad actual)
	e.Observe(0, 0, 100, 500) // clamped to 1.0
	if got := e.Estimate(0, 0, 100); got > 100 || got <= 0 {
		t.Fatalf("estimate = %v, want in (0, 100]", got)
	}
	if got := e.Estimate(0, 1, 0); got != 0 {
		t.Fatalf("estimate with zero wcet = %v, want 0", got)
	}
}

func TestHistoryEstimatorEWMAWeighting(t *testing.T) {
	e := NewHistoryEstimator(0.9)
	e.Observe(0, 0, 100, 20)
	e.Observe(0, 0, 100, 80)
	// With alpha 0.9 the estimate should be close to the latest observation.
	if got := e.Estimate(0, 0, 100); got < 70 {
		t.Fatalf("estimate = %v, want close to 80", got)
	}
}

func TestOracleEstimator(t *testing.T) {
	o := OracleEstimator{Fraction: 0.4}
	if got := o.Estimate(0, 0, 100); got != 40 {
		t.Fatalf("oracle estimate = %v, want 40", got)
	}
	o.Observe(0, 0, 100, 10) // no-op
	if got := o.Estimate(0, 0, 100); got != 40 {
		t.Fatalf("oracle estimate after observe = %v, want 40", got)
	}
	bad := OracleEstimator{Fraction: 7}
	if got := bad.Estimate(0, 0, 100); got != 100 {
		t.Fatalf("oracle with bad fraction = %v, want wcet", got)
	}
}

// Property: history estimates always stay within (0, WCET].
func TestHistoryEstimatorBoundsProperty(t *testing.T) {
	e := NewHistoryEstimator(0.3)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := rng.Intn(5)
		n := rng.Intn(5)
		wcet := 1 + rng.Float64()*1e7
		if rng.Float64() < 0.7 {
			e.Observe(g, n, wcet, rng.Float64()*wcet*1.5)
		}
		got := e.Estimate(g, n, wcet)
		return got > 0 && got <= wcet+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
