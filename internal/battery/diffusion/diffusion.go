// Package diffusion implements the analytical high-level battery model of
// Rakhmatov and Vrudhula ("Energy management for battery powered embedded
// systems", ACM TECS 2003), the diffusion model the paper's scheduling
// guideline 1 is derived from.
//
// The model tracks the "apparent charge consumed"
//
//	sigma(t) = integral_0^t i(tau) dtau
//	         + 2 * sum_{m=1..inf} integral_0^t i(tau) e^{-beta^2 m^2 (t-tau)} dtau
//
// and declares the battery exhausted when sigma(t) reaches the capacity
// parameter alpha. The first term is the charge actually delivered; the
// series term is the charge temporarily unavailable near the electrode, which
// "recovers" (decays) during low-load periods. For piecewise-constant loads
// each series term admits an exact incremental update, so draining is O(#terms)
// per step with no history kept.
package diffusion

import (
	"errors"
	"fmt"
	"math"

	"battsched/internal/battery"
	"battsched/internal/profile"
)

// DefaultTerms is the number of series terms kept by Default. Ten terms keep
// the truncation error far below one part in 1e6 for beta^2 values of
// practical interest.
const DefaultTerms = 10

// Params are the diffusion-model parameters.
type Params struct {
	// AlphaCoulombs is the battery capacity parameter alpha in coulombs: the
	// charge delivered under an infinitesimal load.
	AlphaCoulombs float64
	// BetaSquared is the diffusion rate parameter beta^2 in 1/s. Larger
	// values mean faster recovery (the battery behaves more ideally).
	BetaSquared float64
	// Terms is the number of terms of the infinite series to keep
	// (DefaultTerms when zero).
	Terms int
}

// ErrBadParams is returned by New for invalid parameters.
var ErrBadParams = errors.New("diffusion: invalid parameters")

// Battery is a Rakhmatov–Vrudhula diffusion-model battery.
type Battery struct {
	params Params

	delivered   float64   // integral of i dt (coulombs)
	unavailable []float64 // per-term convolution state A_m(t)
	alive       bool

	// Decay-factor buffer keyed by the step length it was computed for:
	// uniform stepping and the analytic per-segment recurrence both re-apply
	// the same dt repeatedly, so the per-term exp(-beta^2 m^2 dt) factors are
	// recomputed only when dt changes.
	decayDt  float64
	decayBuf []float64
}

// The model registers itself so battery.New("diffusion") and every -battery
// flag resolve it by name.
func init() { battery.Register("diffusion", func() battery.Model { return Default() }) }

// Default returns a diffusion battery calibrated like the paper's 2000 mAh
// AAA NiMH cell: alpha equals the maximum capacity and beta^2 is set so the
// delivered charge at an ampere-scale load is about 80 % of the maximum,
// matching the quoted nominal capacity (~1600 mAh).
func Default() *Battery {
	b, err := New(Params{
		AlphaCoulombs: battery.Coulombs(2000),
		BetaSquared:   4.0e-3,
		Terms:         DefaultTerms,
	})
	if err != nil {
		panic(err) // unreachable: constants are valid
	}
	return b
}

// New returns a fully charged diffusion battery.
func New(p Params) (*Battery, error) {
	if p.AlphaCoulombs <= 0 || p.BetaSquared <= 0 || p.Terms < 0 {
		return nil, fmt.Errorf("%w: %+v", ErrBadParams, p)
	}
	if p.Terms == 0 {
		p.Terms = DefaultTerms
	}
	b := &Battery{params: p, unavailable: make([]float64, p.Terms)}
	b.Reset()
	return b, nil
}

// Name implements battery.Model.
func (b *Battery) Name() string { return "diffusion" }

// Params returns the model parameters.
func (b *Battery) Params() Params { return b.params }

// Reset implements battery.Model.
func (b *Battery) Reset() {
	b.delivered = 0
	for i := range b.unavailable {
		b.unavailable[i] = 0
	}
	b.alive = true
}

// MaxCapacity implements battery.Model.
func (b *Battery) MaxCapacity() float64 { return b.params.AlphaCoulombs }

// DeliveredCharge implements battery.Model.
func (b *Battery) DeliveredCharge() float64 { return b.delivered }

// Sigma returns the current value of the apparent charge consumed sigma(t),
// in coulombs.
func (b *Battery) Sigma() float64 {
	s := b.delivered
	for _, a := range b.unavailable {
		s += 2 * a
	}
	return s
}

// UnavailableCharge returns the charge currently unavailable due to the
// diffusion gradient (the series term of sigma), in coulombs. It decays
// toward zero during rest periods — the recovery effect.
func (b *Battery) UnavailableCharge() float64 {
	var s float64
	for _, a := range b.unavailable {
		s += 2 * a
	}
	return s
}

// decays returns the per-term decay factors exp(-beta^2 m^2 dt), recomputing
// the shared buffer only when dt differs from the previous call.
func (b *Battery) decays(dt float64) []float64 {
	if b.decayBuf == nil {
		b.decayBuf = make([]float64, len(b.unavailable))
		b.decayDt = math.NaN()
	}
	if dt != b.decayDt {
		beta2 := b.params.BetaSquared
		for m := range b.decayBuf {
			k := beta2 * float64(m+1) * float64(m+1)
			b.decayBuf[m] = math.Exp(-k * dt)
		}
		b.decayDt = dt
	}
	return b.decayBuf
}

// stepState advances the per-term state for a constant current i over dt and
// accumulates delivered charge. It does not check for exhaustion.
func (b *Battery) stepState(i, dt float64) {
	beta2 := b.params.BetaSquared
	decay := b.decays(dt)
	for m := range b.unavailable {
		k := beta2 * float64(m+1) * float64(m+1)
		b.unavailable[m] = b.unavailable[m]*decay[m] + i*(1-decay[m])/k
	}
	b.delivered += i * dt
}

// sigmaAfter returns sigma if a constant current i were applied for dt,
// without modifying state.
func (b *Battery) sigmaAfter(i, dt float64) float64 {
	beta2 := b.params.BetaSquared
	decay := b.decays(dt)
	s := b.delivered + i*dt
	for m := range b.unavailable {
		k := beta2 * float64(m+1) * float64(m+1)
		s += 2 * (b.unavailable[m]*decay[m] + i*(1-decay[m])/k)
	}
	return s
}

// Drain implements battery.Model. The per-term exponential recurrence is
// exact for any dt, so Drain and DrainSegment coincide.
func (b *Battery) Drain(current, dt float64) (sustained float64, alive bool) {
	return b.DrainSegment(current, dt)
}

// DrainSegment implements battery.SegmentDrainer: the per-term recurrence is
// applied over the whole segment, and when sigma would reach alpha within it
// the exhaustion instant is located by ExhaustionTime.
func (b *Battery) DrainSegment(current, dt float64) (sustained float64, alive bool) {
	if !b.alive {
		return 0, false
	}
	if dt <= 0 {
		return 0, true
	}
	if current < 0 {
		current = 0
	}
	if b.sigmaAfter(current, dt) < b.params.AlphaCoulombs {
		b.stepState(current, dt)
		return dt, true
	}
	tDeath := b.ExhaustionTime(current)
	if tDeath > dt {
		tDeath = dt
	}
	b.stepState(current, tDeath)
	b.alive = false
	return tDeath, false
}

// ExhaustionTime implements battery.SegmentDrainer: the root of
// sigma(t) = alpha under a constant current, found by Newton iteration on the
// closed form with a bisection safeguard. During rest sigma only decays, so
// the time is +Inf for a zero load.
func (b *Battery) ExhaustionTime(current float64) float64 {
	if !b.alive {
		return 0
	}
	if current < 0 {
		current = 0
	}
	alpha := b.params.AlphaCoulombs
	margin := alpha - b.Sigma()
	if margin <= 0 {
		return 0
	}
	if current == 0 {
		return math.Inf(1)
	}
	beta2 := b.params.BetaSquared
	guess := margin / (current * float64(1+2*len(b.unavailable)))
	return battery.SolveExhaustion(func(t float64) (float64, float64) {
		v := alpha - b.delivered - current*t
		d := -current
		for m := range b.unavailable {
			k := beta2 * float64(m+1) * float64(m+1)
			e := math.Exp(-k * t)
			v -= 2 * (b.unavailable[m]*e + current*(1-e)/k)
			d -= 2 * (current - k*b.unavailable[m]) * e
		}
		return v, d
	}, guess)
}

// RepetitionOperator implements battery.RepetitionTransferer: the per-term
// recurrence is diagonal, so one full repetition of p maps each series term
// to D_m·a_m + o_m, with D_m = e^(−β²m²T), and delivers the profile charge.
// Over j repetitions term m gains Σ_{i<j} Δ_m·D_mⁱ, with Δ_m = o_m − (1−D_m)·a_m
// its first repetition's change: a geometric sum.
func (b *Battery) RepetitionOperator(p *profile.Profile) battery.RepetitionOperator {
	n := len(b.unavailable)
	buf := make([]float64, 3*n)
	op := &repetitionOperator{b: b, x: buf[:n], offset: buf[n : 2*n], step: buf[2*n:]}
	beta2 := b.params.BetaSquared
	var duration float64
	for _, seg := range p.Segments {
		var osum float64
		for m := range op.offset {
			k := beta2 * float64(m+1) * float64(m+1)
			em1 := math.Expm1(-k * seg.Duration) // e − 1
			op.offset[m] = op.offset[m]*(1+em1) - seg.Current*em1/k
			osum += op.offset[m]
		}
		op.charge += seg.Current * seg.Duration
		duration += seg.Duration
		// The apparent charge at this segment boundary, entered with state
		// (a, delivered), is delivered + chargeSoFar + sum 2(E_m a_m + o_m)
		// with E_m <= 1 — so chargeSoFar + 2*sum(o_m) bounds the boundary's
		// sigma increase over sigma at the repetition start.
		if h := op.charge + 2*osum; h > op.headroom {
			op.headroom = h
		}
	}
	for m := range op.x {
		op.x[m] = beta2 * float64(m+1) * float64(m+1) * duration
	}
	return op
}

// repetitionOperator is the diagonal transfer operator of runs of profile
// repetitions on a diffusion battery.
type repetitionOperator struct {
	b      *Battery
	x      []float64 // per-term decay exponent of one repetition: D_m = e^(−x_m)
	offset []float64 // per-term affine offset o_m of one repetition
	step   []float64 // scratch: each term's first-repetition change Δ_m
	charge float64   // delivered charge per repetition
	// headroom conservatively bounds the within-repetition increase of sigma
	// over its value at the repetition start (max over segment boundaries).
	headroom float64
}

// Advance implements battery.RepetitionOperator. Sigma at every segment
// boundary of repetition j is bounded by sigma at its start plus the
// precomputed headroom, so staying below alpha proves survival. A term below
// its fixed point (Δ_m ≥ 0) rises toward it with j; a term above it falls,
// so its start value bounds it. With those terms held at their start the
// bound on sigma, delivered + j·charge + 2·Σ a_m(j), never decreases in j,
// and its admissible set is a prefix.
func (o *repetitionOperator) Advance(max int) int {
	b := o.b
	if !b.alive {
		return 0
	}
	sigma0 := b.Sigma()
	for m, a := range b.unavailable {
		o.step[m] = o.offset[m] + math.Expm1(-o.x[m])*a
	}
	k := battery.SearchPrefix(max, func(j int) bool {
		fj := float64(j)
		s := sigma0 + fj*o.charge
		for m, d := range o.step {
			if d > 0 {
				s += 2 * battery.GeomSum(d, o.x[m], fj)
			}
		}
		return s+o.headroom < b.params.AlphaCoulombs
	})
	if k > 0 {
		fk := float64(k)
		for m, d := range o.step {
			b.unavailable[m] += battery.GeomSum(d, o.x[m], fk)
		}
		b.delivered += fk * o.charge
	}
	return k
}

// String implements fmt.Stringer.
func (b *Battery) String() string {
	return fmt.Sprintf("Diffusion(alpha=%.0fmAh beta2=%.2g/s sigma=%.0fmAh delivered=%.0fmAh)",
		battery.MAh(b.params.AlphaCoulombs), b.params.BetaSquared, battery.MAh(b.Sigma()), battery.MAh(b.delivered))
}

// compile-time interface checks
var (
	_ battery.Model                = (*Battery)(nil)
	_ battery.SegmentDrainer       = (*Battery)(nil)
	_ battery.RepetitionTransferer = (*Battery)(nil)
)
