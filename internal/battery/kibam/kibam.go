// Package kibam implements the Kinetic Battery Model (KiBaM) of Manwell and
// McGowan, the two-well model the paper uses to explain its scheduling
// guidelines: an available-charge well that feeds the load directly and a
// bound-charge well that replenishes the available well at a rate
// proportional to the difference in well heights (the "recovery effect").
// The battery is exhausted when the available-charge well is empty even
// though charge may remain in the bound well.
package kibam

import (
	"errors"
	"fmt"
	"math"

	"battsched/internal/battery"
	"battsched/internal/profile"
)

// Params are the KiBaM parameters.
type Params struct {
	// CapacityCoulombs is the total (theoretical maximum) charge of the
	// battery in coulombs: the charge delivered under an infinitesimal load.
	CapacityCoulombs float64
	// C is the fraction of the total capacity held in the available-charge
	// well, in (0, 1).
	C float64
	// K is the rate constant governing charge flow between the wells, in 1/s.
	K float64
}

// Errors returned by New.
var ErrBadParams = errors.New("kibam: invalid parameters")

// Battery is a KiBaM battery instance. The zero value is not usable; use New
// or Default.
type Battery struct {
	params Params
	kp     float64 // k' = K / (C * (1-C))

	y1        float64 // available charge (coulombs)
	y2        float64 // bound charge (coulombs)
	delivered float64 // coulombs delivered since Reset
	alive     bool
}

// The model registers itself so battery.New("kibam") and every -battery flag
// resolve it by name.
func init() { battery.Register("kibam", func() battery.Model { return Default() }) }

// Default returns a KiBaM battery calibrated for the paper's cell: a 1.2 V
// AAA NiMH battery with a maximum capacity of 2000 mAh. The well split and
// rate constant are chosen so that the nominal (≈1 A rate) delivered capacity
// is about 1600 mAh, matching the nominal capacity quoted in the paper.
func Default() *Battery {
	b, err := New(Params{
		CapacityCoulombs: battery.Coulombs(2000), // 7200 C
		C:                0.5,
		K:                2.2e-4,
	})
	if err != nil {
		panic(err) // unreachable: constants are valid
	}
	return b
}

// New returns a KiBaM battery with the given parameters, fully charged.
func New(p Params) (*Battery, error) {
	if p.CapacityCoulombs <= 0 || p.C <= 0 || p.C >= 1 || p.K <= 0 {
		return nil, fmt.Errorf("%w: %+v", ErrBadParams, p)
	}
	b := &Battery{params: p, kp: p.K / (p.C * (1 - p.C))}
	b.Reset()
	return b, nil
}

// Name implements battery.Model.
func (b *Battery) Name() string { return "kibam" }

// Reset implements battery.Model.
func (b *Battery) Reset() {
	b.y1 = b.params.C * b.params.CapacityCoulombs
	b.y2 = (1 - b.params.C) * b.params.CapacityCoulombs
	b.delivered = 0
	b.alive = true
}

// MaxCapacity implements battery.Model.
func (b *Battery) MaxCapacity() float64 { return b.params.CapacityCoulombs }

// DeliveredCharge implements battery.Model.
func (b *Battery) DeliveredCharge() float64 { return b.delivered }

// AvailableCharge returns the charge currently in the available well, in
// coulombs.
func (b *Battery) AvailableCharge() float64 { return math.Max(b.y1, 0) }

// BoundCharge returns the charge currently in the bound well, in coulombs.
func (b *Battery) BoundCharge() float64 { return math.Max(b.y2, 0) }

// solveConst evaluates the closed-form KiBaM solution after drawing a
// constant current i for time t starting from the current state, without
// modifying the state.
func (b *Battery) solveConst(i, t float64) (y1, y2 float64) {
	kp := b.kp
	c := b.params.C
	y10, y20 := b.y1, b.y2
	y0 := y10 + y20
	e := math.Exp(-kp * t)
	r := (kp*t - 1 + e) / kp
	y1 = y10*e + (y0*kp*c-i)*(1-e)/kp - i*c*r
	y2 = y20*e + y0*(1-c)*(1-e) - i*(1-c)*r
	return y1, y2
}

// Drain implements battery.Model. The closed-form solution is exact for any
// dt, so Drain and DrainSegment coincide.
func (b *Battery) Drain(current, dt float64) (sustained float64, alive bool) {
	return b.DrainSegment(current, dt)
}

// DrainSegment implements battery.SegmentDrainer: it applies the closed-form
// constant-current solution over the whole segment; if the available well
// would empty during the interval, the exhaustion instant is located by
// ExhaustionTime and only the sustained portion is applied.
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
	y1, y2 := b.solveConst(current, dt)
	if y1 > 0 {
		b.y1, b.y2 = y1, y2
		b.delivered += current * dt
		return dt, true
	}
	tDeath := b.ExhaustionTime(current)
	if tDeath > dt {
		tDeath = dt
	}
	y1, y2 = b.solveConst(current, tDeath)
	b.y1, b.y2 = math.Max(y1, 0), math.Max(y2, 0)
	b.delivered += current * tDeath
	b.alive = false
	return tDeath, false
}

// ExhaustionTime returns the time until exhaustion if the given constant
// current were applied from the current state, +Inf when the model never
// exhausts under it and 0 when already dead, without modifying the state;
// DrainSegment locates the death instant with it. It is the root of
// y1(t) = 0, found by Newton iteration on the closed form with a bisection
// safeguard.
func (b *Battery) ExhaustionTime(current float64) float64 {
	if !b.alive {
		return 0
	}
	if current <= 0 {
		// Rest only moves charge between the wells; the available well never
		// empties.
		return math.Inf(1)
	}
	if b.y1 <= 0 {
		return 0
	}
	kp, c := b.kp, b.params.C
	y10, y20 := b.y1, b.y2
	y0 := y10 + y20
	return battery.SolveExhaustion(func(t float64) (float64, float64) {
		e := math.Exp(-kp * t)
		r := (kp*t - 1 + e) / kp
		y1 := y10*e + (y0*kp*c-current)*(1-e)/kp - current*c*r
		d := -kp*e*y10 + (y0*kp*c-current)*e - current*c*(1-e)
		return y1, d
	}, y10/current)
}

// RepetitionOperator implements battery.RepetitionTransferer. In the
// coordinates S = y1 + y2 (total charge) and δ = (1−c)·y1 − c·y2 (the well
// height difference, scaled) the KiBaM equations decouple: dS/dt = −i and
// dδ/dt = −(1−c)·i − k′·δ. So one repetition of p maps S → S − charge and
// δ → E·δ + dδ with E = e^(−k′T), and k repetitions map δ to
// Eᵏ·δ + dδ·(1−Eᵏ)/(1−E), a geometric sum.
func (b *Battery) RepetitionOperator(p *profile.Profile) battery.RepetitionOperator {
	op := &repetitionOperator{b: b}
	kp, c := b.kp, b.params.C
	var duration float64
	for _, seg := range p.Segments {
		em1 := math.Expm1(-kp * seg.Duration) // e − 1
		op.dDelta = op.dDelta*(1+em1) + (1-c)*seg.Current*em1/kp
		op.charge += seg.Current * seg.Duration
		duration += seg.Duration
		if seg.Current > op.peak {
			op.peak = seg.Current
		}
	}
	op.x = kp * duration
	op.e = math.Exp(-op.x)
	// Draining the peak current for the whole repetition maps S to
	// S − peak·T and δ to E·δ − (1−c)·peak·(1−E)/k′.
	op.peakLoss = op.peak * (c*duration - (1-c)*math.Expm1(-op.x)/kp)
	return op
}

// repetitionOperator is the transfer operator of runs of profile
// repetitions on a KiBaM battery, in the decoupled (S, δ) coordinates.
type repetitionOperator struct {
	b      *Battery
	charge float64 // charge delivered per repetition: the drop of S
	dDelta float64 // δ offset of one repetition
	x, e   float64 // k′T and E = e^(−k′T), the δ decay of one repetition
	// Conservative survival check: the profile's peak current and the drop
	// of y1 = c·S + δ below c·S + E·δ when it is drained for a whole
	// repetition.
	peak, peakLoss float64
}

// Advance implements battery.RepetitionOperator. Repetition j passes the
// check when the available charge after draining the constant peak current
// for the whole repetition from its start state, c·S_j + E·δ_j − peakLoss,
// is positive: a heavier load at every instant drains the available well
// faster, so this lower-bounds the true trajectory. With S_j = S − j·charge
// and δ_j = Eʲ·δ + dδ·(1−Eʲ)/(1−E) the margin is α − c·charge·j + γ·Eʲ for
// constants α and γ: decreasing when γ ≥ 0 and concave when γ < 0, so the
// admissible set, which must contain j = 0, is a prefix.
func (o *repetitionOperator) Advance(max int) int {
	b := o.b
	if !b.alive {
		return 0
	}
	c := b.params.C
	s0 := b.y1 + b.y2
	d0 := (1-c)*b.y1 - c*b.y2
	delta := func(j float64) float64 {
		return math.Exp(-o.x*j)*d0 + battery.GeomSum(o.dDelta, o.x, j)
	}
	k := battery.SearchPrefix(max, func(j int) bool {
		fj := float64(j)
		return c*(s0-fj*o.charge)+o.e*delta(fj)-o.peakLoss > 0
	})
	if k > 0 {
		fk := float64(k)
		s, d := s0-fk*o.charge, delta(fk)
		b.y1 = c*s + d
		b.y2 = (1-c)*s - d
		b.delivered += fk * o.charge
	}
	return k
}

// String implements fmt.Stringer.
func (b *Battery) String() string {
	return fmt.Sprintf("KiBaM(cap=%.0fmAh c=%.2f k=%.2g avail=%.0fmAh bound=%.0fmAh)",
		battery.MAh(b.params.CapacityCoulombs), b.params.C, b.params.K,
		battery.MAh(b.AvailableCharge()), battery.MAh(b.BoundCharge()))
}

// compile-time interface checks
var (
	_ battery.Model                = (*Battery)(nil)
	_ battery.SegmentDrainer       = (*Battery)(nil)
	_ battery.RepetitionTransferer = (*Battery)(nil)
)
