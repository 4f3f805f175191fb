// Package peukert implements a battery model based on Peukert's law, the
// simple empirical rate-capacity relation used by early battery-aware
// scheduling work ([7] in the paper). It captures the loss of deliverable
// capacity at high discharge rates but, unlike KiBaM and the diffusion model,
// has no recovery effect: it therefore serves as a baseline comparator in the
// battery-model cross-checks.
//
// Under a constant current I the deliverable capacity is
//
//	C(I) = C_ref * (I_ref / I)^(k-1)
//
// with k >= 1 the Peukert exponent. For time-varying loads the model
// integrates the rate-weighted consumption (I/I_ref)^(k-1) * I dt and declares
// the battery exhausted when it reaches C_ref. The delivered charge is capped
// at the theoretical maximum capacity so that arbitrarily small loads cannot
// extract more charge than the cell contains.
package peukert

import (
	"errors"
	"fmt"
	"math"

	"battsched/internal/battery"
	"battsched/internal/profile"
)

// Params configure the Peukert model.
type Params struct {
	// ReferenceCapacityCoulombs is the capacity C_ref delivered at the
	// reference current, in coulombs.
	ReferenceCapacityCoulombs float64
	// MaxCoulombs is the theoretical maximum capacity (cap on delivered
	// charge at vanishing loads), in coulombs.
	MaxCoulombs float64
	// ReferenceCurrent is I_ref in amperes.
	ReferenceCurrent float64
	// Exponent is the Peukert exponent k (>= 1; 1 means an ideal battery up
	// to MaxCoulombs).
	Exponent float64
}

// ErrBadParams is returned by New for invalid parameters.
var ErrBadParams = errors.New("peukert: invalid parameters")

// Battery is a Peukert's-law battery.
type Battery struct {
	params    Params
	weighted  float64 // rate-weighted consumption in coulombs
	delivered float64 // actual delivered charge in coulombs
	alive     bool
}

// The model registers itself so battery.New("peukert") and every -battery
// flag resolve it by name.
func init() { battery.Register("peukert", func() battery.Model { return Default() }) }

// Default returns a Peukert battery calibrated like the paper's cell:
// 1600 mAh nominal at a 1 A reference current, 2000 mAh maximum, exponent 1.15
// (typical for NiMH chemistry).
func Default() *Battery {
	b, err := New(Params{
		ReferenceCapacityCoulombs: battery.Coulombs(1600),
		MaxCoulombs:               battery.Coulombs(2000),
		ReferenceCurrent:          1.0,
		Exponent:                  1.15,
	})
	if err != nil {
		panic(err) // unreachable: constants are valid
	}
	return b
}

// New returns a fully charged Peukert battery.
func New(p Params) (*Battery, error) {
	if p.ReferenceCapacityCoulombs <= 0 || p.MaxCoulombs < p.ReferenceCapacityCoulombs ||
		p.ReferenceCurrent <= 0 || p.Exponent < 1 {
		return nil, fmt.Errorf("%w: %+v", ErrBadParams, p)
	}
	b := &Battery{params: p}
	b.Reset()
	return b, nil
}

// Name implements battery.Model.
func (b *Battery) Name() string { return "peukert" }

// Params returns the model parameters.
func (b *Battery) Params() Params { return b.params }

// Reset implements battery.Model.
func (b *Battery) Reset() {
	b.weighted = 0
	b.delivered = 0
	b.alive = true
}

// MaxCapacity implements battery.Model.
func (b *Battery) MaxCapacity() float64 { return b.params.MaxCoulombs }

// DeliveredCharge implements battery.Model.
func (b *Battery) DeliveredCharge() float64 { return b.delivered }

// weightRate returns the rate-weighted consumption rate (I/I_ref)^(k-1) * I
// of a constant current, in coulombs per second against the C_ref budget.
func (b *Battery) weightRate(current float64) float64 {
	if current <= 0 {
		return 0
	}
	return math.Pow(current/b.params.ReferenceCurrent, b.params.Exponent-1) * current
}

// Drain implements battery.Model. The consumption integrals are linear in
// time under a constant current, so Drain and DrainSegment coincide.
func (b *Battery) Drain(current, dt float64) (sustained float64, alive bool) {
	return b.DrainSegment(current, dt)
}

// DrainSegment implements battery.SegmentDrainer.
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
	tDeath := b.ExhaustionTime(current)
	if tDeath > dt {
		b.weighted += b.weightRate(current) * dt
		b.delivered += current * dt
		return dt, true
	}
	b.weighted += b.weightRate(current) * tDeath
	b.delivered += current * tDeath
	b.alive = false
	return tDeath, false
}

// ExhaustionTime implements battery.SegmentDrainer: the model has no
// recovery, so the time until either the rate-weighted budget or the
// absolute maximum capacity is exhausted is available in closed form.
func (b *Battery) ExhaustionTime(current float64) float64 {
	if !b.alive {
		return 0
	}
	if current <= 0 {
		return math.Inf(1)
	}
	tWeighted := math.Inf(1)
	if wr := b.weightRate(current); wr > 0 {
		tWeighted = (b.params.ReferenceCapacityCoulombs - b.weighted) / wr
	}
	tAbsolute := (b.params.MaxCoulombs - b.delivered) / current
	tDeath := math.Min(tWeighted, tAbsolute)
	if tDeath < 0 {
		return 0
	}
	return tDeath
}

// RepetitionOperator implements battery.RepetitionTransferer: one repetition
// simply adds the profile's rate-weighted and absolute charge to the two
// budgets, so j repetitions add j times as much.
func (b *Battery) RepetitionOperator(p *profile.Profile) battery.RepetitionOperator {
	op := &repetitionOperator{b: b}
	for _, seg := range p.Segments {
		op.weighted += b.weightRate(seg.Current) * seg.Duration
		op.charge += seg.Current * seg.Duration
	}
	return op
}

// repetitionOperator is the transfer operator of runs of profile repetitions
// on a Peukert battery: both consumption budgets advance by a precomputed
// amount per repetition.
type repetitionOperator struct {
	b                *Battery
	weighted, charge float64
}

// Advance implements battery.RepetitionOperator. Both budgets are
// nondecreasing within a repetition, so repetition j survives exactly when
// both stay below their capacities at its end; both are linear in j, so the
// admissible set is a prefix.
func (o *repetitionOperator) Advance(max int) int {
	b := o.b
	if !b.alive {
		return 0
	}
	k := battery.SearchPrefix(max, func(j int) bool {
		fj := float64(j + 1)
		return b.weighted+fj*o.weighted < b.params.ReferenceCapacityCoulombs &&
			b.delivered+fj*o.charge < b.params.MaxCoulombs
	})
	b.weighted += float64(k) * o.weighted
	b.delivered += float64(k) * o.charge
	return k
}

// String implements fmt.Stringer.
func (b *Battery) String() string {
	return fmt.Sprintf("Peukert(k=%.2f Cref=%.0fmAh max=%.0fmAh delivered=%.0fmAh)",
		b.params.Exponent, battery.MAh(b.params.ReferenceCapacityCoulombs),
		battery.MAh(b.params.MaxCoulombs), battery.MAh(b.delivered))
}

// compile-time interface checks
var (
	_ battery.Model                = (*Battery)(nil)
	_ battery.SegmentDrainer       = (*Battery)(nil)
	_ battery.RepetitionTransferer = (*Battery)(nil)
)
