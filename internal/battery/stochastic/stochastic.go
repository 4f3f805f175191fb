// Package stochastic implements a discrete-time stochastic battery model in
// the style used by the paper's authors for their evaluation (Rao, Singhal,
// Kumar, Navet, "Battery model for embedded systems", VLSI Design 2005,
// itself in the Chiasserini/Panigrahi family of stochastic charge-unit
// models).
//
// The battery holds a theoretical capacity T of charge units of which only a
// nominal fraction N is directly available; the rest is bound. Time is
// divided into slots. In a slot the load demands charge with probability
// proportional to the ratio of the load current to a reference maximum
// current; slots without demand are idle slots, during which one charge unit
// is recovered from the bound store with a probability that decays
// exponentially with the depth of discharge. The battery is exhausted when
// the available store is empty. Under an infinitesimal load nearly the whole
// theoretical capacity is delivered (the paper's "maximum capacity"); under
// heavy continuous loads only the nominal store is delivered — the
// rate-capacity effect the scheduling guidelines exploit.
//
// The model is evaluated in expected-value mode, as in the paper's
// experiments: charge flows use the slot-level expected values, which makes
// runs deterministic and O(1) per Drain call. It also implements
// battery.SegmentDrainer and battery.RepetitionTransferer, so
// battery.SimulateUntilExhausted advances it whole constant-current
// segments, and whole runs of profile repetitions, at a time. The key
// identity: the expected-value recursion at step h has deterministic depth
// of discharge (delivered charge grows by the demand regardless of
// recovery), so recovery decays geometrically — per step within a
// constant-current segment, and per repetition across repetitions of a
// profile — and its partial sums have closed forms. A segment collapses to
// O(1) arithmetic plus exact per-step updates where a branch (recovery
// clamped by the bound store, or exhaustion) is near; a run of repetitions
// collapses to O(1). Params.ExpectedStep selects the reproduced step
// resolution.
package stochastic

import (
	"errors"
	"fmt"
	"math"

	"battsched/internal/battery"
)

// Params configure the stochastic battery model.
type Params struct {
	// MaxCoulombs is the theoretical (maximum) capacity T in coulombs — the
	// charge delivered under an infinitesimal load.
	MaxCoulombs float64
	// NominalCoulombs is the directly available (nominal) capacity N in
	// coulombs, 0 < NominalCoulombs <= MaxCoulombs.
	NominalCoulombs float64
	// MaxCurrent is the reference current (amperes) at which every slot is a
	// demand slot and no recovery occurs.
	MaxCurrent float64
	// RecoveryProb is the base probability of recovering one charge unit in
	// an idle slot when the battery is fully charged.
	RecoveryProb float64
	// RecoveryDecay is the exponential decay rate of the recovery probability
	// with the depth of discharge (fraction of MaxCoulombs already consumed).
	RecoveryDecay float64
	// ExpectedStep is the time resolution, in seconds, of the expected-value
	// recursion that the analytic segment fast path reproduces (in closed
	// form, so the cost per segment is independent of the resolution). Zero
	// selects 1 s — the substep of the historical uniform-stepping driver, so
	// default fast-path results track the pre-fast-path numbers to rounding
	// error. SlotDuration gives slot-exact expected-value evaluation. Must be
	// at most 10 s (the expected-value chunk bound).
	ExpectedStep float64
}

// SlotDuration is the length of one time slot in seconds. A charge unit is
// the charge MaxCurrent delivers in one slot, so the slot length cancels out
// of every expected-value flow; ExpectedStep = SlotDuration reproduces the
// slot-by-slot recursion.
const SlotDuration = 0.01

// ErrBadParams is returned by New for invalid parameters.
var ErrBadParams = errors.New("stochastic: invalid parameters")

// Battery is a stochastic charge-unit battery.
type Battery struct {
	params Params
	estep  float64 // resolved ExpectedStep (1 s when the param is zero)

	available float64 // coulombs directly available
	bound     float64 // coulombs bound (recoverable)
	delivered float64 // coulombs delivered since Reset
	alive     bool
}

// The model registers itself so battery.New("stochastic") and every -battery
// flag resolve it by name.
func init() { battery.Register("stochastic", func() battery.Model { return Default() }) }

// Default returns the model calibrated like the paper's cell: a 1.2 V AAA
// NiMH battery with 2000 mAh maximum and roughly 1600 mAh nominal capacity,
// evaluated in deterministic expected-value mode.
func Default() *Battery {
	b, err := New(Params{
		MaxCoulombs:     battery.Coulombs(2000),
		NominalCoulombs: battery.Coulombs(1580),
		MaxCurrent:      2.5,
		RecoveryProb:    0.05,
		RecoveryDecay:   2.5,
	})
	if err != nil {
		panic(err) // unreachable: constants are valid
	}
	return b
}

// New returns a fully charged stochastic battery.
func New(p Params) (*Battery, error) {
	if p.MaxCoulombs <= 0 || p.NominalCoulombs <= 0 || p.NominalCoulombs > p.MaxCoulombs ||
		p.MaxCurrent <= 0 || p.RecoveryProb < 0 || p.RecoveryProb > 1 ||
		p.RecoveryDecay < 0 || p.ExpectedStep < 0 || p.ExpectedStep > expectedChunk {
		return nil, fmt.Errorf("%w: %+v", ErrBadParams, p)
	}
	b := &Battery{params: p, estep: p.ExpectedStep}
	if b.estep == 0 {
		b.estep = 1
	}
	b.Reset()
	return b, nil
}

// Name implements battery.Model.
func (b *Battery) Name() string { return "stochastic" }

// Params returns the model parameters.
func (b *Battery) Params() Params { return b.params }

// Reset implements battery.Model.
func (b *Battery) Reset() {
	b.available = b.params.NominalCoulombs
	b.bound = b.params.MaxCoulombs - b.params.NominalCoulombs
	b.delivered = 0
	b.alive = true
}

// MaxCapacity implements battery.Model.
func (b *Battery) MaxCapacity() float64 { return b.params.MaxCoulombs }

// DeliveredCharge implements battery.Model.
func (b *Battery) DeliveredCharge() float64 { return b.delivered }

// AvailableCharge returns the directly available charge in coulombs.
func (b *Battery) AvailableCharge() float64 { return math.Max(b.available, 0) }

// BoundCharge returns the bound (recoverable) charge in coulombs.
func (b *Battery) BoundCharge() float64 { return math.Max(b.bound, 0) }

// recoveryProbability returns the per-idle-slot probability of recovering one
// charge unit at the current depth of discharge.
func (b *Battery) recoveryProbability() float64 {
	dod := b.delivered / b.params.MaxCoulombs
	if dod < 0 {
		dod = 0
	}
	p := b.params.RecoveryProb * math.Exp(-b.params.RecoveryDecay*dod)
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// Drain implements battery.Model.
func (b *Battery) Drain(current, dt float64) (sustained float64, alive bool) {
	if !b.alive {
		return 0, false
	}
	if dt <= 0 {
		return 0, true
	}
	if current < 0 {
		current = 0
	}
	return b.drainExpected(current, dt)
}

// expectedChunk is the largest interval drainExpected treats as one
// expected-value step (and therefore the largest Params.ExpectedStep).
const expectedChunk = 10.0 // seconds

// drainExpected advances the model using slot-level expected values; it
// processes the whole interval analytically in bounded-size chunks so the
// depth-of-discharge dependence of the recovery probability stays accurate.
func (b *Battery) drainExpected(current, dt float64) (sustained float64, alive bool) {
	t := 0.0
	for t < dt {
		h := math.Min(expectedChunk, dt-t)
		demandFrac := math.Min(current/b.params.MaxCurrent, 1)
		idleFrac := 1 - demandFrac
		// Expected recovery over h seconds: one unit per idle slot with
		// probability p, i.e. p*idleFrac*unit/slot coulombs per second.
		recRate := b.recoveryProbability() * idleFrac * b.params.MaxCurrent
		rec := math.Min(recRate*h, b.bound)
		demand := current * h
		if demand <= b.available+rec {
			b.available += rec - demand
			b.bound -= rec
			b.delivered += demand
			t += h
			continue
		}
		// Exhaustion inside this chunk: find the sustainable fraction.
		// available + (recRate - current)*x = 0  =>  x = available/(current-recRate)
		drainRate := current - math.Min(recRate, b.bound/h)
		var x float64
		if drainRate <= 0 {
			x = h
		} else {
			x = b.available / drainRate
		}
		if x > h {
			x = h
		}
		recX := math.Min(recRate*x, b.bound)
		b.delivered += current * x
		b.bound -= recX
		b.available += recX - current*x
		if b.available < 1e-9 {
			b.available = 0
			b.alive = false
			return t + x, false
		}
		t += x
	}
	return dt, true
}

// String implements fmt.Stringer.
func (b *Battery) String() string {
	return fmt.Sprintf("Stochastic(expected max=%.0fmAh nom=%.0fmAh avail=%.0fmAh bound=%.0fmAh)",
		battery.MAh(b.params.MaxCoulombs), battery.MAh(b.params.NominalCoulombs),
		battery.MAh(b.AvailableCharge()), battery.MAh(b.BoundCharge()))
}

// compile-time interface check
var _ battery.Model = (*Battery)(nil)
