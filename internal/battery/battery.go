// Package battery defines the common interface implemented by all battery
// models (KiBaM, diffusion, stochastic, Peukert) and the simulation driver
// that plays a load-current profile against a model until the battery is
// exhausted, reporting lifetime and delivered charge — the two quantities of
// the paper's Table 2.
package battery

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"battsched/internal/obs"
	"battsched/internal/profile"
)

// Model is a battery whose internal state evolves under a piecewise-constant
// load current. Implementations are not safe for concurrent use.
type Model interface {
	// Name returns a short identifier ("kibam", "diffusion", ...).
	Name() string
	// Reset restores the fully-charged initial state.
	Reset()
	// Drain applies a constant load of `current` amperes for `dt` seconds.
	// It returns the time actually sustained before exhaustion (== dt when
	// the battery survives the whole interval) and whether the battery is
	// still alive afterwards.
	Drain(current, dt float64) (sustained float64, alive bool)
	// MaxCapacity returns the theoretical maximum extractable charge in
	// coulombs (the charge delivered under an infinitesimal load).
	MaxCapacity() float64
	// DeliveredCharge returns the charge delivered since the last Reset, in
	// coulombs.
	DeliveredCharge() float64
}

// SegmentDrainer is the optional analytic fast-path interface: models whose
// state admits an exact closed-form update under a constant current implement
// it, and SimulateUntilExhausted then advances them one whole profile segment
// at a time instead of subdividing segments into MaxStep substeps.
type SegmentDrainer interface {
	Model
	// DrainSegment advances the state exactly over a whole constant-current
	// segment of length dt, with the same contract as Drain: it returns the
	// time sustained (== dt when the battery survives) and liveness.
	DrainSegment(current, dt float64) (sustained float64, alive bool)
	// ExhaustionTime returns the time until exhaustion if the given constant
	// current were applied from the current state, +Inf when the model never
	// exhausts under it (e.g. a zero load) and 0 when already dead. It does
	// not modify the state.
	ExhaustionTime(current float64) float64
}

// RepetitionOperator advances a model by runs of whole repetitions of a
// fixed profile. Each model's repetition map has a closed k-fold power, so a
// run of any length costs O(state); the operator is built once per
// simulation.
type RepetitionOperator interface {
	// Advance applies the largest k ≤ max whole repetitions that each pass
	// the model's conservative survival check at their start, and returns k.
	// The check may reject a survivable repetition (the driver then falls
	// back to segment stepping) but never admits a fatal one, so Advance
	// never applies a fatal repetition. It may stop early.
	Advance(max int) int
}

// RepetitionTransferer is implemented by SegmentDrainers that can precompute
// the transfer operator of runs of whole repetitions of a profile.
type RepetitionTransferer interface {
	SegmentDrainer
	// RepetitionOperator builds the operator for repetitions of p on this
	// model instance.
	RepetitionOperator(p *profile.Profile) RepetitionOperator
}

// SearchPrefix returns the largest k in [0, n] with ok(j) for every j < k,
// given that the j in [0, n) where ok holds form a prefix. It checks ok(0)
// first, so a rejected first repetition costs one check, and bisects the
// rest, so a run of any length costs O(log n) checks. The repetition
// operators search their closed-form survival checks with it.
func SearchPrefix(n int, ok func(j int) bool) int {
	if n <= 0 || !ok(0) {
		return 0
	}
	return 1 + sort.Search(n-1, func(j int) bool { return !ok(j + 1) })
}

// GeomSum returns Σ_{m=0}^{k-1} a·e^(−x·m), the sum of k terms of a
// geometric sequence with start a and ratio e^(−x), as a ratio of expm1s,
// which keeps full precision when x is tiny (1−e^(−x) would cancel).
func GeomSum(a, x, k float64) float64 {
	if x == 0 {
		return a * k
	}
	return a * math.Expm1(-x*k) / math.Expm1(-x)
}

// analyticDrainer returns the analytic fast-path view of m: every
// SegmentDrainer takes it unless a positive MaxStep forces the stepped path.
func analyticDrainer(m Model, maxStep float64) (SegmentDrainer, bool) {
	if maxStep > 0 {
		return nil, false
	}
	sd, ok := m.(SegmentDrainer)
	return sd, ok
}

// Coulombs per milliampere-hour.
const CoulombsPerMAh = 3.6

// MAh converts coulombs to milliampere-hours.
func MAh(coulombs float64) float64 { return coulombs / CoulombsPerMAh }

// Coulombs converts milliampere-hours to coulombs.
func Coulombs(mAh float64) float64 { return mAh * CoulombsPerMAh }

// Result summarises a lifetime simulation.
type Result struct {
	// Lifetime is the time until battery exhaustion, in seconds.
	Lifetime float64
	// DeliveredCharge is the charge extracted before exhaustion, in coulombs.
	DeliveredCharge float64
	// Exhausted reports whether the battery actually died (false when the
	// simulation hit its horizon first).
	Exhausted bool
	// Repetitions is the number of complete profile repetitions sustained.
	Repetitions int
}

// LifetimeMinutes returns the lifetime in minutes (the unit of Table 2).
func (r Result) LifetimeMinutes() float64 { return r.Lifetime / 60 }

// DeliveredMAh returns the delivered charge in mAh (the unit of Table 2).
func (r Result) DeliveredMAh() float64 { return MAh(r.DeliveredCharge) }

// String implements fmt.Stringer.
func (r Result) String() string {
	return fmt.Sprintf("Result(lifetime=%.1fmin delivered=%.0fmAh exhausted=%v)",
		r.LifetimeMinutes(), r.DeliveredMAh(), r.Exhausted)
}

// Errors returned by the simulation driver.
var (
	ErrNilModel   = errors.New("battery: nil model")
	ErrBadProfile = errors.New("battery: invalid profile")
	ErrBadHorizon = errors.New("battery: horizon must be positive")
	ErrNoProgress = errors.New("battery: model under-sustained a step it survived")
)

// SimulateOptions tunes SimulateUntilExhausted.
type SimulateOptions struct {
	// MaxTime is the simulation horizon in seconds; the run stops there even
	// if the battery is still alive. Defaults to 48 hours.
	MaxTime float64
	// MaxStep selects the simulation path. Zero (the default) dispatches on
	// the model: models implementing SegmentDrainer, which every registered
	// model does, take the analytic path (whole constant-current segments,
	// closed-form runs of repetitions, root-finding for the exhaustion
	// instant); any other model takes the stepped path with a 1 s substep.
	// A positive value forces the stepped path with that substep for every
	// model — the reference the accuracy tests compare the analytic path
	// against.
	MaxStep float64
}

func (o *SimulateOptions) setDefaults() {
	if o.MaxTime <= 0 {
		o.MaxTime = 48 * 3600
	}
}

// SimulateUntilExhausted plays the profile periodically (repeating it
// back-to-back) against the model until the battery is exhausted or the
// horizon is reached. The model is Reset before the run.
//
// Models implementing SegmentDrainer are simulated analytically unless
// MaxStep forces the stepped path: each constant-current segment is applied
// exactly in one closed-form update, and when the model also implements
// RepetitionTransferer each run of whole repetitions that the operator's
// conservative check proves survivable is applied in one closed-form call
// (thousands of repetitions per lifetime in O(state) each), falling back to
// segment stepping only around the horizon and the exhaustion repetition.
func SimulateUntilExhausted(m Model, p *profile.Profile, opts SimulateOptions) (Result, error) {
	if m == nil {
		return Result{}, ErrNilModel
	}
	if err := p.Validate(); err != nil {
		return Result{}, fmt.Errorf("%w: %v", ErrBadProfile, err)
	}
	opts.setDefaults()
	return simulate(m, p, opts)
}

// simulate runs one model against an already validated profile with
// defaulted options, on the analytic path when analyticDrainer selects it
// and on the stepped path otherwise.
func simulate(m Model, p *profile.Profile, opts SimulateOptions) (Result, error) {
	if sd, ok := analyticDrainer(m, opts.MaxStep); ok {
		obs.Sim.BatteryAnalytic.Add(1)
		return simulateAnalytic(sd, p, opts)
	}
	if opts.MaxStep <= 0 {
		opts.MaxStep = 1.0
	}
	obs.Sim.BatteryStepped.Add(1)
	return simulateStepped(m, p, opts)
}

// simulateAnalytic drives a SegmentDrainer: runs of whole repetitions through
// the transfer operator while its conservative survival check holds, whole
// segments otherwise, with the exhaustion instant located by the model's
// closed-form root-finding inside the final segment.
func simulateAnalytic(m SegmentDrainer, p *profile.Profile, opts SimulateOptions) (Result, error) {
	m.Reset()
	var res Result
	t := 0.0
	period := p.Duration()
	var op RepetitionOperator
	if rt, ok := m.(RepetitionTransferer); ok {
		op = rt.RepetitionOperator(p)
	}
	for t < opts.MaxTime {
		if op != nil {
			if k := op.Advance(repetitionsLeft(t, period, opts.MaxTime)); k > 0 {
				t += float64(k) * period
				res.Repetitions += k
				continue
			}
		}
		completed := true
		for _, seg := range p.Segments {
			dt := seg.Duration
			if t+dt > opts.MaxTime {
				dt = opts.MaxTime - t
				completed = false
				if dt <= 0 {
					break
				}
			}
			sustained, alive := m.DrainSegment(seg.Current, dt)
			t += sustained
			if !alive {
				res.Lifetime = t
				res.DeliveredCharge = m.DeliveredCharge()
				res.Exhausted = true
				return res, nil
			}
			// The analytic contract is exact whole-segment advance: a
			// surviving DrainSegment must sustain the full dt, or profile
			// time and battery time drift apart (and a zero sustain would
			// loop forever).
			if sustained < dt {
				return res, fmt.Errorf("%w: %s sustained %v of a %v s segment", ErrNoProgress, m.Name(), sustained, dt)
			}
			if !completed {
				break
			}
		}
		if !completed {
			break
		}
		res.Repetitions++
	}
	res.Lifetime = t
	res.DeliveredCharge = m.DeliveredCharge()
	return res, nil
}

// maxRepetitionRun caps the repetitions one operator call may apply.
const maxRepetitionRun = math.MaxInt32

// repetitionsLeft returns the whole repetitions left before the horizon: the
// largest k with t + k·period ≤ maxTime, capped at maxRepetitionRun. The
// quotient is clamped before the int conversion, because it can exceed
// math.MaxInt; below the cap it is at most one above the float sum the
// driver adds.
func repetitionsLeft(t, period, maxTime float64) int {
	q := math.Floor((maxTime - t) / period)
	if !(q < maxRepetitionRun) {
		return maxRepetitionRun
	}
	k := int(q)
	if k > 0 && t+float64(k)*period > maxTime {
		k--
	}
	return k
}

// simulateStepped drives any model by subdividing segments into MaxStep
// substeps: the pre-analytic behaviour, the path a positive MaxStep forces,
// and the only path for models without SegmentDrainer.
func simulateStepped(m Model, p *profile.Profile, opts SimulateOptions) (Result, error) {
	m.Reset()
	var res Result
	t := 0.0
	for t < opts.MaxTime {
		completed := true
		for _, seg := range p.Segments {
			remaining := seg.Duration
			for remaining > 1e-12 {
				dt := math.Min(remaining, opts.MaxStep)
				if t+dt > opts.MaxTime {
					dt = opts.MaxTime - t
					if dt <= 0 {
						completed = false
						break
					}
				}
				sustained, alive := m.Drain(seg.Current, dt)
				t += sustained
				// Deduct the sustained time, not the requested dt: a model
				// that sustains only part of a step must see the remainder of
				// the segment again, or profile time and battery time drift
				// apart.
				remaining -= sustained
				if !alive {
					res.Lifetime = t
					res.DeliveredCharge = m.DeliveredCharge()
					res.Exhausted = true
					return res, nil
				}
				if sustained <= 0 {
					return res, fmt.Errorf("%w: %s sustained nothing at %v A for %v s", ErrNoProgress, m.Name(), seg.Current, dt)
				}
			}
			if !completed {
				break
			}
		}
		if !completed {
			break
		}
		res.Repetitions++
	}
	res.Lifetime = t
	res.DeliveredCharge = m.DeliveredCharge()
	res.Exhausted = false
	return res, nil
}

// SolveExhaustion locates the exhaustion instant of a closed-form model: the
// time t > 0 at which the survival margin f crosses zero, given f(0) > 0.
// f returns the margin and its time derivative; guess seeds the bracket. The
// bracket [lo, hi] is grown by doubling until f(hi) <= 0 and then tightened
// by Newton steps that fall back to bisection whenever a step leaves the
// bracket, so convergence is quadratic near the root but never worse than
// bisection. Returns +Inf when no crossing is found (the model never
// exhausts under this load).
func SolveExhaustion(f func(t float64) (margin, deriv float64), guess float64) float64 {
	if !(guess > 0) || math.IsInf(guess, 0) {
		guess = 1
	}
	lo, hi := 0.0, guess
	v, _ := f(hi)
	for doubles := 0; v > 0; doubles++ {
		if doubles > 200 || math.IsNaN(v) {
			return math.Inf(1)
		}
		lo = hi
		hi *= 2
		v, _ = f(hi)
	}
	t := 0.5 * (lo + hi)
	for iter := 0; iter < 100 && hi-lo > 1e-14*hi; iter++ {
		v, d := f(t)
		if v == 0 {
			return t
		}
		if v > 0 {
			lo = t
		} else {
			hi = t
		}
		next := 0.5 * (lo + hi)
		if d != 0 {
			if n := t - v/d; n > lo && n < hi {
				next = n
			}
		}
		t = next
	}
	return 0.5 * (lo + hi)
}

// ConstantLoadLifetime returns the lifetime and delivered charge of the model
// under a constant current (amperes), up to maxTime seconds.
func ConstantLoadLifetime(m Model, current, maxTime float64) (Result, error) {
	return ConstantLoadLifetimeOpts(m, current, SimulateOptions{MaxTime: maxTime})
}

// ConstantLoadLifetimeOpts is ConstantLoadLifetime with explicit simulation
// options (opts.MaxTime is the horizon and must be positive).
func ConstantLoadLifetimeOpts(m Model, current float64, opts SimulateOptions) (Result, error) {
	if opts.MaxTime <= 0 {
		return Result{}, ErrBadHorizon
	}
	p := profile.Constant(current, opts.MaxTime)
	return SimulateUntilExhausted(m, p, opts)
}

// CurvePoint is one point of a load versus delivered-capacity curve.
type CurvePoint struct {
	// Current is the constant load in amperes.
	Current float64
	// DeliveredMAh is the charge delivered before exhaustion, in mAh.
	DeliveredMAh float64
	// LifetimeMinutes is the corresponding lifetime.
	LifetimeMinutes float64
}

// DeliveredCapacityCurve sweeps constant loads and returns the delivered
// capacity at each, reproducing the battery characterisation curve the paper
// uses to define maximum capacity (extrapolation to zero load) and available
// charge (extrapolation to infinite load).
func DeliveredCapacityCurve(m Model, currents []float64, maxTime float64) ([]CurvePoint, error) {
	out := make([]CurvePoint, 0, len(currents))
	for _, c := range currents {
		r, err := ConstantLoadLifetime(m, c, maxTime)
		if err != nil {
			return nil, err
		}
		out = append(out, CurvePoint{Current: c, DeliveredMAh: r.DeliveredMAh(), LifetimeMinutes: r.LifetimeMinutes()})
	}
	return out, nil
}
