// Package profile represents battery load-current profiles as sequences of
// piecewise-constant segments. The scheduler (internal/core) emits a Profile
// describing the current drawn from the battery over one simulated horizon;
// the battery models (internal/battery/...) consume it, repeating it
// periodically until the battery is exhausted.
package profile

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
)

// Segment is a constant-current interval.
type Segment struct {
	// Duration of the segment in seconds (> 0).
	Duration float64
	// Current drawn from the battery in amperes (>= 0).
	Current float64
}

// Profile is an ordered sequence of constant-current segments.
type Profile struct {
	Segments []Segment
}

// Errors returned by profile operations.
var (
	ErrEmptyProfile = errors.New("profile: empty profile")
	ErrBadSegment   = errors.New("profile: segment with non-positive or non-finite duration, or negative or non-finite current")
)

// New returns an empty profile.
func New() *Profile { return &Profile{} }

// Append adds a constant-current segment, merging it with the previous one if
// the current is (numerically) identical. Zero-duration segments are ignored.
func (p *Profile) Append(duration, current float64) {
	if duration <= 0 {
		return
	}
	if current < 0 {
		current = 0
	}
	if n := len(p.Segments); n > 0 && nearlyEqual(p.Segments[n-1].Current, current) {
		p.Segments[n-1].Duration += duration
		return
	}
	p.Segments = append(p.Segments, Segment{Duration: duration, Current: current})
}

// Reset empties the profile while keeping the segment slice's capacity, so a
// reused profile stops allocating once it has grown to its steady-state size.
// Callers holding the old Segments slice observe it being overwritten by the
// next Append sequence — copy (Clone) before resetting when the contents must
// outlive the reuse.
func (p *Profile) Reset() { p.Segments = p.Segments[:0] }

// Validate checks the profile contains at least one segment and that every
// segment has a finite positive duration and a finite non-negative current,
// with a finite total duration and charge. (The negated comparisons reject
// NaN, which every ordered comparison fails.)
func (p *Profile) Validate() error {
	if len(p.Segments) == 0 {
		return ErrEmptyProfile
	}
	for i, s := range p.Segments {
		if !(s.Duration > 0) || math.IsInf(s.Duration, 1) || !(s.Current >= 0) || math.IsInf(s.Current, 1) {
			return fmt.Errorf("%w: segment %d = %+v", ErrBadSegment, i, s)
		}
	}
	if d, q := p.Duration(), p.Charge(); math.IsInf(d, 1) || math.IsInf(q, 1) {
		return fmt.Errorf("%w: total duration %v s, charge %v C", ErrBadSegment, d, q)
	}
	return nil
}

// Duration returns the total length of the profile in seconds.
func (p *Profile) Duration() float64 {
	var d float64
	for _, s := range p.Segments {
		d += s.Duration
	}
	return d
}

// Charge returns the total charge of the profile in coulombs (ampere-seconds).
func (p *Profile) Charge() float64 {
	var q float64
	for _, s := range p.Segments {
		q += s.Duration * s.Current
	}
	return q
}

// ChargeMAh returns the total charge in milliampere-hours.
func (p *Profile) ChargeMAh() float64 { return p.Charge() / 3.6 }

// AverageCurrent returns Charge()/Duration(), or 0 for an empty profile.
func (p *Profile) AverageCurrent() float64 {
	d := p.Duration()
	if d <= 0 {
		return 0
	}
	return p.Charge() / d
}

// PeakCurrent returns the largest segment current.
func (p *Profile) PeakCurrent() float64 {
	var m float64
	for _, s := range p.Segments {
		if s.Current > m {
			m = s.Current
		}
	}
	return m
}

// Clone returns a deep copy of the profile.
func (p *Profile) Clone() *Profile {
	return &Profile{Segments: append([]Segment(nil), p.Segments...)}
}

// Constant returns a single-segment profile drawing current amperes for
// duration seconds.
func Constant(current, duration float64) *Profile {
	p := New()
	p.Append(duration, current)
	return p
}

// ChargeAccumulator computes the total charge of a segment stream without
// materialising a Profile. It replicates Profile.Append's merge semantics and
// Profile.Charge's summation order exactly, so for the same Append sequence
// Charge returns the bit-identical value a recorded Profile would — which is
// what lets the scheduler report identical energies with recording disabled.
type ChargeAccumulator struct {
	sum      float64 // charge of flushed (closed) segments, in segment order
	dur, cur float64 // the open (mergeable) trailing segment
	active   bool
}

// Append incorporates a constant-current segment with the same contract as
// Profile.Append: non-positive durations are ignored, negative currents clamp
// to zero, and nearly-equal consecutive currents merge into one segment.
func (a *ChargeAccumulator) Append(duration, current float64) {
	if duration <= 0 {
		return
	}
	if current < 0 {
		current = 0
	}
	if a.active && nearlyEqual(a.cur, current) {
		a.dur += duration
		return
	}
	if a.active {
		a.sum += a.dur * a.cur
	}
	a.dur, a.cur, a.active = duration, current, true
}

// Reset returns the accumulator to its zero state so it can be reused for a
// fresh Append sequence.
func (a *ChargeAccumulator) Reset() { *a = ChargeAccumulator{} }

// Charge returns the accumulated charge in coulombs.
func (a *ChargeAccumulator) Charge() float64 {
	if a.active {
		return a.sum + a.dur*a.cur
	}
	return a.sum
}

// WriteCSV writes the profile as "start_s,duration_s,current_a" rows.
func (p *Profile) WriteCSV(w io.Writer) error {
	var t float64
	if _, err := fmt.Fprintln(w, "start_s,duration_s,current_a"); err != nil {
		return err
	}
	for _, s := range p.Segments {
		if _, err := fmt.Fprintf(w, "%.9g,%.9g,%.9g\n", t, s.Duration, s.Current); err != nil {
			return err
		}
		t += s.Duration
	}
	return nil
}

// ReadCSV parses a profile previously written by WriteCSV (the start column
// is ignored; ordering is taken from row order).
func ReadCSV(r io.Reader) (*Profile, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	p := New()
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "start_s") || strings.HasPrefix(line, "#") {
			continue
		}
		var start, dur, cur float64
		if _, err := fmt.Sscanf(strings.ReplaceAll(line, ",", " "), "%g %g %g", &start, &dur, &cur); err != nil {
			return nil, fmt.Errorf("profile: line %d: %w", i+1, err)
		}
		p.Append(dur, cur)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func nearlyEqual(a, b float64) bool {
	diff := math.Abs(a - b)
	if diff <= 1e-12 {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*scale
}
