// Package processor models the single DVS-capable processor and its power
// delivery chain used by the paper: a set of discrete frequency/voltage
// operating points, a CMOS-style dynamic power model (P = Ceff * V^2 * f) and
// a DC-DC converter of efficiency eta between the battery and the processor
// core.
//
// The battery-terminal current for an operating point is
//
//	Ibat = P / (eta * Vbat) = Ceff * V^2 * f / (eta * Vbat)
//
// which, because supply voltage scales roughly linearly with frequency across
// the supported operating points, scales approximately with the cube of the
// normalised speed s = f/fmax — exactly the s^3 current scaling the paper
// derives from eta*Vbat*Ibat = Vproc*Iproc.
package processor

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// OperatingPoint is one supported frequency/voltage pair of the processor.
type OperatingPoint struct {
	// Frequency in Hz.
	Frequency float64
	// Voltage is the core supply voltage in volts at this frequency.
	Voltage float64
}

// Errors returned by Model validation.
var (
	ErrNoPoints     = errors.New("processor: no operating points")
	ErrUnsorted     = errors.New("processor: operating points must be strictly increasing in frequency and voltage")
	ErrBadParameter = errors.New("processor: parameter out of range")
)

// Model describes the processor and its power-delivery chain.
type Model struct {
	// Points are the supported operating points, sorted by frequency.
	Points []OperatingPoint
	// Ceff is the effective switched capacitance in farads; dynamic power is
	// Ceff * V^2 * f.
	Ceff float64
	// ConverterEfficiency is the DC-DC converter efficiency eta in (0, 1].
	ConverterEfficiency float64
	// BatteryVoltage is the nominal battery terminal voltage Vbat in volts.
	BatteryVoltage float64
	// IdleCurrent is the battery current drawn when the processor idles, in
	// amperes.
	IdleCurrent float64
}

// Default returns the processor used throughout the paper's evaluation:
// operating points [(0.5 GHz, 3 V), (0.75 GHz, 4 V), (1.0 GHz, 5 V)], powered
// from a 1.2 V NiMH cell through a 90 % efficient converter. Ceff is
// calibrated so that full-speed power is about 2.2 W, which reproduces the
// order of magnitude of the paper's lifetimes (74–148 minutes on a 2000 mAh
// cell at 70 % utilisation).
func Default() *Model {
	return &Model{
		Points: []OperatingPoint{
			{Frequency: 0.5e9, Voltage: 3.0},
			{Frequency: 0.75e9, Voltage: 4.0},
			{Frequency: 1.0e9, Voltage: 5.0},
		},
		Ceff:                88e-12, // 2.2 W at (1 GHz, 5 V)
		ConverterEfficiency: 0.90,
		BatteryVoltage:      1.2,
		IdleCurrent:         0.010, // 10 mA housekeeping / leakage
	}
}

// Validate checks that the model is physically meaningful.
func (m *Model) Validate() error {
	if len(m.Points) == 0 {
		return ErrNoPoints
	}
	for i := 1; i < len(m.Points); i++ {
		if m.Points[i].Frequency <= m.Points[i-1].Frequency || m.Points[i].Voltage < m.Points[i-1].Voltage {
			return ErrUnsorted
		}
	}
	for _, p := range m.Points {
		if p.Frequency <= 0 || p.Voltage <= 0 {
			return fmt.Errorf("%w: operating point %+v", ErrBadParameter, p)
		}
	}
	if m.Ceff <= 0 {
		return fmt.Errorf("%w: Ceff=%v", ErrBadParameter, m.Ceff)
	}
	if m.ConverterEfficiency <= 0 || m.ConverterEfficiency > 1 {
		return fmt.Errorf("%w: ConverterEfficiency=%v", ErrBadParameter, m.ConverterEfficiency)
	}
	if m.BatteryVoltage <= 0 {
		return fmt.Errorf("%w: BatteryVoltage=%v", ErrBadParameter, m.BatteryVoltage)
	}
	if m.IdleCurrent < 0 {
		return fmt.Errorf("%w: IdleCurrent=%v", ErrBadParameter, m.IdleCurrent)
	}
	return nil
}

// FMax returns the maximum supported frequency in Hz.
func (m *Model) FMax() float64 { return m.Points[len(m.Points)-1].Frequency }

// FMin returns the minimum supported frequency in Hz.
func (m *Model) FMin() float64 { return m.Points[0].Frequency }

// ClampFrequency limits f to [FMin, FMax].
func (m *Model) ClampFrequency(f float64) float64 {
	if f < m.FMin() {
		return m.FMin()
	}
	if f > m.FMax() {
		return m.FMax()
	}
	return f
}

// PowerAtPoint returns the core power at a discrete operating point.
func (m *Model) PowerAtPoint(p OperatingPoint) float64 {
	return m.Ceff * p.Voltage * p.Voltage * p.Frequency
}

// BatteryCurrentAtPoint returns the battery current at a discrete operating
// point.
func (m *Model) BatteryCurrentAtPoint(p OperatingPoint) float64 {
	return m.PowerAtPoint(p) / (m.ConverterEfficiency * m.BatteryVoltage)
}

// PowerIdeal returns the core power under the idealised continuous DVS model
// P(f) = Pmax * (f/fmax)^3 used by the paper's energy-only experiments, where
// Pmax is the power of the highest operating point. It does not clamp f to
// the supported range from below (f above fmax is still clamped), so it
// models an ideal processor that can run arbitrarily slowly.
func (m *Model) PowerIdeal(f float64) float64 {
	if f <= 0 {
		return 0
	}
	fmax := m.FMax()
	if f > fmax {
		f = fmax
	}
	s := f / fmax
	return m.PowerAtPoint(m.Points[len(m.Points)-1]) * s * s * s
}

// BatteryCurrentIdeal returns the battery current under the idealised cubic
// model (see PowerIdeal) — this is exactly the s^3 current scaling the paper
// derives from the DC-DC converter equation.
func (m *Model) BatteryCurrentIdeal(f float64) float64 {
	return m.PowerIdeal(f) / (m.ConverterEfficiency * m.BatteryVoltage)
}

// Realization describes how a requested (possibly unsupported) frequency fref
// is realised over an interval: either exactly (continuous mode) or as a
// linear combination of the two adjacent supported frequencies (discrete
// mode). Shares sum to 1.
type Realization struct {
	// Segments lists the operating points used and the fraction of the
	// interval spent at each, ordered highest frequency first so that the
	// local current profile is non-increasing (battery guideline 1).
	Segments []RealizationSegment
}

// RealizationSegment is one constant-frequency portion of a Realization.
type RealizationSegment struct {
	Point OperatingPoint
	Share float64 // fraction of the interval, in [0,1]
}

// EffectiveFrequency returns the time-averaged frequency of the realization.
func (r Realization) EffectiveFrequency() float64 {
	var f float64
	for _, s := range r.Segments {
		f += s.Point.Frequency * s.Share
	}
	return f
}

// RealizeInto maps a requested frequency fref onto the supported operating
// points. If fref matches a supported point (within 1e-9 relative tolerance)
// a single segment is returned. Otherwise the two adjacent points fi < fref <
// fi+1 are combined linearly such that the average frequency equals fref
// (Gaujal/Navet/Walsh show this linear combination is optimal); the
// higher-frequency segment is listed first so the within-interval current
// profile is non-increasing. fref below FMin is realised at FMin, above FMax
// at FMax. The returned Realization's Segments are appended to buf[:0], so a
// scheduler realising a frequency on every decision reuses one two-element
// buffer instead of allocating per call; buf may be nil.
func (m *Model) RealizeInto(fref float64, buf []RealizationSegment) Realization {
	fref = m.ClampFrequency(fref)
	pts := m.Points
	buf = buf[:0]
	for _, p := range pts {
		if math.Abs(p.Frequency-fref) <= 1e-9*p.Frequency {
			return Realization{Segments: append(buf, RealizationSegment{Point: p, Share: 1})}
		}
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].Frequency >= fref })
	if i == 0 {
		return Realization{Segments: append(buf, RealizationSegment{Point: pts[0], Share: 1})}
	}
	if i >= len(pts) {
		return Realization{Segments: append(buf, RealizationSegment{Point: pts[len(pts)-1], Share: 1})}
	}
	lo, hi := pts[i-1], pts[i]
	// share_hi * f_hi + (1-share_hi) * f_lo = fref
	shareHi := (fref - lo.Frequency) / (hi.Frequency - lo.Frequency)
	return Realization{Segments: append(buf,
		RealizationSegment{Point: hi, Share: shareHi},
		RealizationSegment{Point: lo, Share: 1 - shareHi},
	)}
}

// RealizeCeilInto maps a requested frequency onto the smallest supported
// operating point that is at least fref (the simple quantisation policy many
// DVS implementations use instead of the optimal linear combination), and
// appends its one segment to buf[:0] (see RealizeInto). fref above FMax is
// realised at FMax.
func (m *Model) RealizeCeilInto(fref float64, buf []RealizationSegment) Realization {
	pts := m.Points
	buf = buf[:0]
	for _, p := range pts {
		if p.Frequency >= fref-1e-9*p.Frequency {
			return Realization{Segments: append(buf, RealizationSegment{Point: p, Share: 1})}
		}
	}
	return Realization{Segments: append(buf, RealizationSegment{Point: pts[len(pts)-1], Share: 1})}
}
