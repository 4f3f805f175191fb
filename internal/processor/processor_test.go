package processor

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

// averageCurrent is the time-averaged battery current of realisation r under
// model m.
func averageCurrent(r Realization, m *Model) float64 {
	var i float64
	for _, s := range r.Segments {
		i += m.BatteryCurrentAtPoint(s.Point) * s.Share
	}
	return i
}

func TestDefaultIsValid(t *testing.T) {
	m := Default()
	if err := m.Validate(); err != nil {
		t.Fatalf("Default().Validate() = %v", err)
	}
	if m.FMax() != 1.0e9 || m.FMin() != 0.5e9 {
		t.Fatalf("FMin/FMax = %v/%v, want 0.5e9/1e9", m.FMin(), m.FMax())
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Model)
		want error
	}{
		{"no points", func(m *Model) { m.Points = nil }, ErrNoPoints},
		{"unsorted freq", func(m *Model) { m.Points[0], m.Points[2] = m.Points[2], m.Points[0] }, ErrUnsorted},
		{"zero ceff", func(m *Model) { m.Ceff = 0 }, ErrBadParameter},
		{"bad eta", func(m *Model) { m.ConverterEfficiency = 1.5 }, ErrBadParameter},
		{"zero vbat", func(m *Model) { m.BatteryVoltage = 0 }, ErrBadParameter},
		{"negative idle", func(m *Model) { m.IdleCurrent = -1 }, ErrBadParameter},
		{"zero voltage point", func(m *Model) { m.Points[0].Voltage = 0 }, ErrBadParameter},
	}
	for _, c := range cases {
		m := Default()
		c.mut(m)
		if err := m.Validate(); !errors.Is(err, c.want) {
			t.Errorf("%s: Validate = %v, want %v", c.name, err, c.want)
		}
	}
}

func TestClampFrequency(t *testing.T) {
	m := Default()
	if got := m.ClampFrequency(0.1e9); got != 0.5e9 {
		t.Fatalf("clamp low = %v", got)
	}
	if got := m.ClampFrequency(2e9); got != 1e9 {
		t.Fatalf("clamp high = %v", got)
	}
	if got := m.ClampFrequency(0.75e9); got != 0.75e9 {
		t.Fatalf("clamp in range = %v", got)
	}
}

// TestPowerMonotoneInFrequency checks both power models the engine uses: the
// realised battery current of the discrete operating points and the ideal
// cubic current never fall as the requested frequency rises.
func TestPowerMonotoneInFrequency(t *testing.T) {
	m := Default()
	prevReal, prevIdeal := 0.0, 0.0
	for f := m.FMin(); f <= m.FMax(); f += 0.01e9 {
		realised, ideal := averageCurrent(m.RealizeInto(f, nil), m), m.BatteryCurrentIdeal(f)
		if realised < prevReal || ideal < prevIdeal {
			t.Fatalf("current not monotone at f=%v: realised %v < %v or ideal %v < %v", f, realised, prevReal, ideal, prevIdeal)
		}
		prevReal, prevIdeal = realised, ideal
	}
}

func TestPowerCalibration(t *testing.T) {
	m := Default()
	pmax := m.PowerAtPoint(m.Points[len(m.Points)-1])
	if pmax < 2.0 || pmax > 2.4 {
		t.Fatalf("Pmax = %v W, want about 2.2 W", pmax)
	}
}

func TestBatteryCurrentCubicScaling(t *testing.T) {
	m := Default()
	iMax := m.BatteryCurrentAtPoint(m.Points[2])
	iMin := m.BatteryCurrentAtPoint(m.Points[0])
	// At half frequency and 3/5 voltage: ratio = (3/5)^2 * 0.5 = 0.18,
	// close to the paper's s^3 = 0.125 scaling.
	ratio := iMin / iMax
	if ratio > 0.25 || ratio < 0.1 {
		t.Fatalf("current ratio at half speed = %v, want roughly cubic (0.1–0.25)", ratio)
	}
}

func TestEnergyPerCycleDecreasesWithFrequency(t *testing.T) {
	m := Default()
	// Lower frequency means lower voltage, so lower battery energy per cycle.
	perCycle := func(p OperatingPoint) float64 {
		return m.BatteryCurrentAtPoint(p) * m.BatteryVoltage / p.Frequency
	}
	for i := 1; i < len(m.Points); i++ {
		if lo, hi := perCycle(m.Points[i-1]), perCycle(m.Points[i]); lo >= hi {
			t.Fatalf("energy per cycle should decrease at lower frequency: %v at %v Hz vs %v at %v Hz",
				lo, m.Points[i-1].Frequency, hi, m.Points[i].Frequency)
		}
	}
}

func TestRealizeExactPoint(t *testing.T) {
	m := Default()
	r := m.RealizeInto(0.75e9, nil)
	if len(r.Segments) != 1 || r.Segments[0].Point.Frequency != 0.75e9 || r.Segments[0].Share != 1 {
		t.Fatalf("RealizeInto(0.75GHz) = %+v, want single full segment", r)
	}
}

func TestRealizeInterpolatesAdjacentPoints(t *testing.T) {
	m := Default()
	r := m.RealizeInto(0.6e9, nil)
	if len(r.Segments) != 2 {
		t.Fatalf("RealizeInto(0.6GHz) = %+v, want 2 segments", r)
	}
	// Higher frequency first so the local current profile is non-increasing.
	if r.Segments[0].Point.Frequency <= r.Segments[1].Point.Frequency {
		t.Fatalf("segments not ordered high->low: %+v", r)
	}
	if math.Abs(r.EffectiveFrequency()-0.6e9) > 1 {
		t.Fatalf("effective frequency = %v, want 0.6e9", r.EffectiveFrequency())
	}
	shares := r.Segments[0].Share + r.Segments[1].Share
	if math.Abs(shares-1) > 1e-12 {
		t.Fatalf("shares sum to %v, want 1", shares)
	}
	if averageCurrent(r, m) <= 0 {
		t.Fatalf("average current = %v, want > 0", averageCurrent(r, m))
	}
}

func TestRealizeClampsOutOfRange(t *testing.T) {
	m := Default()
	lo := m.RealizeInto(0.1e9, nil)
	if len(lo.Segments) != 1 || lo.Segments[0].Point.Frequency != m.FMin() {
		t.Fatalf("Realize below range = %+v", lo)
	}
	hi := m.RealizeInto(3e9, nil)
	if len(hi.Segments) != 1 || hi.Segments[0].Point.Frequency != m.FMax() {
		t.Fatalf("Realize above range = %+v", hi)
	}
}

// Property: for any in-range frequency the realization reproduces it exactly
// (to numerical precision), its shares are in [0,1] and sum to 1, and its
// average current is between the currents of the lowest and highest points.
func TestRealizeProperty(t *testing.T) {
	m := Default()
	f := func(x float64) bool {
		frac := math.Abs(math.Mod(x, 1))
		fref := m.FMin() + frac*(m.FMax()-m.FMin())
		r := m.RealizeInto(fref, nil)
		var sum float64
		for _, s := range r.Segments {
			if s.Share < -1e-12 || s.Share > 1+1e-12 {
				return false
			}
			sum += s.Share
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		if math.Abs(r.EffectiveFrequency()-fref) > 1e-3 {
			return false
		}
		i := averageCurrent(r, m)
		return i >= m.BatteryCurrentAtPoint(m.Points[0])-1e-12 && i <= m.BatteryCurrentAtPoint(m.Points[len(m.Points)-1])+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Validate accepts a model exactly when its voltage never falls as
// the frequency rises.
func TestVoltageMonotoneProperty(t *testing.T) {
	f := func(x float64) bool {
		m := Default()
		m.Points[1].Voltage = 2 + math.Abs(math.Mod(x, 4)) // in [2, 6) V
		monotone := m.Points[0].Voltage <= m.Points[1].Voltage && m.Points[1].Voltage <= m.Points[2].Voltage
		return (m.Validate() == nil) == monotone
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
