package profile

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestAppendMergesEqualCurrents(t *testing.T) {
	p := New()
	p.Append(1, 0.5)
	p.Append(2, 0.5)
	p.Append(1, 0.7)
	if len(p.Segments) != 2 {
		t.Fatalf("segments = %d, want 2 (adjacent equal currents merged)", len(p.Segments))
	}
	if p.Segments[0].Duration != 3 {
		t.Fatalf("merged duration = %v, want 3", p.Segments[0].Duration)
	}
}

func TestAppendIgnoresZeroDurationAndClampsNegativeCurrent(t *testing.T) {
	p := New()
	p.Append(0, 1)
	p.Append(-1, 1)
	if len(p.Segments) != 0 {
		t.Fatalf("segments = %d, want 0", len(p.Segments))
	}
	p.Append(1, -5)
	if p.Segments[0].Current != 0 {
		t.Fatalf("negative current not clamped: %v", p.Segments[0].Current)
	}
}

func TestValidate(t *testing.T) {
	p := New()
	if err := p.Validate(); !errors.Is(err, ErrEmptyProfile) {
		t.Fatalf("Validate empty = %v, want ErrEmptyProfile", err)
	}
	p.Append(1, 1)
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate = %v, want nil", err)
	}
	inf, nan := math.Inf(1), math.NaN()
	for _, bad := range [][]Segment{
		{{Duration: -1, Current: 1}},
		{{Duration: nan, Current: 1}},
		{{Duration: inf, Current: 1}},
		{{Duration: -inf, Current: 1}},
		{{Duration: 1, Current: nan}},
		{{Duration: 1, Current: inf}},
		{{Duration: 1, Current: -inf}},
		// finite segments whose total duration or charge overflows
		{{Duration: math.MaxFloat64, Current: 0}, {Duration: math.MaxFloat64, Current: 1}},
		{{Duration: 1e200, Current: 1e200}},
	} {
		q := &Profile{Segments: append([]Segment{{Duration: 1, Current: 1}}, bad...)}
		if err := q.Validate(); !errors.Is(err, ErrBadSegment) {
			t.Fatalf("Validate(%+v) = %v, want ErrBadSegment", q.Segments, err)
		}
	}
}

func TestChargeDurationAndAverages(t *testing.T) {
	p := New()
	p.Append(10, 1.0) // 10 C
	p.Append(10, 0.5) // 5 C
	if got := p.Duration(); got != 20 {
		t.Fatalf("Duration = %v, want 20", got)
	}
	if got := p.Charge(); got != 15 {
		t.Fatalf("Charge = %v, want 15", got)
	}
	if got := p.ChargeMAh(); math.Abs(got-15.0/3.6) > 1e-12 {
		t.Fatalf("ChargeMAh = %v", got)
	}
	if got := p.AverageCurrent(); got != 0.75 {
		t.Fatalf("AverageCurrent = %v, want 0.75", got)
	}
	if got := p.PeakCurrent(); got != 1.0 {
		t.Fatalf("PeakCurrent = %v, want 1", got)
	}
}

func TestAverageCurrentEmptyProfile(t *testing.T) {
	p := New()
	if got := p.AverageCurrent(); got != 0 {
		t.Fatalf("AverageCurrent of empty = %v, want 0", got)
	}
}

// Scale returns a copy of the profile with every current multiplied by k.
func (p *Profile) Scale(k float64) *Profile {
	c := p.Clone()
	for i := range c.Segments {
		c.Segments[i].Current *= k
		if c.Segments[i].Current < 0 {
			c.Segments[i].Current = 0
		}
	}
	return c
}

// Concat returns a new profile consisting of p followed by q.
func (p *Profile) Concat(q *Profile) *Profile {
	out := p.Clone()
	for _, s := range q.Segments {
		out.Append(s.Duration, s.Current)
	}
	return out
}

// Repeat returns a new profile consisting of n back-to-back copies of p.
func (p *Profile) Repeat(n int) *Profile {
	out := New()
	for i := 0; i < n; i++ {
		for _, s := range p.Segments {
			out.Append(s.Duration, s.Current)
		}
	}
	return out
}

func TestCloneScaleConcatRepeat(t *testing.T) {
	p := New()
	p.Append(1, 2)
	c := p.Clone()
	c.Segments[0].Current = 99
	if p.Segments[0].Current == 99 {
		t.Fatal("Clone shares storage")
	}
	s := p.Scale(0.5)
	if s.Segments[0].Current != 1 {
		t.Fatalf("Scale = %v, want 1", s.Segments[0].Current)
	}
	q := New()
	q.Append(2, 3)
	cat := p.Concat(q)
	if cat.Duration() != 3 || cat.Charge() != 2+6 {
		t.Fatalf("Concat wrong: %v", cat)
	}
	r := q.Repeat(3)
	if r.Duration() != 6 || len(r.Segments) != 1 { // identical currents merge
		t.Fatalf("Repeat wrong: %v", r)
	}
}

func TestConstant(t *testing.T) {
	p := Constant(0.5, 100)
	if p.Duration() != 100 || p.AverageCurrent() != 0.5 {
		t.Fatalf("Constant profile wrong: %v", p)
	}
}

// IsLocallyNonIncreasing reports whether, inside every window of length
// `window` seconds aligned to the start of the profile, segment currents never
// increase. With window <= 0 the whole profile is one window. This is the
// property battery guideline 1 asks the scheduler to preserve within one
// task-arrival window.
func (p *Profile) IsLocallyNonIncreasing(window float64) bool {
	if len(p.Segments) == 0 {
		return true
	}
	if window <= 0 {
		window = math.Inf(1)
	}
	var t float64
	prev := math.Inf(1)
	windowIdx := 0
	for _, s := range p.Segments {
		idx := int(t / window)
		if idx != windowIdx {
			windowIdx = idx
			prev = math.Inf(1)
		}
		if s.Current > prev+1e-12 {
			return false
		}
		prev = s.Current
		t += s.Duration
	}
	return true
}

func TestIsLocallyNonIncreasing(t *testing.T) {
	p := New()
	p.Append(1, 1.0)
	p.Append(1, 0.5)
	p.Append(1, 0.2)
	if !p.IsLocallyNonIncreasing(0) {
		t.Fatal("monotone profile reported as increasing")
	}
	p.Append(1, 0.8)
	if p.IsLocallyNonIncreasing(0) {
		t.Fatal("increasing profile reported as non-increasing globally")
	}
	// With a window of 3 s the increase happens at a window boundary, so the
	// profile is locally non-increasing.
	if !p.IsLocallyNonIncreasing(3) {
		t.Fatal("windowed check should reset at the window boundary")
	}
	if !New().IsLocallyNonIncreasing(1) {
		t.Fatal("empty profile should be trivially non-increasing")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	p := New()
	p.Append(1.5, 0.75)
	p.Append(0.5, 0.1)
	var buf bytes.Buffer
	if err := p.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if !strings.HasPrefix(buf.String(), "start_s,duration_s,current_a") {
		t.Fatalf("missing header: %q", buf.String())
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if math.Abs(back.Duration()-p.Duration()) > 1e-9 || math.Abs(back.Charge()-p.Charge()) > 1e-9 {
		t.Fatalf("round trip mismatch: %v vs %v", back, p)
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("garbage,line\n")); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Fatal("expected empty profile error")
	}
	// Non-finite values parse with %g but must not form a profile.
	for _, bad := range []string{"0,NaN,0.5\n", "0,1,NaN\n", "0,Inf,0.5\n", "0,1,+Inf\n", "0,1e308,0\n0,1e308,1\n", "0,1e200,1e200\n"} {
		if _, err := ReadCSV(strings.NewReader(bad)); !errors.Is(err, ErrBadSegment) {
			t.Fatalf("ReadCSV(%q) err = %v, want ErrBadSegment", bad, err)
		}
	}
	// Comment lines and blank lines are ignored.
	p, err := ReadCSV(strings.NewReader("# comment\n0,1,0.5\n\n"))
	if err != nil {
		t.Fatalf("ReadCSV with comments: %v", err)
	}
	if p.Duration() != 1 {
		t.Fatalf("Duration = %v, want 1", p.Duration())
	}
}

// Property: charge equals the sum of duration*current over segments and the
// average current never exceeds the peak.
func TestChargeConsistencyProperty(t *testing.T) {
	f := func(durs, curs []float64) bool {
		if len(curs) == 0 {
			return true
		}
		p := New()
		var want float64
		for i := range durs {
			d := math.Abs(math.Mod(durs[i], 100))
			c := math.Abs(math.Mod(curs[i%len(curs)], 10))
			if d == 0 {
				continue
			}
			p.Append(d, c)
			want += d * c
		}
		if math.Abs(p.Charge()-want) > 1e-6*math.Max(1, want) {
			return false
		}
		return p.AverageCurrent() <= p.PeakCurrent()+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
