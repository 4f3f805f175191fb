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

func TestCloneDoesNotShareSegments(t *testing.T) {
	p := New()
	p.Append(1, 2)
	c := p.Clone()
	c.Segments[0].Current = 99
	if p.Segments[0].Current == 99 {
		t.Fatal("Clone shares storage")
	}
}

func TestConstant(t *testing.T) {
	p := Constant(0.5, 100)
	if p.Duration() != 100 || p.AverageCurrent() != 0.5 {
		t.Fatalf("Constant profile wrong: %v", p)
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
