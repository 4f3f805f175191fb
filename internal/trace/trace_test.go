package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func sampleTrace() *Trace {
	t := New()
	t.Append(Slice{Start: 0, Duration: 1, GraphIndex: 0, Node: 0, Label: "T1.a", Instance: 0, Frequency: 1e9, Current: 2})
	t.Append(Slice{Start: 1, Duration: 2, GraphIndex: 0, Node: 1, Label: "T1.b", Instance: 0, Frequency: 0.5e9, Current: 0.5})
	t.Append(Slice{Start: 3, Duration: 1, Idle: true, Current: 0.01})
	t.Append(Slice{Start: 4, Duration: 1, GraphIndex: 1, Node: 0, Label: "T2.a", Instance: 0, Frequency: 0.75e9, Current: 1})
	return t
}

func TestAppendMergesContiguousIdenticalSlices(t *testing.T) {
	tr := New()
	tr.Append(Slice{Start: 0, Duration: 1, GraphIndex: 0, Node: 0, Frequency: 1e9, Current: 1})
	tr.Append(Slice{Start: 1, Duration: 1, GraphIndex: 0, Node: 0, Frequency: 1e9, Current: 1})
	if len(tr.Slices) != 1 || tr.Slices[0].Duration != 2 {
		t.Fatalf("merge failed: %+v", tr.Slices)
	}
	// Different node: no merge.
	tr.Append(Slice{Start: 2, Duration: 1, GraphIndex: 0, Node: 1, Frequency: 1e9, Current: 1})
	if len(tr.Slices) != 2 {
		t.Fatalf("unexpected merge: %+v", tr.Slices)
	}
	// Non-contiguous identical slice: no merge.
	tr.Append(Slice{Start: 10, Duration: 1, GraphIndex: 0, Node: 1, Frequency: 1e9, Current: 1})
	if len(tr.Slices) != 3 {
		t.Fatalf("merged across a gap: %+v", tr.Slices)
	}
	// Zero duration ignored.
	tr.Append(Slice{Start: 11, Duration: 0})
	if len(tr.Slices) != 3 {
		t.Fatal("zero-duration slice appended")
	}
}

func TestAccountingHelpers(t *testing.T) {
	tr := sampleTrace()
	if got := tr.Duration(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Duration = %v, want 5", got)
	}
	if got := tr.BusyTime(); math.Abs(got-4) > 1e-12 {
		t.Fatalf("BusyTime = %v, want 4", got)
	}
	if got := tr.IdleTime(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("IdleTime = %v, want 1", got)
	}
	if s := tr.Slices[0]; s.End() != 1 {
		t.Fatalf("End = %v", s.End())
	}
	if New().Duration() != 0 {
		t.Fatal("empty trace duration != 0")
	}
}

func TestFrequencyIsLocallyNonIncreasing(t *testing.T) {
	tr := sampleTrace()
	// Globally: 1e9, 0.5e9, (idle), 0.75e9 -> increases at the last slice.
	if tr.FrequencyIsLocallyNonIncreasing(0) {
		t.Fatal("global check should fail")
	}
	// With a 4-second window the increase falls into the second window.
	if !tr.FrequencyIsLocallyNonIncreasing(4) {
		t.Fatal("windowed check should pass")
	}
	if !New().FrequencyIsLocallyNonIncreasing(1) {
		t.Fatal("empty trace should pass")
	}
}

func TestRenderGantt(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.Render(&buf, GanttOptions{Width: 40, ShowFrequency: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"T1.a", "T1.b", "T2.a", "idle", "freq", "#"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered Gantt missing %q:\n%s", want, out)
		}
	}
	// Default width and empty trace.
	var buf2 bytes.Buffer
	if err := New().Render(&buf2, GanttOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf2.String(), "empty trace") {
		t.Fatalf("empty trace rendering = %q", buf2.String())
	}
}

func TestRenderDefaultsWidth(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.Render(&buf, GanttOptions{Width: 0}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) < 4 {
		t.Fatalf("unexpected rendering:\n%s", buf.String())
	}
}

// Property: busy + idle time equals the sum of slice durations, and charge is
// non-negative, for arbitrary appended slices.
func TestTraceAccountingProperty(t *testing.T) {
	f := func(durs []float64, idleMask uint32) bool {
		tr := New()
		start := 0.0
		var want float64
		for i, d := range durs {
			d = math.Abs(math.Mod(d, 10))
			if d == 0 {
				continue
			}
			tr.Append(Slice{
				Start:     start,
				Duration:  d,
				Idle:      idleMask&(1<<(uint(i)%32)) != 0,
				Node:      i % 3,
				Frequency: 1e9,
				Current:   0.5,
			})
			start += d
			want += d
		}
		return math.Abs(tr.BusyTime()+tr.IdleTime()-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
