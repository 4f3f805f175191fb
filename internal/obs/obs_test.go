package obs

import (
	"math"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// Render returns the Prometheus text rendering as a byte slice.
func (r *Registry) Render() []byte {
	var buf strings.Builder
	r.WriteTo(&buf)
	return []byte(buf.String())
}

// TestRenderGolden pins the Prometheus text exposition format: HELP/TYPE
// headers, sorted families and series, histogram cumulative buckets with
// +Inf, label escaping. A scrape-format drift breaks real Prometheus
// ingestion, so the rendering is compared byte-for-byte.
func TestRenderGolden(t *testing.T) {
	r := NewRegistry()
	jobs := r.Counter("test_jobs_total", "Jobs by admission.", "admission", "computed")
	jobs.Inc()
	jobs.Inc()
	jobs.Inc()
	r.Counter("test_jobs_total", "Jobs by admission.", "admission", "cached").Inc()
	r.GaugeFunc("test_queue_depth", "Queue depth.", func() float64 { return 7 })
	r.GaugeFunc("test_callback", "Callback-backed.", func() float64 { return 2.5 })
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(99) // beyond the last bound: only +Inf and _count see it
	r.Counter("test_escaped_total", `Help with \ backslash`, "path", "a\"b\\c\nd").Inc()

	const want = `# HELP test_callback Callback-backed.
# TYPE test_callback gauge
test_callback 2.5
# HELP test_escaped_total Help with \\ backslash
# TYPE test_escaped_total counter
test_escaped_total{path="a\"b\\c\nd"} 1
# HELP test_jobs_total Jobs by admission.
# TYPE test_jobs_total counter
test_jobs_total{admission="cached"} 1
test_jobs_total{admission="computed"} 3
# HELP test_latency_seconds Latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.1"} 1
test_latency_seconds_bucket{le="1"} 3
test_latency_seconds_bucket{le="10"} 3
test_latency_seconds_bucket{le="+Inf"} 4
test_latency_seconds_sum 100.05
test_latency_seconds_count 4
# HELP test_queue_depth Queue depth.
# TYPE test_queue_depth gauge
test_queue_depth 7
`
	got := string(r.Render())
	if got != want {
		t.Errorf("render mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestHandlerContentType pins the exposition-format content type.
func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if got := rec.Header().Get("Content-Type"); got != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", got)
	}
	if !strings.Contains(rec.Body.String(), "x_total 1") {
		t.Errorf("body missing sample:\n%s", rec.Body.String())
	}
}

// TestRegistryRace hammers counters, histograms, registration of counters
// and callback gauges, and rendering from many goroutines at once; `go test
// -race` turns any unsafe access into a failure. Also checks the final
// counts are not lost.
func TestRegistryRace(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("race_total", "racing counter")
	h := r.Histogram("race_seconds", "racing histogram", nil)
	const (
		goroutines = 8
		perG       = 1000
	)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < perG; k++ {
				c.Inc()
				h.Observe(float64(k%300) / 100)
				if k%100 == 0 {
					// Concurrent registration and lookup of labelled series.
					r.Counter("race_labelled_total", "labelled", "g", string(rune('a'+i))).Inc()
					r.GaugeFunc("race_gauge", "racing gauge", func() float64 { return float64(k) }, "g", string(rune('a'+i)))
					_ = r.Render()
				}
			}
		}(i)
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Errorf("counter lost updates: %d != %d", got, goroutines*perG)
	}
	if got := h.count.Load(); got != goroutines*perG {
		t.Errorf("histogram lost observations: %d != %d", got, goroutines*perG)
	}
}

// TestParseRoundTrip renders a registry and parses it back, checking Find
// against the known observations.
func TestParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	jobs := r.Counter("rt_jobs_total", "jobs", "admission", "computed")
	for i := 0; i < 5; i++ {
		jobs.Inc()
	}
	r.GaugeFunc("rt_depth", "depth", func() float64 { return -2.5 })
	h := r.Histogram("rt_dur_seconds", "dur", []float64{0.1, 1, 10})
	for i := 0; i < 90; i++ {
		h.Observe(0.05) // le 0.1
	}
	for i := 0; i < 10; i++ {
		h.Observe(5) // le 10
	}

	samples, err := ParseText(r.Render())
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := Find(samples, "rt_jobs_total", "admission", "computed"); !ok || s.Value != 5 {
		t.Errorf("rt_jobs_total{admission=computed} = %+v, %v", s, ok)
	}
	if s, ok := Find(samples, "rt_depth"); !ok || s.Value != -2.5 {
		t.Errorf("rt_depth = %+v, %v", s, ok)
	}
	if s, ok := Find(samples, "rt_dur_seconds_count"); !ok || s.Value != 100 {
		t.Errorf("rt_dur_seconds_count = %+v, %v", s, ok)
	}
	if s, ok := Find(samples, "rt_dur_seconds_bucket", "le", "+Inf"); !ok || s.Value != 100 {
		t.Errorf("+Inf bucket = %+v, %v", s, ok)
	}
}

// TestParseValues pins parsing of escaped labels and non-finite values.
func TestParseValues(t *testing.T) {
	text := "a_total{p=\"x\\\"y\\\\z\\nw\"} 3\nweird +Inf\nneg -Inf\n"
	samples, err := ParseText([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := Find(samples, "a_total", "p", "x\"y\\z\nw"); !ok || s.Value != 3 {
		t.Errorf("escaped label sample = %+v, %v", s, ok)
	}
	if s, ok := Find(samples, "weird"); !ok || !math.IsInf(s.Value, 1) {
		t.Errorf("weird = %+v, %v", s, ok)
	}
	if s, ok := Find(samples, "neg"); !ok || !math.IsInf(s.Value, -1) {
		t.Errorf("neg = %+v, %v", s, ok)
	}
}

// TestTraceID checks the shape and uniqueness of generated trace ids.
func TestTraceID(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if len(a) != 32 || len(b) != 32 {
		t.Fatalf("trace id lengths %d, %d (want 32)", len(a), len(b))
	}
	if a == b {
		t.Fatalf("two trace ids collided: %s", a)
	}
	if strings.Trim(a, "0123456789abcdef") != "" {
		t.Fatalf("trace id %q is not lowercase hex", a)
	}
}

// TestEventLogRoundTrip writes events under two traces and reads one back
// filtered, covering the nil-safety contract in passing.
func TestEventLogRoundTrip(t *testing.T) {
	var nilLog *EventLog
	nilLog.Emit(Event{Event: EventJobDone}) // must not panic
	if err := nilLog.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}

	path := filepath.Join(t.TempDir(), "events.jsonl")
	l, err := OpenEventLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Emit(Event{Event: EventJobAccepted, Trace: "aaa", Job: "job-1", Detail: "computed"})
	l.Emit(Event{Event: EventUnitStarted, Trace: "aaa", Job: "job-1", Unit: "0/2"})
	l.Emit(Event{Event: EventJobAccepted, Trace: "bbb", Job: "job-2"})
	l.Emit(Event{Event: EventJobDone, Trace: "aaa", Job: "job-1"})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := ReadEvents(path, "aaa")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("trace aaa has %d events, want 3: %+v", len(got), got)
	}
	wantNames := []string{EventJobAccepted, EventUnitStarted, EventJobDone}
	for i, e := range got {
		if e.Event != wantNames[i] {
			t.Errorf("event %d = %q, want %q", i, e.Event, wantNames[i])
		}
		if e.Trace != "aaa" || e.Job != "job-1" {
			t.Errorf("event %d carries %q/%q", i, e.Trace, e.Job)
		}
		if e.Time.IsZero() {
			t.Errorf("event %d has no timestamp", i)
		}
	}
	all, err := ReadEvents(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 4 {
		t.Fatalf("unfiltered read has %d events, want 4", len(all))
	}
}

// TestSimCounters checks the atomic hot-path bundle and its registry wiring.
func TestSimCounters(t *testing.T) {
	var s SimStats
	s.EngineRuns.Add(2)
	s.BatteryAnalytic.Add(3)
	s.BatteryStepped.Add(1)
	s.BatteryBatches.Add(4)
	snap := s.Snapshot()
	if snap.EngineRuns != 2 || snap.BatteryAnalytic != 3 || snap.BatteryStepped != 1 || snap.BatteryBatches != 4 {
		t.Fatalf("snapshot = %+v", snap)
	}
	prev := snap
	s.EngineRuns.Add(5)
	d := s.Snapshot().Sub(prev)
	if d.EngineRuns != 5 || d.BatteryAnalytic != 0 {
		t.Fatalf("delta = %+v", d)
	}

	r := NewRegistry()
	RegisterSim(r, &s)
	samples, err := ParseText(r.Render())
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := Find(samples, "battsched_engine_runs_total"); !ok || v.Value != 7 {
		t.Errorf("battsched_engine_runs_total = %+v, %v", v, ok)
	}
	if v, ok := Find(samples, "battsched_battery_sims_total", "path", "analytic"); !ok || v.Value != 3 {
		t.Errorf("analytic sims = %+v, %v", v, ok)
	}
	if v, ok := Find(samples, "battsched_battery_sims_total", "path", "stepped"); !ok || v.Value != 1 {
		t.Errorf("stepped sims = %+v, %v", v, ok)
	}
}
