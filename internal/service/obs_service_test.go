package service_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"battsched/internal/experiments"
	"battsched/internal/obs"
	"battsched/internal/service"
	"battsched/internal/service/client"
	"battsched/internal/service/journal"
)

// scrape fetches url/metrics and parses the exposition.
func scrape(t *testing.T, base string) []obs.Sample {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("GET /metrics Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(body)
	if err != nil {
		t.Fatalf("parse /metrics: %v\n%s", err, body)
	}
	return samples
}

// mustFind fails the test when the sample is absent.
func mustFind(t *testing.T, samples []obs.Sample, name string, labels ...string) float64 {
	t.Helper()
	s, ok := obs.Find(samples, name, labels...)
	if !ok {
		t.Fatalf("metric %s%v not exposed", name, labels)
	}
	return s.Value
}

// TestHealthMatchesMetrics pins the observability contract between the two
// daemon endpoints: every counter and gauge /healthz reports must equal the
// corresponding /metrics series, because both read the same registry-backed
// source. Drives all three admission paths (computed, coalesced, cached)
// so the shared counters are nonzero.
func TestHealthMatchesMetrics(t *testing.T) {
	gate := make(chan struct{})
	srv, err := service.New(service.Config{
		Workers: 2,
		FaultHook: func(ctx context.Context, _ string, _ experiments.Shard) error {
			select {
			case <-gate:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := experiments.Spec{Quick: true, Battery: "kibam"}
	req := service.JobRequest{Experiment: "table2", Spec: service.SpecRequest(spec)}

	// Leader + coalesced follower while the gate holds the unit.
	var wg sync.WaitGroup
	ids := make([]string, 2)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := srv.Submit(req)
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	close(gate)
	for _, id := range ids {
		waitState(t, srv, id, service.StateDone)
	}
	// Third submission of the same spec: served from the cache.
	st, err := srv.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateDone || !st.Cached {
		t.Fatalf("resubmission state=%s cached=%v, want cached done", st.State, st.Cached)
	}

	h := srv.Health()
	samples := scrape(t, ts.URL)

	if h.CoalescedJobs != 1 {
		t.Fatalf("Health.CoalescedJobs = %d, want 1", h.CoalescedJobs)
	}
	if got := mustFind(t, samples, "battsched_jobs_total", "admission", "computed"); got != 1 {
		t.Errorf("jobs_total{computed} = %v, want 1", got)
	}
	if got := mustFind(t, samples, "battsched_jobs_total", "admission", "coalesced"); got != float64(h.CoalescedJobs) {
		t.Errorf("jobs_total{coalesced} = %v, Health says %d", got, h.CoalescedJobs)
	}
	if got := mustFind(t, samples, "battsched_jobs_total", "admission", "cached"); got != 1 {
		t.Errorf("jobs_total{cached} = %v, want 1", got)
	}
	if h.CacheHits < 1 {
		t.Fatalf("Health.CacheHits = %d, want >= 1", h.CacheHits)
	}
	for _, pin := range []struct {
		metric string
		labels []string
		health int
	}{
		{"battsched_cache_hits_total", nil, h.CacheHits},
		{"battsched_cache_misses_total", nil, h.CacheMisses},
		{"battsched_cache_write_errors_total", nil, h.CacheWriteErrors},
		{"battsched_queue_depth", nil, h.QueueDepth},
		{"battsched_queue_capacity", nil, h.QueueCapacity},
		{"battsched_in_flight", nil, h.InFlight},
		{"battsched_workers", nil, h.Workers},
		{"battsched_jobs_tracked", nil, h.Jobs},
		{"battsched_cache_entries", nil, h.CacheEntries},
	} {
		if got := mustFind(t, samples, pin.metric, pin.labels...); got != float64(pin.health) {
			t.Errorf("%s = %v, /healthz says %d", pin.metric, got, pin.health)
		}
	}
	if got := mustFind(t, samples, "battsched_unit_duration_seconds_count"); got < 1 {
		t.Errorf("unit_duration_seconds_count = %v, want >= 1 after a computed job", got)
	}
	if got := mustFind(t, samples, "battsched_unit_duration_seconds_bucket", "le", "+Inf"); got < 1 {
		t.Errorf("unit_duration_seconds_bucket{+Inf} = %v, want >= 1", got)
	}
	// The compute-core counters ride on the same registry: the computed job
	// ran the scheduler engine in-process.
	if got := mustFind(t, samples, "battsched_engine_runs_total"); got < 1 {
		t.Errorf("engine_runs_total = %v, want >= 1", got)
	}
}

// TestServiceTraceEvents pins the single-daemon half of the tracing story:
// a submission's client-chosen trace id threads every event-log record of
// the job's lifecycle, so one ReadEvents filter reconstructs it.
func TestServiceTraceEvents(t *testing.T) {
	dir := t.TempDir()
	_, c := startDaemon(t, service.Config{Workers: 2, CacheDir: dir})

	const trace = "feedfacefeedfacefeedfacefeedface"
	req := service.JobRequest{
		Experiment: "table2",
		Spec:       service.SpecRequest(experiments.Spec{Quick: true, Battery: "kibam"}),
		TraceID:    trace,
		Shards:     2,
	}
	st := submitAndWait(t, c, req)
	if st.TraceID != trace {
		t.Fatalf("status TraceID = %q, want %q (header did not round-trip)", st.TraceID, trace)
	}

	events, err := obs.ReadEvents(filepath.Join(dir, "events.jsonl"), trace)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, e := range events {
		counts[e.Event]++
		if e.Job != st.ID {
			t.Errorf("event %s carries job %q, want %q", e.Event, e.Job, st.ID)
		}
	}
	if counts[obs.EventJobAccepted] != 1 {
		t.Errorf("job_accepted count = %d, want 1", counts[obs.EventJobAccepted])
	}
	if counts[obs.EventUnitStarted] != 2 || counts[obs.EventUnitFinished] != 2 {
		t.Errorf("unit events = %d started / %d finished, want 2/2 (2 shards)",
			counts[obs.EventUnitStarted], counts[obs.EventUnitFinished])
	}
	if counts[obs.EventMerge] != 1 {
		t.Errorf("merge count = %d, want 1", counts[obs.EventMerge])
	}
	if counts[obs.EventJobDone] != 1 {
		t.Errorf("job_done count = %d, want 1", counts[obs.EventJobDone])
	}
	// Lifecycle ordering: admission precedes execution precedes completion.
	// (The cache lookup — and its cache_miss event — happens before
	// admission, so job_accepted is not necessarily the very first record.)
	idx := func(name string) int {
		for i, e := range events {
			if e.Event == name {
				return i
			}
		}
		return -1
	}
	if len(events) == 0 || events[len(events)-1].Event != obs.EventJobDone {
		t.Errorf("last event = %v, want job_done", events)
	} else if a, u := idx(obs.EventJobAccepted), idx(obs.EventUnitStarted); a > u {
		t.Errorf("job_accepted at index %d after unit_started at %d", a, u)
	}

	// An unrelated trace id filters to nothing: the log is per-trace clean.
	other, err := obs.ReadEvents(filepath.Join(dir, "events.jsonl"), "0123456789abcdef0123456789abcdef")
	if err != nil {
		t.Fatal(err)
	}
	if len(other) != 0 {
		t.Errorf("unrelated trace matched %d events", len(other))
	}
}

// TestClientTraceHeader pins that the typed client stamps X-Trace-Id on
// submissions and the daemon adopts it (rather than minting its own).
func TestClientTraceHeader(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	srv, err := service.New(service.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	inner := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			mu.Lock()
			seen = append(seen, obs.TraceFromRequest(r))
			mu.Unlock()
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()
	c := client.New(ts.URL)

	st, err := c.Submit(context.Background(), service.JobRequest{
		Experiment: "table2",
		Spec:       service.SpecRequest(experiments.Spec{Quick: true, Battery: "kibam"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 1 || len(seen[0]) != 32 {
		t.Fatalf("X-Trace-Id headers seen: %q, want one 32-hex id", seen)
	}
	if st.TraceID != seen[0] {
		t.Fatalf("status TraceID %q != header %q", st.TraceID, seen[0])
	}
}

// TestTraceIDValidatedAtAdmission pins the X-Trace-Id bound. An id over 128
// bytes, or with a byte outside [A-Za-z0-9._-], is 400 and never reaches the
// journal; obs.NewTraceID's hex ids and the benchmark's job3-000012 form are
// admitted and echoed, and their jobs, held unfinished until Close, resume
// after a restart over the same directory. (A 900,000-byte id of '<'
// journaled as a 5.4 MB line once made the restart forget every job.) A bad
// id an older daemon journaled is replaced on replay, so a coordinator can
// still forward the job's units to workers that check it.
func TestTraceIDValidatedAtAdmission(t *testing.T) {
	dir := t.TempDir()
	srv, err := service.New(service.Config{Workers: 1, CacheDir: dir, FaultHook: gateHook(make(chan struct{}))})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()
	req := func(seed int64, trace string) service.JobRequest {
		return service.JobRequest{
			Experiment: "table2",
			Spec:       service.SpecRequest{Quick: true, Battery: "kibam", Sets: 1, Seed: seed},
			TraceID:    trace,
		}
	}
	for _, bad := range []string{strings.Repeat("<", 900_000), strings.Repeat("a", 129), "job 1", "a/b", "é"} {
		_, err := c.Submit(ctx, req(1, bad))
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
			t.Fatalf("trace id of %d bytes starting %.8q: err = %v, want HTTP 400", len(bad), bad, err)
		}
	}
	var ids []string
	for i, good := range []string{obs.NewTraceID(), "job3-000012", strings.Repeat("Z", 128), "a.b_c-9"} {
		st, err := c.Submit(ctx, req(int64(i+1), good))
		if err != nil {
			t.Fatalf("trace id %q: %v", good, err)
		}
		if st.TraceID != good || st.Cached {
			t.Fatalf("trace id %q: status %+v, want a computed job echoing it", good, st)
		}
		ids = append(ids, st.ID)
	}
	srv.Close()
	jr, _, err := journal.Open(filepath.Join(dir, "journal.jsonl"), false)
	if err != nil {
		t.Fatal(err)
	}
	old := journal.Accept{ID: "job-000099", Experiment: "table2", Trace: "job 99",
		Spec: json.RawMessage(`{"quick":true,"battery":"kibam","sets":1,"seed":9}`)}
	if err := jr.Accept(old); err != nil {
		t.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}

	again, err := service.New(service.Config{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	for _, id := range append(ids, old.ID) {
		if _, err := again.Job(id); err != nil {
			t.Fatalf("after restart: %v", err)
		}
		waitState(t, again, id, service.StateDone)
	}
	if st, _ := again.Job(old.ID); len(st.TraceID) != 32 {
		t.Fatalf("replayed job's trace id = %q, want a fresh 32-hex id", st.TraceID)
	}
}
