package federation_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"battsched/internal/experiments"
	"battsched/internal/federation"
	"battsched/internal/obs"
	"battsched/internal/service"
	"battsched/internal/service/client"
)

// scrape fetches base/metrics and parses the exposition.
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

// startTracedCoordinator is startCoordinator exposing the httptest base URL,
// which the observability tests need for GET /metrics.
func startTracedCoordinator(t *testing.T, cfg federation.Config) (*federation.Coordinator, *client.Client, string) {
	t.Helper()
	co, err := federation.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(co.Handler())
	t.Cleanup(func() {
		ts.Close()
		co.Close()
	})
	return co, client.New(ts.URL), ts.URL
}

// TestFleetHealthMatchesMetrics pins the coordinator's observability
// contract: the fleet view /healthz reports must equal the corresponding
// /metrics series (shared counters read the same registry; gauges read the
// same mutex-guarded fields).
func TestFleetHealthMatchesMetrics(t *testing.T) {
	_, tsA := startWorker(t, service.Config{})
	_, tsB := startWorker(t, service.Config{})
	co, c, base := startTracedCoordinator(t, fastConfig(tsA.URL, tsB.URL))

	waitFor(t, "both workers live", func() bool {
		h := co.Health()
		return h.Fleet != nil && h.Fleet.LiveWorkers == 2
	})

	spec := experiments.Spec{Quick: true, Battery: "kibam"}
	req := service.JobRequest{Experiment: "table2", Spec: service.SpecRequest(spec), Shards: 2}
	ctx := context.Background()
	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, st.ID, 0, nil); err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateDone {
		t.Fatalf("job state %s: %s", st.State, st.Error)
	}
	// Resubmission: cache-served, so the cached admission counter moves too.
	if st, err = c.Submit(ctx, req); err != nil {
		t.Fatal(err)
	} else if !st.Cached {
		t.Fatalf("resubmission not served from cache: %+v", st)
	}

	h := co.Health()
	if h.Fleet == nil {
		t.Fatal("coordinator Health has no fleet view")
	}
	samples := scrape(t, base)

	if got := mustFind(t, samples, "battsched_jobs_total", "admission", "computed"); got != 1 {
		t.Errorf("jobs_total{computed} = %v, want 1", got)
	}
	if got := mustFind(t, samples, "battsched_jobs_total", "admission", "cached"); got != 1 {
		t.Errorf("jobs_total{cached} = %v, want 1", got)
	}
	for _, pin := range []struct {
		metric string
		health int
	}{
		{"battsched_fleet_workers", h.Fleet.Workers},
		{"battsched_fleet_live_workers", h.Fleet.LiveWorkers},
		{"battsched_fleet_slots", h.Fleet.Slots},
		{"battsched_fleet_free_slots", h.Fleet.FreeSlots},
		{"battsched_fleet_queued_units", h.Fleet.QueuedUnits},
		{"battsched_fleet_leased_units", h.Fleet.LeasedUnits},
		{"battsched_fleet_expired_redispatches_total", h.Fleet.ExpiredRedispatches},
		{"battsched_cache_hits_total", h.CacheHits},
		{"battsched_cache_misses_total", h.CacheMisses},
		{"battsched_queue_depth", h.QueueDepth},
		{"battsched_jobs_tracked", h.Jobs},
		{"battsched_cache_entries", h.CacheEntries},
	} {
		if got := mustFind(t, samples, pin.metric); got != float64(pin.health) {
			t.Errorf("%s = %v, /healthz says %d", pin.metric, got, pin.health)
		}
	}
	if got := mustFind(t, samples, "battsched_unit_duration_seconds_count"); got < 2 {
		t.Errorf("unit_duration_seconds_count = %v, want >= 2 (2 shard units delivered)", got)
	}
	// Per-worker series, labelled by worker URL, both live.
	for _, url := range []string{tsA.URL, tsB.URL} {
		if got := mustFind(t, samples, "battsched_worker_up", "worker", url); got != 1 {
			t.Errorf("worker_up{worker=%s} = %v, want 1", url, got)
		}
	}
}

// TestFederatedTraceRoundTrip is the tracing acceptance pin: one
// client-chosen trace id, stamped as X-Trace-Id on the submission, threads
// the coordinator's event log AND the worker daemons' event logs, so
// filtering every log by that one id reconstructs the job's complete
// fleet-wide lifecycle.
func TestFederatedTraceRoundTrip(t *testing.T) {
	coordDir, dirA, dirB := t.TempDir(), t.TempDir(), t.TempDir()
	_, tsA := startWorker(t, service.Config{CacheDir: dirA})
	_, tsB := startWorker(t, service.Config{CacheDir: dirB})
	cfg := fastConfig(tsA.URL, tsB.URL)
	cfg.CacheDir = coordDir
	co, c, _ := startTracedCoordinator(t, cfg)

	waitFor(t, "both workers live", func() bool {
		h := co.Health()
		return h.Fleet != nil && h.Fleet.LiveWorkers == 2
	})

	const trace = "cafe0123cafe0123cafe0123cafe0123"
	req := service.JobRequest{
		Experiment: "table2",
		Spec:       service.SpecRequest(experiments.Spec{Quick: true, Battery: "kibam"}),
		TraceID:    trace,
		Shards:     4,
	}
	ctx := context.Background()
	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st.TraceID != trace {
		t.Fatalf("status TraceID = %q, want %q", st.TraceID, trace)
	}
	if st, err = c.Wait(ctx, st.ID, 0, nil); err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateDone {
		t.Fatalf("job state %s: %s", st.State, st.Error)
	}

	// Coordinator log: admission, one lease and one delivery per unit, the
	// merge, and the terminal state — all under the submitted trace id.
	coEvents, err := obs.ReadEvents(filepath.Join(coordDir, "events.jsonl"), trace)
	if err != nil {
		t.Fatal(err)
	}
	coCounts := map[string]int{}
	for _, e := range coEvents {
		coCounts[e.Event]++
		if e.Event == obs.EventUnitLeased && e.Worker == "" {
			t.Errorf("unit_leased event without a worker: %+v", e)
		}
	}
	if coCounts[obs.EventJobAccepted] != 1 {
		t.Errorf("coordinator job_accepted = %d, want 1", coCounts[obs.EventJobAccepted])
	}
	if coCounts[obs.EventUnitLeased] < 4 {
		t.Errorf("coordinator unit_leased = %d, want >= 4", coCounts[obs.EventUnitLeased])
	}
	if coCounts[obs.EventUnitFinished] != 4 {
		t.Errorf("coordinator unit_finished = %d, want 4", coCounts[obs.EventUnitFinished])
	}
	if coCounts[obs.EventMerge] != 1 || coCounts[obs.EventJobDone] != 1 {
		t.Errorf("coordinator merge/job_done = %d/%d, want 1/1",
			coCounts[obs.EventMerge], coCounts[obs.EventJobDone])
	}

	// Worker logs: the coordinator forwards X-Trace-Id on every dispatched
	// unit, so each worker's execution records carry the same id. Units may
	// land on either worker; merge both logs.
	var wEvents []obs.Event
	for _, dir := range []string{dirA, dirB} {
		evs, err := obs.ReadEvents(filepath.Join(dir, "events.jsonl"), trace)
		if err != nil {
			t.Fatal(err)
		}
		wEvents = append(wEvents, evs...)
	}
	wCounts := map[string]int{}
	for _, e := range wEvents {
		wCounts[e.Event]++
	}
	if wCounts[obs.EventJobAccepted] != 4 {
		t.Errorf("worker job_accepted = %d, want 4 (one per dispatched unit)", wCounts[obs.EventJobAccepted])
	}
	if wCounts[obs.EventUnitStarted] != 4 || wCounts[obs.EventUnitFinished] != 4 {
		t.Errorf("worker unit events = %d started / %d finished, want 4/4",
			wCounts[obs.EventUnitStarted], wCounts[obs.EventUnitFinished])
	}

	// An unrelated id filters everything out: the logs stay per-trace clean.
	other, err := obs.ReadEvents(filepath.Join(coordDir, "events.jsonl"), obs.NewTraceID())
	if err != nil {
		t.Fatal(err)
	}
	if len(other) != 0 {
		t.Errorf("unrelated trace matched %d coordinator events", len(other))
	}
}

// TestWorkerDownEventReason pins the structured worker-down verdict: killing
// a worker's transport mid-heartbeat produces a worker_down event whose
// Reason is heartbeat-miss, and the per-reason counter moves with it.
func TestWorkerDownEventReason(t *testing.T) {
	coordDir := t.TempDir()
	_, tsA := startWorker(t, service.Config{})
	cfg := fastConfig(tsA.URL)
	cfg.CacheDir = coordDir
	co, _, base := startTracedCoordinator(t, cfg)

	waitFor(t, "worker live", func() bool {
		h := co.Health()
		return h.Fleet != nil && h.Fleet.LiveWorkers == 1
	})
	tsA.CloseClientConnections()
	tsA.Close()
	waitFor(t, "worker marked down", func() bool {
		h := co.Health()
		return h.Fleet != nil && h.Fleet.LiveWorkers == 0
	})

	events, err := obs.ReadEvents(filepath.Join(coordDir, "events.jsonl"), "")
	if err != nil {
		t.Fatal(err)
	}
	var down *obs.Event
	for i := range events {
		if events[i].Event == obs.EventWorkerDown {
			down = &events[i]
		}
	}
	if down == nil {
		t.Fatal("no worker_down event emitted")
	}
	if down.Reason != obs.ReasonHeartbeatMiss {
		t.Errorf("worker_down reason = %q, want %q", down.Reason, obs.ReasonHeartbeatMiss)
	}
	if down.Worker != tsA.URL {
		t.Errorf("worker_down worker = %q, want %q", down.Worker, tsA.URL)
	}
	samples := scrape(t, base)
	if got := mustFind(t, samples, "battsched_worker_down_total", "reason", obs.ReasonHeartbeatMiss); got < 1 {
		t.Errorf("worker_down_total{heartbeat-miss} = %v, want >= 1", got)
	}
	if got := mustFind(t, samples, "battsched_worker_up", "worker", tsA.URL); got != 0 {
		t.Errorf("worker_up{%s} = %v after death, want 0", tsA.URL, got)
	}
}
