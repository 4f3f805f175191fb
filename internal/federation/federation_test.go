package federation_test

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"battsched/internal/experiments"
	"battsched/internal/federation"
	"battsched/internal/service"
	"battsched/internal/service/client"
)

// fastConfig returns coordinator timings suitable for tests: heartbeats and
// polls in the tens of milliseconds.
func fastConfig(workers ...string) federation.Config {
	return federation.Config{
		Workers:           workers,
		HeartbeatInterval: 20 * time.Millisecond,
		DeadAfter:         2,
		LeaseDuration:     500 * time.Millisecond,
		PollInterval:      10 * time.Millisecond,
		MaxAttempts:       5,
	}
}

// startWorker spins one in-process battschedd behind an httptest server.
func startWorker(t *testing.T, cfg service.Config) (*service.Server, *httptest.Server) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	srv, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// startCoordinator spins a coordinator behind an httptest server.
func startCoordinator(t *testing.T, cfg federation.Config) (*federation.Coordinator, *client.Client) {
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
	return co, client.New(ts.URL)
}

// localArtifact renders the local run's artifact — the byte-identity target.
func localArtifact(t *testing.T, name string, spec experiments.Spec) []byte {
	t.Helper()
	rep, err := experiments.Run(context.Background(), name, spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := experiments.WriteArtifact(&buf, []*experiments.Report{rep}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// blockingHook returns a FaultHook that wedges every unit until the returned
// release func is called (or the worker shuts down).
func blockingHook() (func(context.Context, string, experiments.Shard) error, func()) {
	gate := make(chan struct{})
	var once sync.Once
	hook := func(ctx context.Context, _ string, _ experiments.Shard) error {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-gate:
			return nil
		}
	}
	return hook, func() { once.Do(func() { close(gate) }) }
}

// TestFederatedJobSurvivesWorkerDeath is the acceptance pin: a 4-shard job
// across 2 workers, one killed while its units are in flight, still completes
// with an artifact byte-identical to the local `run -o` file. The dead
// worker's leases are re-dispatched to the survivor.
func TestFederatedJobSurvivesWorkerDeath(t *testing.T) {
	spec := experiments.Spec{Quick: true, Battery: "kibam"}
	want := localArtifact(t, "table2", spec)

	// Worker A wedges every unit: its leases only resolve by A dying.
	hookA, releaseA := blockingHook()
	defer releaseA()
	srvA, tsA := startWorker(t, service.Config{FaultHook: hookA})
	_, tsB := startWorker(t, service.Config{})

	var toA atomic.Int32
	cfg := fastConfig(tsA.URL) // A only, so its units land there first
	// Production-shaped failure budget: the default 3 attempts, and a
	// DeadAfter the heartbeat cannot reach within the test. Recovery must
	// come from the transport-error path marking A down on the first
	// refused connection — without it, re-queued units keep picking the
	// zero-lease corpse (it looks like the freest worker) and burn through
	// MaxAttempts before any heartbeat verdict.
	cfg.MaxAttempts = 3
	cfg.DeadAfter = 1 << 30
	cfg.OnDispatch = func(_ string, _ experiments.Shard, worker string) {
		if worker == tsA.URL {
			toA.Add(1)
		}
	}
	co, c := startCoordinator(t, cfg)

	ctx := context.Background()
	st, err := c.Submit(ctx, service.JobRequest{
		Experiment: "table2", Spec: service.SpecRequestFrom(spec), Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "a unit dispatched to worker A", func() bool { return toA.Load() > 0 })
	co.AddWorker(tsB.URL)
	// Kill A mid-run: its HTTP endpoint vanishes and its in-flight units die.
	tsA.CloseClientConnections()
	tsA.Close()
	srvA.Close()

	final, err := c.Wait(ctx, st.ID, 10*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != service.StateDone {
		t.Fatalf("job = %s (%s), want done", final.State, final.Error)
	}
	got, err := c.ReportArtifact(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("federated artifact differs from local run -o (%d vs %d bytes)", len(got), len(want))
	}
	h := co.Health()
	if h.Fleet == nil || h.Fleet.ExpiredRedispatches == 0 {
		t.Fatalf("fleet health = %+v, want re-dispatches after worker death", h.Fleet)
	}
	if h.Fleet.LiveWorkers != 1 || h.Fleet.Workers != 2 {
		t.Fatalf("fleet health = %+v, want 1 of 2 workers live", h.Fleet)
	}
}

// TestCoordinatorRestartResumesFromJournal pins the journal contract: a
// coordinator killed mid-job resumes it on restart under the original ID,
// folds the partials it already cached without re-dispatching them, and the
// finished artifact is byte-identical to the local run.
func TestCoordinatorRestartResumesFromJournal(t *testing.T) {
	spec := experiments.Spec{Quick: true, Battery: "kibam"}
	want := localArtifact(t, "table2", spec)
	dir := t.TempDir()

	// The worker wedges shard 1/2 until released; 0/2 computes immediately.
	gate := make(chan struct{})
	var execs sync.Map // shard string -> *atomic.Int32
	hook := func(ctx context.Context, _ string, shard experiments.Shard) error {
		n, _ := execs.LoadOrStore(shard.String(), new(atomic.Int32))
		n.(*atomic.Int32).Add(1)
		if shard.String() == "1/2" {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-gate:
			}
		}
		return nil
	}
	_, tsW := startWorker(t, service.Config{FaultHook: hook})

	cfg := fastConfig(tsW.URL)
	cfg.CacheDir = dir
	co1, err := federation.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := co1.Submit(service.JobRequest{
		Experiment: "table2", Spec: service.SpecRequestFrom(spec), Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "shard 0/2 delivered to the coordinator", func() bool {
		js, err := co1.Job(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range js.Shards {
			if sh.Shard == "0/2" && sh.State == service.StateDone {
				return true
			}
		}
		return false
	})
	co1.Close() // kill mid-job: 1/2 still wedged on the worker

	// The worker outlives the coordinator; release the gate so its in-flight
	// 1/2 unit finishes (and lands in the worker's own cache).
	close(gate)

	var dispatched []string
	var mu sync.Mutex
	cfg2 := cfg
	cfg2.OnDispatch = func(_ string, shard experiments.Shard, _ string) {
		mu.Lock()
		dispatched = append(dispatched, shard.String())
		mu.Unlock()
	}
	co2, err := federation.New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer co2.Close()

	// The job resumes under its original ID.
	waitFor(t, "replayed job to finish", func() bool {
		js, err := co2.Job(st.ID)
		if err != nil {
			return false
		}
		if js.State == service.StateFailed {
			t.Fatalf("replayed job failed: %s", js.Error)
		}
		return js.State == service.StateDone
	})
	got, err := co2.Artifact(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("post-restart artifact differs from local run -o (%d vs %d bytes)", len(got), len(want))
	}
	// The cached 0/2 partial folded straight from disk: never re-dispatched.
	mu.Lock()
	defer mu.Unlock()
	for _, sh := range dispatched {
		if sh == "0/2" {
			t.Fatalf("cached unit 0/2 was re-dispatched after restart (dispatches: %v)", dispatched)
		}
	}
	if len(dispatched) == 0 {
		t.Fatal("restart dispatched nothing; expected unit 1/2")
	}
	// And the worker never re-executed either shard: the re-dispatched 1/2
	// was a cache hit (or coalesced onto the in-flight run) there.
	for _, sh := range []string{"0/2", "1/2"} {
		n, ok := execs.Load(sh)
		if !ok {
			t.Fatalf("shard %s never executed on the worker", sh)
		}
		if got := n.(*atomic.Int32).Load(); got != 1 {
			t.Fatalf("shard %s executed %d times on the worker, want exactly 1", sh, got)
		}
	}
}

// TestOneLeaseRecordPerDispatch pins the coordinator's journal to one lease
// record per unit dispatch, the one written when the unit is placed. Both
// units of a 2-shard job are held on their worker, and the journal is read
// once the worker has seen each unit's report long-poll, which the
// coordinator starts only after the submission answered.
func TestOneLeaseRecordPerDispatch(t *testing.T) {
	hook, release := blockingHook()
	defer release()
	srv, err := service.New(service.Config{Workers: 2, FaultHook: hook})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	polled := map[string]bool{} // report paths the worker was asked for
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if p := r.URL.Path; strings.HasPrefix(p, "/v1/jobs/") && strings.HasSuffix(p, "/report") {
			mu.Lock()
			polled[p] = true
			mu.Unlock()
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})

	dir := t.TempDir()
	cfg := fastConfig(ts.URL)
	cfg.CacheDir = dir
	var dispatches atomic.Int32
	cfg.OnDispatch = func(string, experiments.Shard, string) { dispatches.Add(1) }
	co, c := startCoordinator(t, cfg)
	waitFor(t, "worker live", func() bool { return co.Health().Fleet.LiveWorkers == 1 })
	if _, err := c.Submit(context.Background(), service.JobRequest{
		Experiment: "table2", Spec: service.SpecRequest{Quick: true, Battery: "kibam"}, Shards: 2,
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "both units long-polled on the worker", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(polled) == 2
	})
	data, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if leases, n := strings.Count(string(data), `"op":"lease"`), int(dispatches.Load()); leases != n || n != 2 {
		t.Fatalf("journal holds %d lease records for %d dispatches, want one per dispatch of the 2 units:\n%s", leases, n, data)
	}
}

// TestHealthyFleetDispatchesEachUnitOnce pins that a fleet of healthy
// workers runs each unit exactly once, however uneven the units are: two
// one-slot workers hold shard 0/2 for 0.5 s and shard 1/2 for 4 s, the
// coordinator keeps its production lease, attempt and monitor timings, and a
// unit that keeps answering polls finishes where it runs. A duplicate of the
// long unit would occupy the worker that shard 0/2 freed, because the
// coordinator cannot cancel a remote job.
func TestHealthyFleetDispatchesEachUnitOnce(t *testing.T) {
	spec := experiments.Spec{Quick: true, Battery: "kibam"}
	want := localArtifact(t, "table2", spec)

	hold := func(ctx context.Context, _ string, shard experiments.Shard) error {
		d := 500 * time.Millisecond
		if shard.Index == 1 {
			d = 4 * time.Second
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(d):
			return nil
		}
	}
	_, tsA := startWorker(t, service.Config{Workers: 1, FaultHook: hold})
	_, tsB := startWorker(t, service.Config{Workers: 1, FaultHook: hold})

	var mu sync.Mutex
	dispatches := map[string]int{}
	_, c := startCoordinator(t, federation.Config{
		Workers:           []string{tsA.URL, tsB.URL},
		PollInterval:      10 * time.Millisecond,
		HeartbeatInterval: 20 * time.Millisecond,
		OnDispatch: func(_ string, shard experiments.Shard, _ string) {
			mu.Lock()
			dispatches[shard.String()]++
			mu.Unlock()
		},
	})

	ctx := context.Background()
	st, err := c.Submit(ctx, service.JobRequest{
		Experiment: "table2", Spec: service.SpecRequestFrom(spec), Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID, 10*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != service.StateDone {
		t.Fatalf("job = %s (%s), want done", final.State, final.Error)
	}
	got, err := c.ReportArtifact(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("federated artifact differs from local run -o (%d vs %d bytes)", len(got), len(want))
	}
	mu.Lock()
	defer mu.Unlock()
	if len(dispatches) != 2 || dispatches["0/2"] != 1 || dispatches["1/2"] != 1 {
		t.Fatalf("dispatches per unit = %v, want each of 0/2 and 1/2 once", dispatches)
	}
}

// TestLateDeliveryFromExpiredLeaseWins pins the one way a healthy fleet
// runs a unit twice: the unit's lease expires while the coordinator fetches
// its finished partial, and the unit is re-dispatched. The late copy still
// wins and cancels the re-dispatch; the artifact stays byte-identical. Each
// worker's slot stays counted until its copy ends, since the coordinator
// cannot stop a remote job: the expired lease's while its fetch is in
// flight, the cancelled re-dispatch's until its worker finishes it.
func TestLateDeliveryFromExpiredLeaseWins(t *testing.T) {
	spec := experiments.Spec{Quick: true, Battery: "kibam"}
	want := localArtifact(t, "table2", spec)

	// Worker A holds every artifact fetch until the gate opens, so the
	// coordinator stops renewing the lease of the unit A finished.
	srvA, err := service.New(service.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	fetching := make(chan struct{}, 1)
	gate := make(chan struct{})
	var once sync.Once
	openGate := func() { once.Do(func() { close(gate) }) }
	tsA := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/report") {
			select {
			case fetching <- struct{}{}:
			default:
			}
			select {
			case <-gate:
			case <-r.Context().Done():
				return
			}
		}
		srvA.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		openGate()
		tsA.Close()
		srvA.Close()
	})
	defer openGate()
	// Worker B holds every unit until released. Its 3 slots make it the
	// freest worker once A's lease expires, so the re-dispatch lands there.
	hookB, releaseB := blockingHook()
	defer releaseB()
	_, tsB := startWorker(t, service.Config{Workers: 3, FaultHook: hookB})

	var mu sync.Mutex
	dispatches := map[string]int{} // "unit@worker"
	dispatched := func(unit, worker string) int {
		mu.Lock()
		defer mu.Unlock()
		return dispatches[unit+"@"+worker]
	}
	cfg := fastConfig(tsA.URL) // A only, so shard 0/2 lands there first
	cfg.OnDispatch = func(_ string, shard experiments.Shard, worker string) {
		mu.Lock()
		dispatches[shard.String()+"@"+worker]++
		mu.Unlock()
	}
	co, c := startCoordinator(t, cfg)

	ctx := context.Background()
	st, err := c.Submit(ctx, service.JobRequest{
		Experiment: "table2", Spec: service.SpecRequestFrom(spec), Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-fetching:
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for the coordinator to fetch shard 0/2 from worker A")
	}
	co.AddWorker(tsB.URL)
	waitFor(t, "shard 0/2 re-dispatched to worker B", func() bool { return dispatched("0/2", tsB.URL) > 0 })
	leased := func(url string) int {
		for _, w := range co.Workers() {
			if w.URL == url {
				return w.Leased
			}
		}
		t.Fatalf("worker %s not registered", url)
		return 0
	}
	if n := leased(tsA.URL); n != 1 {
		t.Fatalf("worker A counts %d leases while the expired lease's fetch is in flight, want 1", n)
	}
	openGate()
	waitFor(t, "A's late copy of 0/2 delivered and A's slot returned", func() bool {
		js, err := co.Job(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		done := false
		for _, sh := range js.Shards {
			done = done || (sh.Shard == "0/2" && sh.State == service.StateDone)
		}
		return done && leased(tsA.URL) == 0
	})
	if n := leased(tsB.URL); n != 2 {
		t.Fatalf("worker B counts %d leases while it runs both its copies, want 2", n)
	}
	releaseB()

	final, err := c.Wait(ctx, st.ID, 10*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != service.StateDone {
		t.Fatalf("job = %s (%s), want done", final.State, final.Error)
	}
	got, err := c.ReportArtifact(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("federated artifact differs from local run -o (%d vs %d bytes)", len(got), len(want))
	}
	waitFor(t, "every slot returned", func() bool { return leased(tsA.URL) == 0 && leased(tsB.URL) == 0 })
	mu.Lock()
	defer mu.Unlock()
	if len(dispatches) != 3 || dispatches["0/2@"+tsA.URL] != 1 || dispatches["0/2@"+tsB.URL] != 1 || dispatches["1/2@"+tsB.URL] != 1 {
		t.Fatalf("dispatches = %v, want 0/2 once on each worker and 1/2 once on B", dispatches)
	}
	if h := co.Health(); h.Fleet.ExpiredRedispatches != 1 {
		t.Fatalf("fleet health = %+v, want the one re-dispatch", h.Fleet)
	}
}

// TestUnshardedProxyAndCache pins the unsharded path: the coordinator proxies
// the worker's complete artifact verbatim, and a resubmission of the same
// spec answers from the coordinator's cache.
func TestUnshardedProxyAndCache(t *testing.T) {
	spec := experiments.Spec{Quick: true, Battery: "kibam"}
	want := localArtifact(t, "table2", spec)
	_, tsW := startWorker(t, service.Config{})
	_, c := startCoordinator(t, fastConfig(tsW.URL))

	ctx := context.Background()
	req := service.JobRequest{Experiment: "table2", Spec: service.SpecRequestFrom(spec)}
	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID, 10*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != service.StateDone {
		t.Fatalf("job = %s (%s)", final.State, final.Error)
	}
	got, err := c.ReportArtifact(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("proxied unsharded artifact differs from local run -o")
	}

	st2, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached || st2.State != service.StateDone {
		t.Fatalf("resubmission = %+v, want cached done", st2)
	}
	got2, err := c.ReportArtifact(ctx, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, want) {
		t.Fatal("cached artifact differs")
	}
}

// TestCoordinatorValidation pins coordinator-side admission errors.
func TestCoordinatorValidation(t *testing.T) {
	_, tsW := startWorker(t, service.Config{})
	co, _ := startCoordinator(t, fastConfig(tsW.URL))
	cases := []service.JobRequest{
		{Experiment: "nope"},
		{Experiment: "table2", Shard: "0/2"}, // unit jobs are for workers
		{Experiment: "curve", Shards: 4},     // deterministic: no sharding
		{Experiment: "table2", Shards: -1},
	}
	for _, req := range cases {
		if _, err := co.Submit(req); err == nil {
			t.Fatalf("request %+v admitted, want error", req)
		}
	}
	if _, err := co.Artifact("job-999999"); !errors.Is(err, service.ErrUnknownJob) {
		t.Fatalf("unknown artifact err = %v", err)
	}
}

// TestEvictedUnitReportRedispatched pins the coordinator's answer to a
// worker that no longer holds a finished unit's artifact. The worker is
// memory-only with a one-entry report cache, and before its first report
// request is served it finishes the unit and then another job, which evicts
// the unit's artifact: that request answers 410. The coordinator re-dispatches
// the unit, the worker recomputes it, and the job ends with the local
// artifact.
func TestEvictedUnitReportRedispatched(t *testing.T) {
	srv, err := service.New(service.Config{Workers: 1, CacheEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	var once sync.Once
	var gone atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, isReport := strings.CutSuffix(strings.TrimPrefix(r.URL.Path, "/v1/jobs/"), "/report")
		if isReport {
			once.Do(func() {
				if _, err := srv.JobWait(r.Context(), id, time.Minute); err != nil {
					t.Error(err)
					return
				}
				st, err := srv.Submit(service.JobRequest{Experiment: "table2", Spec: service.SpecRequest{Quick: true, Battery: "kibam", Seed: 99}})
				if err == nil {
					_, err = srv.JobWait(r.Context(), st.ID, time.Minute)
				}
				if err != nil {
					t.Error(err)
				}
			})
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sw, r)
		if sw.status == http.StatusGone {
			gone.Add(1)
		}
	}))
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})

	co, c := startCoordinator(t, fastConfig(ts.URL))
	waitFor(t, "the worker live", func() bool { return co.Health().Fleet.LiveWorkers == 1 })
	spec := experiments.Spec{Quick: true, Battery: "kibam"}
	ctx := context.Background()
	st, err := c.Submit(ctx, service.JobRequest{Experiment: "table2", Spec: service.SpecRequestFrom(spec), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID, 5*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != service.StateDone {
		t.Fatalf("job = %s (%s), want done", final.State, final.Error)
	}
	got, err := c.ReportArtifact(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, localArtifact(t, "table2", spec)) {
		t.Fatal("served artifact differs from the local one")
	}
	if n := gone.Load(); n != 1 {
		t.Fatalf("worker answered 410 %d times, want once", n)
	}
	if n := co.Health().Fleet.ExpiredRedispatches; n != 1 {
		t.Fatalf("coordinator re-dispatched %d units, want 1", n)
	}
}

// TestMemoryOnlyCoordinatorKeepsReports pins that a memory-only
// coordinator's report cache holds finished jobs' reports only: with three
// entries it runs three 2-shard jobs before any report is fetched, and every
// report still equals the local run -o. Caching each job's two shard
// partials too, which only a restarted coordinator's Resume reads back from
// the pack, would have evicted the first two reports.
func TestMemoryOnlyCoordinatorKeepsReports(t *testing.T) {
	_, w := startWorker(t, service.Config{})
	cfg := fastConfig(w.URL)
	cfg.CacheEntries = 3
	co, c := startCoordinator(t, cfg)
	waitFor(t, "the worker live", func() bool { return co.Health().Fleet.LiveWorkers == 1 })
	ctx := context.Background()
	var ids []string
	var specs []experiments.Spec
	for seed := range int64(3) {
		spec := experiments.Spec{Quick: true, Battery: "kibam", Seed: seed + 1}
		st, err := c.Submit(ctx, service.JobRequest{Experiment: "table2", Spec: service.SpecRequestFrom(spec), Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		if final, err := c.Wait(ctx, st.ID, 5*time.Millisecond, nil); err != nil || final.State != service.StateDone {
			t.Fatalf("job %s = %+v, %v; want done", st.ID, final, err)
		}
		ids = append(ids, st.ID)
		specs = append(specs, spec)
	}
	for i, id := range ids {
		got, err := c.ReportArtifact(ctx, id)
		if err != nil {
			t.Fatalf("job %d (%s): %v", i, id, err)
		}
		if !bytes.Equal(got, localArtifact(t, "table2", specs[i])) {
			t.Fatalf("job %d (%s): served artifact differs from the local one", i, id)
		}
	}
}

// statusWriter records the status a handler writes.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}
