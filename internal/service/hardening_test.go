package service_test

// Hardening pins for the serving layer: singleflight coalescing, the durable
// job journal (kill-and-restart resume), graceful drain, 429/Retry-After
// backpressure with client backoff, surfaced cache write failures, and the
// queue-full + MaxJobs eviction paths under concurrent submitters. All tests
// drive nondeterminism out through Config.FaultHook gates.

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"battsched/internal/experiments"
	"battsched/internal/service"
	"battsched/internal/service/client"
)

// gateHook returns a fault hook that blocks every unit until gate closes (or
// the daemon context ends), making in-flight and queued states controllable.
func gateHook(gate chan struct{}) func(context.Context, string, experiments.Shard) error {
	return func(ctx context.Context, _ string, _ experiments.Shard) error {
		select {
		case <-gate:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// waitState polls the server directly until the job reaches want.
func waitState(t *testing.T, srv *service.Server, id, want string) service.JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := srv.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State == service.StateDone || st.State == service.StateFailed {
			t.Fatalf("job %s reached %s (%s), want %s", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCoalescedSubmissionsExecuteOnce is the singleflight acceptance pin: N
// concurrent submissions of one spec execute the experiment exactly once —
// one leader, N-1 followers marked Coalesced — and every job resolves with
// the byte-identical artifact.
func TestCoalescedSubmissionsExecuteOnce(t *testing.T) {
	const n = 6
	gate := make(chan struct{})
	var units atomic.Int32
	srv, err := service.New(service.Config{
		Workers: 2,
		FaultHook: func(ctx context.Context, _ string, _ experiments.Shard) error {
			units.Add(1)
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

	spec := experiments.Spec{Quick: true, Battery: "kibam"}
	req := service.JobRequest{Experiment: "table2", Spec: service.SpecRequest(spec)}
	var wg sync.WaitGroup
	ids := make([]string, n)
	coalesced := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := srv.Submit(req)
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			ids[i], coalesced[i] = st.ID, st.Coalesced
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	close(gate)

	want := localArtifact(t, "table2", spec)
	leaders := 0
	for i, id := range ids {
		st := waitState(t, srv, id, service.StateDone)
		if !st.Coalesced {
			leaders++
		}
		if st.Coalesced != coalesced[i] {
			t.Fatalf("job %s flipped Coalesced from %v to %v", id, coalesced[i], st.Coalesced)
		}
		got, err := srv.Artifact(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("job %s artifact differs from local run", id)
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leader jobs, want exactly 1", leaders)
	}
	if got := units.Load(); got != 1 {
		t.Fatalf("experiment executed %d times, want exactly once", got)
	}
	if h := srv.Health(); h.CoalescedJobs != n-1 {
		t.Fatalf("Health.CoalescedJobs = %d, want %d", h.CoalescedJobs, n-1)
	}
}

// TestJournalKillRestartResumes is the durability acceptance pin: a daemon
// killed with one unit in flight and one job still queued is relaunched over
// the same directory, resumes both jobs under their original IDs, and serves
// artifacts byte-identical to an uninterrupted run's.
func TestJournalKillRestartResumes(t *testing.T) {
	dir := t.TempDir()
	specA := experiments.Spec{Quick: true, Battery: "kibam"}
	specB := experiments.Spec{Quick: true, Battery: "kibam", Seed: 7}

	srv1, err := service.New(service.Config{
		Workers: 1, CacheDir: dir,
		FaultHook: func(ctx context.Context, _ string, _ experiments.Shard) error {
			<-ctx.Done() // wedge until the kill
			return ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := srv1.Submit(service.JobRequest{Experiment: "table2", Spec: service.SpecRequest(specA), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := srv1.Submit(service.JobRequest{Experiment: "table2", Spec: service.SpecRequest(specB)})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, srv1, a.ID, service.StateRunning)
	srv1.Close() // the kill: abandons the in-flight unit and the queued job

	for _, id := range []string{a.ID, b.ID} {
		st, err := srv1.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != service.StateFailed || !strings.Contains(st.Error, "shut down") {
			t.Fatalf("after kill, job %s = %s (%q), want failed with shutdown message", id, st.State, st.Error)
		}
	}

	// Relaunch over the same directory: both jobs replay under their
	// original IDs and run to completion.
	srv2, err := service.New(service.Config{Workers: 2, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	for _, tc := range []struct {
		id   string
		spec experiments.Spec
	}{{a.ID, specA}, {b.ID, specB}} {
		st := waitState(t, srv2, tc.id, service.StateDone)
		if st.Cached {
			t.Fatalf("replayed job %s reported cached; it never finished before the kill", tc.id)
		}
		got, err := srv2.Artifact(tc.id)
		if err != nil {
			t.Fatal(err)
		}
		if want := localArtifact(t, "table2", tc.spec); !bytes.Equal(got, want) {
			t.Fatalf("resumed job %s artifact differs from uninterrupted run", tc.id)
		}
	}

	// New submissions continue the ID sequence past the replayed jobs.
	c, err := srv2.Submit(service.JobRequest{Experiment: "table2", Spec: service.SpecRequest(specA)})
	if err != nil {
		t.Fatal(err)
	}
	if c.ID <= b.ID {
		t.Fatalf("post-restart ID %s does not continue past %s", c.ID, b.ID)
	}
	if !c.Cached {
		t.Fatal("post-restart resubmission of a finished spec should hit the cache")
	}
}

// TestGracefulDrain pins Shutdown: admissions stop (health turns "draining"
// and /healthz answers 503), the in-flight unit finishes and its job
// completes normally, and the still-queued job is terminal-marked failed
// with the shutdown message.
func TestGracefulDrain(t *testing.T) {
	gate := make(chan struct{})
	srv, err := service.New(service.Config{Workers: 1, FaultHook: gateHook(gate)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	specA := experiments.Spec{Quick: true, Battery: "kibam"}
	a, err := srv.Submit(service.JobRequest{Experiment: "table2", Spec: service.SpecRequest(specA)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := srv.Submit(service.JobRequest{Experiment: "table2", Spec: service.SpecRequest{Quick: true, Battery: "kibam", Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, srv, a.ID, service.StateRunning)

	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Shutdown(context.Background())
	}()
	for srv.Health().Status != "draining" {
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz while draining = %d, want 503", resp.StatusCode)
	}
	if _, err := srv.Submit(service.JobRequest{Experiment: "table2", Spec: service.SpecRequest{Quick: true}}); !errors.Is(err, service.ErrDraining) {
		t.Fatalf("submit while draining err = %v, want ErrDraining", err)
	}

	close(gate) // let the in-flight unit finish; drain then completes
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Shutdown did not complete after the in-flight unit finished")
	}

	stA, err := srv.Job(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if stA.State != service.StateDone {
		t.Fatalf("in-flight job after drain = %s (%s), want done", stA.State, stA.Error)
	}
	got, err := srv.Artifact(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := localArtifact(t, "table2", specA); !bytes.Equal(got, want) {
		t.Fatal("drained job's artifact differs from local run")
	}
	stB, err := srv.Job(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if stB.State != service.StateFailed || !strings.Contains(stB.Error, "shut down") {
		t.Fatalf("queued job after drain = %s (%q), want failed with shutdown message", stB.State, stB.Error)
	}
}

// TestCloseMarksQueuedFailed pins the zombie fix: after Close, no job is
// left in state queued or running — all are terminal with a distinct
// shutdown message.
func TestCloseMarksQueuedFailed(t *testing.T) {
	srv, err := service.New(service.Config{Workers: 1, FaultHook: gateHook(nil)})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for seed := int64(1); seed <= 3; seed++ {
		st, err := srv.Submit(service.JobRequest{
			Experiment: "table2",
			Spec:       service.SpecRequest{Quick: true, Battery: "kibam", Seed: seed},
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	srv.Close()
	for _, id := range ids {
		st, err := srv.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != service.StateFailed || !strings.Contains(st.Error, "shut down") {
			t.Fatalf("job %s after Close = %s (%q), want failed with shutdown message", id, st.State, st.Error)
		}
	}
}

// TestRetryAfterAndClientBackoff pins the backpressure contract end to end:
// a full queue answers 429 with a positive whole-second Retry-After header,
// and a client with MaxRetries set absorbs the rejection and lands the job
// once capacity frees up.
func TestRetryAfterAndClientBackoff(t *testing.T) {
	gate := make(chan struct{})
	srv, err := service.New(service.Config{Workers: 1, QueueCapacity: 1, FaultHook: gateHook(gate)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Fill the daemon: one unit wedged in flight, one unit queued.
	a, err := srv.Submit(service.JobRequest{Experiment: "table2", Spec: service.SpecRequest{Quick: true, Battery: "kibam"}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, srv, a.ID, service.StateRunning)
	if _, err := srv.Submit(service.JobRequest{Experiment: "table2", Spec: service.SpecRequest{Quick: true, Battery: "kibam", Seed: 2}}); err != nil {
		t.Fatal(err)
	}

	// Raw overflow submission: 429 plus a usable Retry-After header.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"experiment":"table2","spec":{"quick":true,"battery":"kibam","seed":3}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d, want 429", resp.StatusCode)
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want a positive whole-second value", resp.Header.Get("Retry-After"))
	}

	// Typed client with retries: the first attempt is rejected (queue still
	// full), the rejection's backoff opens the gate, and a later attempt
	// succeeds against the drained queue.
	c := client.New(ts.URL)
	c.MaxRetries = 8
	c.RetryBaseDelay = 10 * time.Millisecond
	var retries atomic.Int32
	var open sync.Once
	c.OnRetry = func(status, attempt int, delay time.Duration) {
		if status != http.StatusTooManyRequests {
			t.Errorf("OnRetry status = %d", status)
		}
		retries.Add(1)
		open.Do(func() { close(gate) })
	}
	st, err := c.Submit(context.Background(), service.JobRequest{
		Experiment: "table2", Spec: service.SpecRequest{Quick: true, Battery: "kibam", Seed: 4},
	})
	if err != nil {
		t.Fatalf("retried submit failed: %v", err)
	}
	if retries.Load() == 0 {
		t.Fatal("client accepted without observing a 429 retry")
	}
	final, err := c.Wait(context.Background(), st.ID, 5*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != service.StateDone {
		t.Fatalf("retried job state = %s: %s", final.State, final.Error)
	}
}

// TestShardCountAboveQueueBound pins that a job with more shards than the
// queue bound holds is a bad request, rejected before the server builds one
// unit per shard: 5,000,000 shards against the default 64-unit bound fail
// with ErrBadConfig having allocated under 1 MiB.
func TestShardCountAboveQueueBound(t *testing.T) {
	srv, err := service.New(service.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = srv.Submit(service.JobRequest{
		Experiment: "table2", Spec: service.SpecRequest{Quick: true, Battery: "kibam"}, Shards: 5_000_000,
	})
	runtime.ReadMemStats(&after)
	if !errors.Is(err, experiments.ErrBadConfig) {
		t.Errorf("Submit of 5,000,000 shards = %v, want ErrBadConfig", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Errorf("rejecting 5,000,000 shards allocated %d bytes, want under 1 MiB", n)
	}
}

// TestCacheWriteErrorSurfaced pins the swallowed-error fix: when the report
// cache cannot persist an artifact, the job still completes from memory and
// Health counts the failure. The memory tier keeps the artifact, so a
// resubmission is still answered from the cache.
func TestCacheWriteErrorSurfaced(t *testing.T) {
	dir := t.TempDir()
	srv, err := service.New(service.Config{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Break the cache directory out from under the daemon: writes now fail.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := srv.Submit(service.JobRequest{Experiment: "table2", Spec: service.SpecRequest{Quick: true, Battery: "kibam"}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, srv, st.ID, service.StateDone)
	first, err := srv.Artifact(st.ID)
	if err != nil {
		t.Fatalf("job with failed cache write lost its artifact: %v", err)
	}
	if h := srv.Health(); h.CacheWriteErrors < 1 {
		t.Fatalf("Health.CacheWriteErrors = %d, want >= 1", h.CacheWriteErrors)
	}

	again, err := srv.Submit(service.JobRequest{Experiment: "table2", Spec: service.SpecRequest{Quick: true, Battery: "kibam"}})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatalf("resubmission after a failed cache write = %+v, want cached", again)
	}
	if got, err := srv.Artifact(again.ID); err != nil || !bytes.Equal(got, first) {
		t.Fatalf("cached resubmission's artifact differs from the first (%d vs %d bytes, %v)", len(got), len(first), err)
	}
}

// TestConcurrentSubmitQueueFullAndEviction fills a wedged daemon to its
// queue bound, then hammers it with concurrent submitters (race-enabled):
// duplicates of pending specs coalesce past the full queue, novel specs are
// rejected with ErrQueueFull, every accepted job reaches a terminal state
// after release (no lost wakeups, no double-finalize under the race
// detector), evicted IDs answer ErrUnknownJob, and artifacts stay
// cache-resolvable after eviction.
func TestConcurrentSubmitQueueFullAndEviction(t *testing.T) {
	const (
		submitters = 8
		perWorker  = 6
		maxJobs    = 6
	)
	gate := make(chan struct{})
	srv, err := service.New(service.Config{
		Workers: 2, QueueCapacity: 3, MaxJobs: maxJobs,
		FaultHook: gateHook(gate),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	submit := func(seed int64) (service.JobStatus, error) {
		return srv.Submit(service.JobRequest{
			Experiment: "table2",
			Spec:       service.SpecRequest{Quick: true, Battery: "kibam", Seed: seed},
		})
	}

	// Fill: submit novel specs until the queue bound rejects one. With the
	// workers wedged, between 5 and 7 land (2 in flight + 3 queued, plus
	// dequeue timing).
	var accepted []string
	var pending int64
	for {
		st, err := submit(pending + 1)
		if errors.Is(err, service.ErrQueueFull) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		pending++
		accepted = append(accepted, st.ID)
		if pending > 20 {
			t.Fatal("queue never reported full")
		}
	}

	// Hammer the full daemon concurrently. Seeds <= pending coalesce onto
	// the wedged leaders (bypassing queue capacity); novel seeds keep
	// hitting the bound.
	var mu sync.Mutex
	var rejected, coalesced int
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				seed := int64(1 + (w*perWorker+i)%int(pending+3))
				st, err := submit(seed)
				switch {
				case errors.Is(err, service.ErrQueueFull):
					if seed <= pending {
						t.Errorf("seed %d should have coalesced, got queue-full", seed)
						return
					}
					mu.Lock()
					rejected++
					mu.Unlock()
				case err != nil:
					t.Errorf("submitter %d: %v", w, err)
					return
				default:
					mu.Lock()
					accepted = append(accepted, st.ID)
					if st.Coalesced {
						coalesced++
					}
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if rejected == 0 || coalesced == 0 {
		t.Fatalf("rejected=%d coalesced=%d; the test needs both paths exercised", rejected, coalesced)
	}
	close(gate)

	// Every accepted job must reach done or be evicted as terminal — a job
	// stuck queued/running forever is a lost wakeup.
	deadline := time.Now().Add(30 * time.Second)
	evicted := 0
	for _, id := range accepted {
		for {
			st, err := srv.Job(id)
			if errors.Is(err, service.ErrUnknownJob) {
				evicted++ // only terminal jobs enter the eviction queue
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if st.State == service.StateDone {
				break
			}
			if st.State == service.StateFailed {
				t.Fatalf("job %s failed: %s", id, st.Error)
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s never reached a terminal state (stuck %s)", id, st.State)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Resubmitting every computed seed answers from the report cache even
	// for evicted job IDs, and the cache-hit submissions trigger eviction
	// down to the bound.
	for seed := int64(1); seed <= pending; seed++ {
		st, err := submit(seed)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Cached {
			t.Fatalf("seed %d not cache-resolvable after eviction", seed)
		}
	}
	if h := srv.Health(); h.Jobs > maxJobs {
		t.Fatalf("job map holds %d jobs, bound is %d", h.Jobs, maxJobs)
	}
	for _, id := range accepted {
		if _, err := srv.Job(id); errors.Is(err, service.ErrUnknownJob) {
			evicted++
		}
	}
	if evicted == 0 {
		t.Fatal("no job was evicted despite exceeding MaxJobs")
	}
}
