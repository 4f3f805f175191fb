package federation_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"strconv"
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

// TestUnitDeliveredWhenWorkerFinishes pins that the coordinator learns of a
// finished unit the moment its worker finishes it, not on its next poll:
// with a 3 s PollInterval, a 2-shard quick job on two one-slot workers must
// finish in well under one poll. Each unit costs its worker exactly two
// requests, the submission and one report long-poll, and no status request.
func TestUnitDeliveredWhenWorkerFinishes(t *testing.T) {
	var mu sync.Mutex
	requests := map[string]int{} // worker requests by route
	countingWorker := func() string {
		srv, err := service.New(service.Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			route := ""
			switch p := r.URL.Path; {
			case r.Method == http.MethodPost && p == "/v1/jobs":
				route = "submit"
			case strings.HasPrefix(p, "/v1/jobs/") && strings.HasSuffix(p, "/report"):
				route = "report"
			case strings.HasPrefix(p, "/v1/jobs/"):
				route = "status"
			}
			if route != "" {
				mu.Lock()
				requests[route]++
				mu.Unlock()
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(func() {
			ts.Close()
			srv.Close()
		})
		return ts.URL
	}
	cfg := fastConfig(countingWorker(), countingWorker())
	cfg.PollInterval = 3 * time.Second
	cfg.LeaseDuration = 30 * time.Second
	co, c := startCoordinator(t, cfg)
	waitFor(t, "both workers live", func() bool { return co.Health().Fleet.LiveWorkers == 2 })

	ctx := context.Background()
	spec := experiments.Spec{Quick: true, Battery: "kibam"}
	start := time.Now()
	st, err := c.Submit(ctx, service.JobRequest{
		Experiment: "table2", Spec: service.SpecRequestFrom(spec), Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID, 5*time.Millisecond, nil)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != service.StateDone {
		t.Fatalf("job = %s (%s), want done", final.State, final.Error)
	}
	if elapsed >= time.Second {
		t.Fatalf("job took %v with a %v PollInterval, want under 1s", elapsed, cfg.PollInterval)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := map[string]int{"submit": 2, "report": 2}; !maps.Equal(requests, want) {
		t.Fatalf("worker requests by route = %v, want %v: one submission and one report long-poll per unit", requests, want)
	}
}

// gatedFront is one front end of the /v1 API whose every unit blocks until
// release is called (or the worker closes): a worker daemon, or a
// coordinator leasing to one.
type gatedFront struct {
	url      string
	release  func()
	close    func() // the daemon's or the coordinator's Close
	shutdown func(context.Context) error
	execs    func() int32 // units that reached the executing daemon's FaultHook
}

// frontOpts sizes the front end under test: its unit queue bound and its job
// map bound (0 keeps each mode's default). hold picks the units its gate
// holds; nil holds every unit.
type frontOpts struct {
	queue, maxJobs int
	hold           func(experiments.Shard) bool
}

// gatedFronts start the two front ends the /v1 contract must hold on.
var gatedFronts = []struct {
	name  string
	start func(t *testing.T, o frontOpts) gatedFront
}{
	{"daemon", func(t *testing.T, o frontOpts) gatedFront {
		hook, release, execs := countingGate(o.hold)
		srv, ts := startWorker(t, service.Config{FaultHook: hook, QueueCapacity: o.queue, MaxJobs: o.maxJobs})
		return gatedFront{url: ts.URL, release: release, close: srv.Close, shutdown: srv.Shutdown, execs: execs}
	}},
	{"coordinator", func(t *testing.T, o frontOpts) gatedFront {
		hook, release, execs := countingGate(o.hold)
		_, tsW := startWorker(t, service.Config{FaultHook: hook})
		cfg := fastConfig(tsW.URL)
		cfg.QueueCapacity, cfg.MaxJobs = o.queue, o.maxJobs
		co, err := federation.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(co.Handler())
		t.Cleanup(func() {
			ts.Close()
			co.Close()
		})
		return gatedFront{url: ts.URL, release: release, close: co.Close, shutdown: co.Shutdown, execs: execs}
	}},
}

// countingGate is blockingHook that also counts the units reaching it. It
// holds only the units hold picks, or every unit when hold is nil.
func countingGate(hold func(experiments.Shard) bool) (func(context.Context, string, experiments.Shard) error, func(), func() int32) {
	hook, release := blockingHook()
	var n atomic.Int32
	counted := func(ctx context.Context, name string, shard experiments.Shard) error {
		n.Add(1)
		if hold != nil && !hold(shard) {
			return nil
		}
		return hook(ctx, name, shard)
	}
	return counted, release, n.Load
}

// submitRunning submits a one-set quick table2 job to f and waits until it
// runs, its unit held at f's gate.
func submitRunning(t *testing.T, f gatedFront) string {
	t.Helper()
	c := client.New(f.url)
	st, err := c.Submit(context.Background(), service.JobRequest{
		Experiment: "table2", Spec: service.SpecRequest{Quick: true, Battery: "kibam", Sets: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job running", func() bool {
		js, err := c.Job(context.Background(), st.ID)
		if err != nil {
			t.Fatal(err)
		}
		return js.State == service.StateRunning
	})
	return st.ID
}

// waitReply is one answer of GET /v1/jobs/{id}?wait= or
// /v1/jobs/{id}/report?wait=.
type waitReply struct {
	code    int
	st      service.JobStatus // decoded from a 200 of the status route
	body    []byte
	elapsed time.Duration
}

// waitRoute is one route that holds an unfinished job under ?wait=, with
// what it answers for a done job, for a job still running when the wait
// elapses, and for a failed job.
type waitRoute struct {
	name    string // subtest prefix ("" keeps the status route's case names)
	suffix  string // path after /v1/jobs/{id}
	done    func(t *testing.T, f gatedFront, id string, r waitReply)
	running func(t *testing.T, r waitReply)
	failed  func(t *testing.T, r waitReply)
}

var (
	statusRoute = waitRoute{
		done: func(t *testing.T, _ gatedFront, _ string, r waitReply) {
			if r.code != http.StatusOK || r.st.State != service.StateDone {
				t.Fatalf("reply = %d %s (%s), want 200 done", r.code, r.st.State, r.st.Error)
			}
		},
		running: func(t *testing.T, r waitReply) {
			if r.code != http.StatusOK || r.st.State != service.StateRunning {
				t.Fatalf("reply = %d %s, want 200 running", r.code, r.st.State)
			}
		},
		failed: func(t *testing.T, r waitReply) {
			if r.code != http.StatusOK || r.st.State != service.StateFailed {
				t.Fatalf("reply = %d %s, want 200 failed by the shutdown sweep", r.code, r.st.State)
			}
		},
	}
	reportRoute = waitRoute{
		name:   "report: ",
		suffix: "/report",
		done: func(t *testing.T, f gatedFront, id string, r waitReply) {
			want, err := client.New(f.url).ReportArtifact(context.Background(), id)
			if err != nil {
				t.Fatal(err)
			}
			if r.code != http.StatusOK || !bytes.Equal(r.body, want) {
				t.Fatalf("reply = %d %q, want 200 and the %d artifact bytes", r.code, r.body, len(want))
			}
		},
		running: func(t *testing.T, r waitReply) {
			if r.code != http.StatusConflict {
				t.Fatalf("reply = %d %q, want 409", r.code, r.body)
			}
		},
		failed: func(t *testing.T, r waitReply) {
			if r.code != http.StatusInternalServerError || !strings.Contains(string(r.body), "shut down") {
				t.Fatalf("reply = %d %q, want 500 with the shutdown failure", r.code, r.body)
			}
		},
	}
)

// fetchWait requests GET /v1/jobs/{id}<suffix>?wait=<wait> over raw HTTP.
func fetchWait(base, id, suffix, wait string) (waitReply, error) {
	start := time.Now()
	resp, err := http.Get(base + "/v1/jobs/" + id + suffix + "?wait=" + wait)
	if err != nil {
		return waitReply{}, err
	}
	defer resp.Body.Close()
	r := waitReply{code: resp.StatusCode}
	if r.body, err = io.ReadAll(resp.Body); err != nil {
		return r, err
	}
	if r.code == http.StatusOK && suffix == "" {
		err = json.Unmarshal(r.body, &r.st)
	}
	r.elapsed = time.Since(start)
	return r, err
}

func getWait(t *testing.T, base, id, suffix, wait string) waitReply {
	t.Helper()
	r, err := fetchWait(base, id, suffix, wait)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// getStatus requests GET /v1/jobs/{id}?wait=<wait>.
func getStatus(t *testing.T, base, id, wait string) waitReply {
	t.Helper()
	return getWait(t, base, id, "", wait)
}

// TestJobStatusLongPoll pins the ?wait= contract of GET /v1/jobs/{id} and
// of GET /v1/jobs/{id}/report on the worker daemon and on the coordinator
// alike: both hold an unfinished job until it is terminal or the wait
// elapses, the report route then answering 409 for a job still unfinished.
func TestJobStatusLongPoll(t *testing.T) {
	// held starts GET ?wait=<wait> on a running job in the background and
	// checks that it is still unanswered a moment later: a server that
	// ignored the wait would have answered at once.
	held := func(t *testing.T, f gatedFront, rt waitRoute, id, wait string) <-chan waitReply {
		reply := make(chan waitReply, 1)
		go func() {
			r, err := fetchWait(f.url, id, rt.suffix, wait)
			if err != nil {
				t.Errorf("GET ?wait=%s: %v", wait, err)
			}
			reply <- r
		}()
		select {
		case r := <-reply:
			t.Fatalf("answered %d %q at once, want the request held", r.code, r.body)
		case <-time.After(50 * time.Millisecond):
		}
		return reply
	}
	cases := []struct {
		name string
		run  func(t *testing.T, f gatedFront, rt waitRoute)
	}{
		{"wait returns done once the gate opens", func(t *testing.T, f gatedFront, rt waitRoute) {
			id := submitRunning(t, f)
			reply := held(t, f, rt, id, "10s")
			f.release()
			r := <-reply
			rt.done(t, f, id, r)
			if r.elapsed >= 5*time.Second {
				t.Fatalf("held %v after the job finished, want an answer at once", r.elapsed)
			}
			again := getWait(t, f.url, id, rt.suffix, "10s")
			rt.done(t, f, id, again)
			if again.elapsed >= 5*time.Second {
				t.Fatalf("a done job held %v, want an answer at once", again.elapsed)
			}
		}},
		{"wait elapses on a running job", func(t *testing.T, f gatedFront, rt waitRoute) {
			id := submitRunning(t, f)
			r := getWait(t, f.url, id, rt.suffix, "50ms")
			rt.running(t, r)
			if r.elapsed < 50*time.Millisecond {
				t.Fatalf("answered after %v, want a hold of at least 50ms", r.elapsed)
			}
		}},
		{"malformed or negative wait is 400", func(t *testing.T, f gatedFront, rt waitRoute) {
			id := submitRunning(t, f)
			for _, wait := range []string{"abc", "-1s", "10"} {
				if r := getWait(t, f.url, id, rt.suffix, wait); r.code != http.StatusBadRequest {
					t.Fatalf("wait=%s: HTTP %d, want 400", wait, r.code)
				}
			}
		}},
		{"unknown job is 404 at once", func(t *testing.T, f gatedFront, rt waitRoute) {
			r := getWait(t, f.url, "job-999999", rt.suffix, "10s")
			if r.code != http.StatusNotFound {
				t.Fatalf("HTTP %d, want 404", r.code)
			}
			if r.elapsed >= 5*time.Second {
				t.Fatalf("unknown job held %v, want an answer at once", r.elapsed)
			}
		}},
		{"wait above the cap is clamped, not rejected", func(t *testing.T, f gatedFront, rt waitRoute) {
			id := submitRunning(t, f)
			reply := held(t, f, rt, id, "1h")
			f.release()
			rt.done(t, f, id, <-reply)
		}},
		{"Close releases a parked waiter", func(t *testing.T, f gatedFront, rt waitRoute) {
			id := submitRunning(t, f)
			reply := held(t, f, rt, id, "10s")
			f.close()
			r := <-reply
			rt.failed(t, r)
			if r.elapsed >= 5*time.Second {
				t.Fatalf("Close released the waiter after %v, want at once", r.elapsed)
			}
		}},
	}
	for _, front := range gatedFronts {
		t.Run(front.name, func(t *testing.T) {
			for _, rt := range []waitRoute{statusRoute, reportRoute} {
				for _, tc := range cases {
					t.Run(rt.name+tc.name, func(t *testing.T) { tc.run(t, front.start(t, frontOpts{}), rt) })
				}
			}
		})
	}
}

// TestOutOfOrderShardsMergeInShardOrder pins the shard-order merge on the
// worker daemon and on the coordinator alike: shard 0 of a 3-shard job is
// held until shards 1 and 2 are delivered, and the served artifact still
// equals the local unsharded run's byte for byte.
func TestOutOfOrderShardsMergeInShardOrder(t *testing.T) {
	ctx := context.Background()
	spec := experiments.Spec{Quick: true, Battery: "kibam"}
	const shards = 3
	want := map[string][]byte{
		"table2": localArtifact(t, "table2", spec),
		"grid":   localArtifact(t, "grid", spec),
	}
	holdFirst := func(s experiments.Shard) bool { return s.Index == 0 }
	for _, front := range gatedFronts {
		t.Run(front.name, func(t *testing.T) {
			for _, name := range []string{"table2", "grid"} {
				f := front.start(t, frontOpts{hold: holdFirst})
				t.Cleanup(f.release)
				c := client.New(f.url)
				st, err := c.Submit(ctx, service.JobRequest{
					Experiment: name, Spec: service.SpecRequestFrom(spec), Shards: shards,
				})
				if err != nil {
					t.Fatal(err)
				}
				waitFor(t, name+" shards 1 and 2 delivered", func() bool {
					js, err := c.Job(ctx, st.ID)
					if err != nil {
						t.Fatal(err)
					}
					if len(js.Shards) != shards || js.Shards[0].State == service.StateDone {
						t.Fatalf("%s shards = %+v, want shard 0 held", name, js.Shards)
					}
					return js.Shards[1].State == service.StateDone && js.Shards[2].State == service.StateDone
				})
				f.release()
				final, err := c.Wait(ctx, st.ID, 5*time.Millisecond, nil)
				if err != nil {
					t.Fatal(err)
				}
				if final.State != service.StateDone {
					t.Fatalf("%s job = %s (%s), want done", name, final.State, final.Error)
				}
				got, err := c.ReportArtifact(ctx, st.ID)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want[name]) {
					t.Fatalf("%s: served artifact differs from the local one", name)
				}
			}
		})
	}
}

// TestParseWaitClamps pins the shared ?wait= parser both front ends use.
func TestParseWaitClamps(t *testing.T) {
	for raw, want := range map[string]time.Duration{
		"":      0,
		"0s":    0,
		"250ms": 250 * time.Millisecond,
		"1m":    service.MaxWait,
		"2m":    service.MaxWait,
		"1h":    service.MaxWait,
	} {
		r := httptest.NewRequest(http.MethodGet, "/v1/jobs/job-000001?wait="+raw, nil)
		got, err := service.ParseWait(r)
		if err != nil || got != want {
			t.Fatalf("wait=%q: %v, %v; want %v", raw, got, err, want)
		}
	}
	for _, raw := range []string{"abc", "-1s", "10"} {
		r := httptest.NewRequest(http.MethodGet, "/v1/jobs/job-000001?wait="+raw, nil)
		if _, err := service.ParseWait(r); err == nil {
			t.Fatalf("wait=%q parsed, want an error", raw)
		}
	}
}

// postJob submits body over raw HTTP, returning the status code, the
// Retry-After header and the decoded JobStatus (zero unless 200 or 202).
func postJob(t *testing.T, base, body string) (int, string, service.JobStatus) {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st service.JobStatus
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, resp.Header.Get("Retry-After"), st
}

// jobBody is the JSON of a one-set quick table2 submission with seed.
func jobBody(seed int) string {
	return fmt.Sprintf(`{"experiment":"table2","spec":{"quick":true,"battery":"kibam","sets":1,"seed":%d}}`, seed)
}

// TestFrontContract pins the job front end's admission contract on the
// worker daemon and on the coordinator alike: coalescing, the queue bound,
// the shard count bound, job map eviction and drain.
func TestFrontContract(t *testing.T) {
	cases := []struct {
		name string
		opts frontOpts
		run  func(t *testing.T, f gatedFront)
	}{
		{"identical concurrent submissions run once", frontOpts{}, func(t *testing.T, f gatedFront) {
			// A duplicate-heavy burst in miniature: 3 specs submitted 4 times
			// each, all at once, while every unit is held. An admission path
			// that blocked on compute would deadlock here.
			const specs, copies = 3, 4
			ctx := context.Background()
			req := func(i int) service.JobRequest {
				return service.JobRequest{Experiment: "table2", Spec: service.SpecRequest{
					Quick: true, Battery: "kibam", Sets: 1, Seed: int64(1 + i%specs),
				}}
			}
			ids := make([]string, specs*copies)
			coalesced := make([]bool, len(ids))
			var wg sync.WaitGroup
			for i := range ids {
				wg.Add(1)
				go func() {
					defer wg.Done()
					st, err := client.New(f.url).Submit(ctx, req(i))
					if err != nil {
						t.Errorf("submit %d: %v", i, err)
						return
					}
					ids[i], coalesced[i] = st.ID, st.Coalesced
				}()
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}
			f.release()
			want := make([][]byte, specs)
			for i := range want {
				want[i] = localArtifact(t, "table2", req(i).Spec.Spec())
			}
			c := client.New(f.url)
			followers := 0
			for i, id := range ids {
				st, err := c.Wait(ctx, id, 5*time.Millisecond, nil)
				if err != nil {
					t.Fatal(err)
				}
				if st.State != service.StateDone {
					t.Fatalf("job %s = %s (%s), want done", id, st.State, st.Error)
				}
				if st.Coalesced != coalesced[i] {
					t.Fatalf("job %s flipped coalesced from %v to %v", id, coalesced[i], st.Coalesced)
				}
				if st.Coalesced {
					followers++
				}
				got, err := c.ReportArtifact(ctx, id)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want[i%specs]) {
					t.Fatalf("job %s artifact differs from the local run of seed %d", id, req(i).Spec.Seed)
				}
			}
			if followers != specs*(copies-1) {
				t.Fatalf("%d coalesced followers, want %d", followers, specs*(copies-1))
			}
			for i := range ids {
				if st, err := c.Submit(ctx, req(i)); err != nil || !st.Cached || st.State != service.StateDone {
					t.Fatalf("resubmission %d = %+v, %v; want cached and done", i, st, err)
				}
			}
			if got := f.execs(); got != specs {
				t.Fatalf("FaultHook fired %d times, want once per spec (%d)", got, specs)
			}
			samples := scrape(t, f.url)
			for admission, n := range map[string]int{"computed": specs, "coalesced": specs * (copies - 1), "cached": specs * copies} {
				if got := mustFind(t, samples, "battsched_jobs_total", "admission", admission); got != float64(n) {
					t.Fatalf("battsched_jobs_total{admission=%q} = %v, want %d", admission, got, n)
				}
			}
		}},
		{"novel submission beyond capacity is 429 with Retry-After", frontOpts{queue: 1}, func(t *testing.T, f gatedFront) {
			// The bound counts queued units (and, under some rules, units in
			// flight too): with every unit wedged, some novel submission
			// within a few must overflow it.
			for seed := 1; seed <= 10; seed++ {
				code, retry, _ := postJob(t, f.url, jobBody(seed))
				if code == http.StatusTooManyRequests {
					if secs, err := strconv.Atoi(retry); err != nil || secs < 1 {
						t.Fatalf("Retry-After = %q, want a whole-second value >= 1", retry)
					}
					return
				}
				if code != http.StatusAccepted {
					t.Fatalf("submission %d: HTTP %d, want 202 or 429", seed, code)
				}
			}
			t.Fatal("10 novel submissions all fit a 1-unit queue bound")
		}},
		{"shard count above the queue bound is 400", frontOpts{queue: 2}, func(t *testing.T, f gatedFront) {
			// No queue state could ever admit 3 units against a 2-unit bound,
			// so the answer is a bad request, without a Retry-After.
			body := `{"experiment":"table2","spec":{"quick":true,"battery":"kibam","sets":1},"shards":%d}`
			if code, retry, _ := postJob(t, f.url, fmt.Sprintf(body, 3)); code != http.StatusBadRequest || retry != "" {
				t.Fatalf("3 shards against a 2-unit bound: HTTP %d, Retry-After %q; want 400 and none", code, retry)
			}
			if code, _, _ := postJob(t, f.url, fmt.Sprintf(body, 2)); code != http.StatusAccepted {
				t.Fatalf("2 shards against a 2-unit bound: HTTP %d, want 202", code)
			}
		}},
		{"evicted job is 404 and resubmission is cached", frontOpts{maxJobs: 2}, func(t *testing.T, f gatedFront) {
			f.release()
			c := client.New(f.url)
			ctx := context.Background()
			req := service.JobRequest{Experiment: "table2", Spec: service.SpecRequest{Quick: true, Battery: "kibam", Sets: 1}}
			first, err := c.Submit(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if st, err := c.Wait(ctx, first.ID, 5*time.Millisecond, nil); err != nil || st.State != service.StateDone {
				t.Fatalf("first job = %+v, %v; want done", st, err)
			}
			for range 3 {
				if st, err := c.Submit(ctx, req); err != nil || !st.Cached {
					t.Fatalf("resubmission = %+v, %v; want cached", st, err)
				}
			}
			if r := getStatus(t, f.url, first.ID, "0s"); r.code != http.StatusNotFound {
				t.Fatalf("evicted job: HTTP %d, want 404", r.code)
			}
			if st, err := c.Submit(ctx, req); err != nil || !st.Cached || st.State != service.StateDone {
				t.Fatalf("resubmission after eviction = %+v, %v; want cached done", st, err)
			}
		}},
		{"draining answers 503 with Retry-After 1", frontOpts{}, func(t *testing.T, f gatedFront) {
			submitRunning(t, f)
			done := make(chan error, 1)
			go func() { done <- f.shutdown(context.Background()) }()
			waitFor(t, "/healthz to answer 503", func() bool {
				resp, err := http.Get(f.url + "/healthz")
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				return resp.StatusCode == http.StatusServiceUnavailable
			})
			code, retry, _ := postJob(t, f.url, jobBody(2))
			if code != http.StatusServiceUnavailable || retry != "1" {
				t.Fatalf("submit while draining: HTTP %d, Retry-After %q; want 503 and 1", code, retry)
			}
			f.release()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("Shutdown did not return after the gate opened")
			}
		}},
	}
	for _, front := range gatedFronts {
		t.Run(front.name, func(t *testing.T) {
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					f := front.start(t, tc.opts)
					t.Cleanup(f.release)
					tc.run(t, f)
				})
			}
		})
	}
}
