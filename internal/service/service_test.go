package service_test

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"battsched/internal/experiments"
	"battsched/internal/service"
	"battsched/internal/service/client"
)

// startDaemon spins an in-process daemon behind an httptest server and
// returns a client for it.
func startDaemon(t *testing.T, cfg service.Config) (*service.Server, *client.Client) {
	t.Helper()
	srv, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, client.New(ts.URL)
}

// localArtifact renders the local (in-process) artifact of one experiment
// run: the bytes `cmd/experiments run -o` writes.
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

// submitAndWait submits a job and waits for a terminal state.
func submitAndWait(t *testing.T, c *client.Client, req service.JobRequest) service.JobStatus {
	t.Helper()
	ctx := context.Background()
	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	st, err = c.Wait(ctx, st.ID, 10*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.State == service.StateFailed {
		t.Fatalf("job %s failed: %s", st.ID, st.Error)
	}
	return st
}

// TestServedReportByteIdenticalAndCached is the service's correctness
// contract end to end: the artifact fetched from the daemon for a quick
// Table 2 run — computed unsharded and as a 2-shard fan-out — is
// byte-identical to the local `run -o` artifact, and resubmitting the same
// spec is served from the content-addressed cache, marked Cached, with the
// identical bytes.
func TestServedReportByteIdenticalAndCached(t *testing.T) {
	spec := experiments.Spec{Quick: true, Battery: "kibam"}
	want := localArtifact(t, "table2", spec)
	req := service.JobRequest{Experiment: "table2", Spec: service.SpecRequest(spec)}

	for _, shards := range []int{0, 2} {
		cfg := service.Config{Workers: 2}
		_, c := startDaemon(t, cfg)
		r := req
		r.Shards = shards

		st := submitAndWait(t, c, r)
		if st.Cached {
			t.Fatalf("shards=%d: first submission reported cached", shards)
		}
		if shards > 1 && len(st.Shards) != shards {
			t.Fatalf("shards=%d: status reports %d shard units", shards, len(st.Shards))
		}
		got, err := c.ReportArtifact(context.Background(), st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("shards=%d: served artifact differs from local run -o:\n--- served ---\n%s\n--- local ---\n%s",
				shards, got, want)
		}

		// Resubmission: answered from the cache, marked cached, same bytes.
		st2, err := c.Submit(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		if st2.State != service.StateDone || !st2.Cached {
			t.Fatalf("shards=%d: resubmission state=%s cached=%v", shards, st2.State, st2.Cached)
		}
		got2, err := c.ReportArtifact(context.Background(), st2.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got2, want) {
			t.Fatalf("shards=%d: cached artifact differs", shards)
		}
	}
}

// TestCacheHitAcrossShardCounts pins the content address: an unsharded
// submission after a sharded one of the same spec is a cache hit (the hash
// identifies the complete run, not its execution layout).
func TestCacheHitAcrossShardCounts(t *testing.T) {
	_, c := startDaemon(t, service.Config{Workers: 2})
	spec := service.SpecRequest{Quick: true, Battery: "kibam"}
	st := submitAndWait(t, c, service.JobRequest{Experiment: "table2", Spec: spec, Shards: 2})
	if st.Cached {
		t.Fatal("first submission cached")
	}
	st2, err := c.Submit(context.Background(), service.JobRequest{Experiment: "table2", Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached || st2.Hash != st.Hash {
		t.Fatalf("unsharded resubmission cached=%v hash=%s, want cache hit on %s", st2.Cached, st2.Hash, st.Hash)
	}
}

// TestDiskCacheSurvivesRestart checks the on-disk tier: a fresh daemon over
// the same cache directory serves a previously computed spec as cached.
func TestDiskCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	spec := service.SpecRequest{Quick: true, Battery: "kibam"}
	req := service.JobRequest{Experiment: "table2", Spec: spec}

	_, c1 := startDaemon(t, service.Config{Workers: 1, CacheDir: dir})
	first := submitAndWait(t, c1, req)
	want, err := c1.ReportArtifact(context.Background(), first.ID)
	if err != nil {
		t.Fatal(err)
	}

	_, c2 := startDaemon(t, service.Config{Workers: 1, CacheDir: dir})
	st, err := c2.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Cached {
		t.Fatal("restarted daemon did not hit the disk cache")
	}
	got, err := c2.ReportArtifact(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("disk-cached artifact differs")
	}
}

// TestReportTableFormat checks ?format=table rendering.
func TestReportTableFormat(t *testing.T) {
	_, c := startDaemon(t, service.Config{Workers: 1})
	st := submitAndWait(t, c, service.JobRequest{
		Experiment: "table2", Spec: service.SpecRequest{Quick: true, Battery: "kibam"},
	})
	text, err := c.ReportTable(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table 2", "BAS-2", "kibam"} {
		if !strings.Contains(text, want) {
			t.Fatalf("table rendering missing %q:\n%s", want, text)
		}
	}
}

// TestRegistryEndpointsAndHealth checks the listing endpoints and the health
// snapshot.
func TestRegistryEndpointsAndHealth(t *testing.T) {
	_, c := startDaemon(t, service.Config{Workers: 1, QueueCapacity: 5})
	ctx := context.Background()

	infos, err := c.Experiments(ctx)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]service.ExperimentInfo{}
	for _, in := range infos {
		byName[in.Name] = in
	}
	for _, name := range experiments.Names() {
		if _, ok := byName[name]; !ok {
			t.Fatalf("experiments listing missing %q", name)
		}
	}
	if byName["curve"].Shardable || !byName["table2"].Shardable {
		t.Fatal("shardable flags wrong in listing")
	}

	batteries, err := c.Batteries(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(batteries, ","), "kibam") {
		t.Fatalf("battery listing = %v", batteries)
	}

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Workers != 1 || h.QueueCapacity != 5 {
		t.Fatalf("health = %+v", h)
	}
}

// TestSubmitValidation covers the submission error paths: unknown
// experiment, sharding the deterministic curve, bad battery name — all
// rejected with 400 before any job is admitted.
func TestSubmitValidation(t *testing.T) {
	_, c := startDaemon(t, service.Config{Workers: 1})
	ctx := context.Background()
	cases := []service.JobRequest{
		{Experiment: "bogus"},
		{Experiment: "curve", Shards: 2},
		{Experiment: "table2", Spec: service.SpecRequest{Battery: "bogus"}},
		{Experiment: "table2", Shards: -1},
	}
	for _, req := range cases {
		_, err := c.Submit(ctx, req)
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.Status != 400 {
			t.Fatalf("Submit(%+v) err = %v, want HTTP 400", req, err)
		}
	}
	if _, err := c.Job(ctx, "job-999999"); func() bool {
		var ae *client.APIError
		return !errors.As(err, &ae) || ae.Status != 404
	}() {
		t.Fatalf("unknown job err = %v, want HTTP 404", err)
	}
}

// TestAdaptiveJobMatchesLocalRun pins that a spec with adaptive set counts
// names one artifact: its sharded submission is refused, so the only
// artifact the cache can hold under its address is the unsharded run's,
// byte-identical to the local run -o.
func TestAdaptiveJobMatchesLocalRun(t *testing.T) {
	_, c := startDaemon(t, service.Config{Workers: 2})
	spec := experiments.Spec{Quick: true, Battery: "kibam", RunOptions: experiments.RunOptions{TargetCI: 0.2}}
	req := service.JobRequest{Experiment: "table2", Spec: service.SpecRequest(spec), Shards: 2}
	var ae *client.APIError
	if _, err := c.Submit(context.Background(), req); !errors.As(err, &ae) || ae.Status != 400 {
		t.Fatalf("sharded adaptive submit err = %v, want HTTP 400", err)
	}
	req.Shards = 0
	st := submitAndWait(t, c, req)
	got, err := c.ReportArtifact(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := localArtifact(t, "table2", spec); !bytes.Equal(got, want) {
		t.Fatalf("served adaptive artifact differs from the local run:\n%s\nwant:\n%s", got, want)
	}
}

// TestSubmitRejectsTrailingData pins that a POST /v1/jobs body holds exactly
// one JSON value: a second value and garbage after the first answer 400 and
// admit nothing. The decoder once ignored them and ran the first value as a
// quick table2 job.
func TestSubmitRejectsTrailingData(t *testing.T) {
	srv, _ := startDaemon(t, service.Config{Workers: 1})
	body := `{"experiment":"table2","spec":{"quick":true}} {"experiment":"grid","shards":99999} trailing garbage`
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("POST /v1/jobs with trailing data: HTTP %d (%s), want 400", rec.Code, rec.Body)
	}
	if h := srv.Health(); h.Jobs != 0 {
		t.Fatalf("health = %+v, want no job admitted", h)
	}
}

// TestQueueBoundAndUnfinishedReport wedges the single worker with a blocking
// fault hook: the submitted job stays unfinished (report answers 409) and
// the unit-bounded queue rejects overflow with 429, then completes normally
// once the hook releases.
func TestQueueBoundAndUnfinishedReport(t *testing.T) {
	gate := make(chan struct{})
	_, c := startDaemon(t, service.Config{
		Workers: 1, QueueCapacity: 3,
		FaultHook: func(ctx context.Context, _ string, _ experiments.Shard) error {
			select {
			case <-gate:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	})
	ctx := context.Background()

	st, err := c.Submit(ctx, service.JobRequest{
		Experiment: "table2", Spec: service.SpecRequest{Quick: true, Battery: "kibam"}, Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateQueued {
		t.Fatalf("state = %s, want queued", st.State)
	}

	_, err = c.ReportArtifact(ctx, st.ID)
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != 409 {
		t.Fatalf("report of queued job err = %v, want HTTP 409", err)
	}

	// The first job holds 2 of 3 capacity units (one may be in flight,
	// wedged in the hook): a 3-shard job cannot fit either way.
	_, err = c.Submit(ctx, service.JobRequest{
		Experiment: "grid", Spec: service.SpecRequest{Quick: true}, Shards: 3,
	})
	if !errors.As(err, &ae) || ae.Status != 429 {
		t.Fatalf("overflow submit err = %v, want HTTP 429", err)
	}

	close(gate)
	final, err := c.Wait(ctx, st.ID, 5*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != service.StateDone {
		t.Fatalf("released job state = %s: %s", final.State, final.Error)
	}
}

// TestEmptyShardJobFinishes: quick figure6 has 3 sets per point, so a
// 4-shard job holds an empty shard. An empty shard once panicked the unit's
// goroutine and killed the daemon; now the job must finish, and its artifact
// must equal the merge of the same four shards run locally (what
// `experiments merge` writes).
func TestEmptyShardJobFinishes(t *testing.T) {
	_, c := startDaemon(t, service.Config{Workers: 2})
	spec := experiments.Spec{Quick: true}
	st := submitAndWait(t, c, service.JobRequest{Experiment: "figure6", Spec: service.SpecRequest(spec), Shards: 4})
	if st.State != service.StateDone {
		t.Fatalf("job state = %s: %s", st.State, st.Error)
	}
	got, err := c.ReportArtifact(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]*experiments.Report, 4)
	for i := range parts {
		s := spec
		s.Shard = experiments.Shard{Index: i, Count: len(parts)}
		if parts[i], err = experiments.Run(context.Background(), "figure6", s); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := experiments.MergeReports(parts)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := experiments.WriteArtifact(&want, []*experiments.Report{merged}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("served 4-shard figure6 differs from the local merge:\n--- served ---\n%s\n--- merged ---\n%s", got, want.Bytes())
	}
}

// TestShardProgressReported checks that per-shard progress from the driver's
// callbacks surfaces in the job status by the time the job completes.
func TestShardProgressReported(t *testing.T) {
	_, c := startDaemon(t, service.Config{Workers: 2})
	var sawProgress bool
	ctx := context.Background()
	st, err := c.Submit(ctx, service.JobRequest{
		Experiment: "table2", Spec: service.SpecRequest{Quick: true, Battery: "kibam", Seed: 3}, Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err = c.Wait(ctx, st.ID, 5*time.Millisecond, func(s service.JobStatus) {
		for _, sh := range s.Shards {
			if sh.Done > 0 && sh.Total > 0 {
				sawProgress = true
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateDone {
		t.Fatalf("job state = %s: %s", st.State, st.Error)
	}
	if !sawProgress {
		t.Fatal("no shard progress observed in any status snapshot")
	}
	for _, sh := range st.Shards {
		if sh.State != service.StateDone {
			t.Fatalf("shard %q state = %s", sh.Shard, sh.State)
		}
		if sh.Done != sh.Total || sh.Total == 0 {
			t.Fatalf("shard %q progress = %d/%d", sh.Shard, sh.Done, sh.Total)
		}
	}
}

// TestJobMapBounded pins the MaxJobs eviction: terminal jobs beyond the
// bound are dropped oldest-first (their IDs answer 404), while the report
// stays retrievable through the cache by resubmitting the spec.
func TestJobMapBounded(t *testing.T) {
	_, c := startDaemon(t, service.Config{Workers: 1, MaxJobs: 2})
	ctx := context.Background()
	req := service.JobRequest{Experiment: "table2", Spec: service.SpecRequest{Quick: true, Battery: "kibam"}}

	first := submitAndWait(t, c, req)
	var ids []string
	for i := 0; i < 3; i++ {
		st, err := c.Submit(ctx, req) // cache hits: instantly terminal
		if err != nil {
			t.Fatal(err)
		}
		if !st.Cached {
			t.Fatal("expected cache hit")
		}
		ids = append(ids, st.ID)
	}
	if _, err := c.Job(ctx, first.ID); func() bool {
		var ae *client.APIError
		return !errors.As(err, &ae) || ae.Status != 404
	}() {
		t.Fatalf("oldest terminal job should be evicted, got %v", err)
	}
	// The newest jobs (within the bound) are still tracked, and the artifact
	// is still served for them.
	if _, err := c.ReportArtifact(ctx, ids[len(ids)-1]); err != nil {
		t.Fatalf("newest job's report unavailable: %v", err)
	}
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Jobs > 2 {
		t.Fatalf("job map holds %d jobs, bound is 2", h.Jobs)
	}
}
