package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"battsched/internal/experiments"
	"battsched/internal/service"
	"battsched/internal/service/client"
	"battsched/internal/service/journal"
)

// cacheCounts reads the report cache's hit and miss counters.
func cacheCounts(t *testing.T, c *client.Client) (hits, misses int) {
	t.Helper()
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return h.CacheHits, h.CacheMisses
}

// TestReportsReadFromPack pins the pack read path of GET
// /v1/jobs/{id}/report: a daemon with a cache directory and a two-entry
// memory tier runs five quick jobs, unsharded and in two shards, and only
// then fetches each report. The first three were pushed out of memory by
// later jobs, so their bytes come from reports.pack. Every report equals the
// local run -o artifact, and no read counts as a cache hit or miss.
func TestReportsReadFromPack(t *testing.T) {
	_, c := startDaemon(t, service.Config{Workers: 1, CacheDir: t.TempDir(), CacheEntries: 2})
	ctx := context.Background()
	var ids []string
	var specs []experiments.Spec
	for i := range 5 {
		spec := experiments.Spec{Quick: true, Battery: "kibam", Seed: int64(i + 1)}
		st := submitAndWait(t, c, service.JobRequest{Experiment: "table2", Spec: service.SpecRequestFrom(spec), Shards: 2 * (i % 2)})
		ids = append(ids, st.ID)
		specs = append(specs, spec)
	}
	hits, misses := cacheCounts(t, c)
	for i, id := range ids {
		got, err := c.ReportArtifact(ctx, id)
		if err != nil {
			t.Fatalf("job %d (%s): %v", i, id, err)
		}
		if want := localArtifact(t, "table2", specs[i]); !bytes.Equal(got, want) {
			t.Fatalf("job %d (%s): served artifact differs from the local run -o", i, id)
		}
	}
	if h, m := cacheCounts(t, c); h != hits || m != misses {
		t.Fatalf("report reads moved the cache counters: hits %d → %d, misses %d → %d", hits, h, misses, m)
	}
}

// TestEvictedReportGone pins what a memory-only daemon answers once its
// one-entry cache dropped a done job's artifact: the job stays done, its
// report is ErrArtifactEvicted in process and HTTP 410 over the API, the
// read counts no miss, and resubmitting the spec recomputes identical bytes.
// It also shows that a terminal job keeps no artifact bytes of its own.
func TestEvictedReportGone(t *testing.T) {
	srv, c := startDaemon(t, service.Config{Workers: 1, CacheEntries: 1})
	ctx := context.Background()
	req := func(seed int64) service.JobRequest {
		return service.JobRequest{Experiment: "table2", Spec: service.SpecRequest{Quick: true, Battery: "kibam", Seed: seed}}
	}
	first := submitAndWait(t, c, req(1))
	want, err := c.ReportArtifact(ctx, first.ID)
	if err != nil {
		t.Fatal(err)
	}
	submitAndWait(t, c, req(2)) // pushes the first artifact out of the cache

	hits, misses := cacheCounts(t, c)
	if _, err := srv.Artifact(first.ID); !errors.Is(err, service.ErrArtifactEvicted) {
		t.Fatalf("Artifact of the evicted job = %v, want ErrArtifactEvicted", err)
	}
	var ae *client.APIError
	if _, err := c.ReportArtifact(ctx, first.ID); !errors.As(err, &ae) || ae.Status != http.StatusGone || !strings.Contains(ae.Message, "resubmit") {
		t.Fatalf("GET report of the evicted job = %v, want HTTP 410 telling the client to resubmit", err)
	}
	if h, m := cacheCounts(t, c); h != hits || m != misses {
		t.Fatalf("report reads moved the cache counters: hits %d → %d, misses %d → %d", hits, h, misses, m)
	}
	if st, err := c.Job(ctx, first.ID); err != nil || st.State != service.StateDone {
		t.Fatalf("evicted job status = %+v, %v; want done", st, err)
	}

	again := submitAndWait(t, c, req(1))
	if again.Cached {
		t.Fatal("resubmission of the evicted spec reported cached")
	}
	got, err := c.ReportArtifact(ctx, again.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resubmission's artifact differs from the evicted one")
	}
}

// TestCacheHoldsAtLeastWorkers pins the memory tier's floor: a memory-only
// daemon with two workers and CacheEntries 1 keeps two artifacts, so the
// units its workers finish together cannot push each other's reports out
// before they are read.
func TestCacheHoldsAtLeastWorkers(t *testing.T) {
	srv, c := startDaemon(t, service.Config{Workers: 2, CacheEntries: 1})
	var ids []string
	for seed := range int64(2) {
		st := submitAndWait(t, c, service.JobRequest{Experiment: "table2", Spec: service.SpecRequest{Quick: true, Battery: "kibam", Seed: seed + 1}})
		ids = append(ids, st.ID)
	}
	if n := srv.Health().CacheEntries; n != 2 {
		t.Fatalf("cache holds %d artifacts, want 2 (one per worker)", n)
	}
	for _, id := range ids {
		if _, err := c.ReportArtifact(context.Background(), id); err != nil {
			t.Fatalf("report of %s: %v", id, err)
		}
	}
}

// TestMeaninglessTargetCIRefused pins the TargetCI rule at admission: a
// negative target answers 400 and admits nothing, and a journaled job with
// one (accepted by an older daemon) replays as failed instead of running.
func TestMeaninglessTargetCIRefused(t *testing.T) {
	checkSpecRefused(t, service.SpecRequest{Quick: true, Battery: "kibam", TargetCI: -1}, "target CI")
}

// TestNegativeMaxSetsRefused pins the MaxSets rule at admission the same
// way: a negative cap answers 400, and a journaled job with one replays as
// failed.
func TestNegativeMaxSetsRefused(t *testing.T) {
	checkSpecRefused(t, service.SpecRequest{Quick: true, Battery: "kibam", TargetCI: 0.2, MaxSets: -1}, "max sets")
}

// TestMeaninglessMaxStepRefused pins the MaxStep rule at admission the same
// way: a negative battery substep answers 400, and a journaled job with one
// replays as failed. It once ran the analytic path, as 0 does, under an
// address of its own.
func TestMeaninglessMaxStepRefused(t *testing.T) {
	checkSpecRefused(t, service.SpecRequest{Quick: true, Battery: "kibam", MaxStep: -1}, "max step")
}

// checkSpecRefused journals a table2 job with spec, as an older daemon that
// accepted it would have, and starts a daemon on that journal. It fails
// unless the replayed job is failed with an error naming what, and a fresh
// Submit of spec answers HTTP 400 naming what and admits nothing.
func checkSpecRefused(t *testing.T, spec service.SpecRequest, what string) {
	t.Helper()
	dir := t.TempDir()
	jr, _, err := journal.Open(filepath.Join(dir, "journal.jsonl"), false)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := jr.Accept(journal.Accept{ID: "job-000001", Experiment: "table2", Spec: raw}); err != nil {
		t.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}

	srv, c := startDaemon(t, service.Config{Workers: 1, CacheDir: dir})
	st, err := srv.Job("job-000001")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateFailed || !strings.Contains(st.Error, what) {
		t.Fatalf("replayed job with spec %s = %s (%q), want failed on its %s", raw, st.State, st.Error, what)
	}
	jobs := srv.Health().Jobs
	_, err = c.Submit(context.Background(), service.JobRequest{Experiment: "table2", Spec: spec})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest || !strings.Contains(ae.Message, what) {
		t.Fatalf("Submit with spec %s = %v, want HTTP 400 on its %s", raw, err, what)
	}
	if h := srv.Health(); h.Jobs != jobs {
		t.Fatalf("refused submission admitted a job (%d → %d)", jobs, h.Jobs)
	}
}
