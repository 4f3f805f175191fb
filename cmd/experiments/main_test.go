package main

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"battsched/internal/experiments"
	"battsched/internal/service"
	"battsched/internal/service/client"
)

func TestRunQuickAll(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment sweep skipped in -short mode")
	}
	var buf bytes.Buffer
	if err := run([]string{"run", "all", "-quick", "-battery", "kibam"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 1", "Figure 6", "Table 2", "delivered capacity", "BAS-2", "pUBS"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunSingleExperimentSelection(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"run", "curve", "-quick"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "Table 1") || !strings.Contains(out, "delivered capacity") {
		t.Fatalf("selection not honoured:\n%s", out)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"run", "table2", "-bogus"}, &buf); err == nil {
		t.Fatal("expected flag error")
	}
	if err := run([]string{"run", "table2", "-quick", "-battery", "bogus"}, &buf); err == nil {
		t.Fatal("expected battery model error")
	}
}

// stripTimings removes the "(... 0.3s)" timing lines, the only part of the
// output that may legitimately differ between runs.
func stripTimings(out string) string {
	var kept []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "(") {
			continue
		}
		kept = append(kept, line)
	}
	return strings.Join(kept, "\n")
}

// TestParallelByteIdenticalOutput is the CLI-level determinism guarantee:
// the same seed emits byte-identical tables at any -parallel value.
func TestParallelByteIdenticalOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel determinism sweep skipped in -short mode")
	}
	args := []string{"run", "table2", "grid", "-quick", "-battery", "kibam", "-seed", "7"}
	var seq bytes.Buffer
	if err := run(append(args, "-parallel", "1"), &seq); err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []string{"4", "13"} {
		var par bytes.Buffer
		if err := run(append(args, "-parallel", parallel), &par); err != nil {
			t.Fatal(err)
		}
		if stripTimings(seq.String()) != stripTimings(par.String()) {
			t.Fatalf("-parallel %s output differs from -parallel 1:\n%s\n---\n%s", parallel, seq.String(), par.String())
		}
	}
}

// TestRunRequiresSubcommand: a call that starts with a flag, or has no
// arguments, is an error naming the subcommands and prints nothing.
func TestRunRequiresSubcommand(t *testing.T) {
	for _, args := range [][]string{{"-table2", "-quick"}, nil} {
		var buf bytes.Buffer
		err := run(args, &buf)
		if err == nil || !strings.Contains(err.Error(), "run") {
			t.Fatalf("run(%q): err = %v, want an error naming the run subcommand", args, err)
		}
		if buf.Len() != 0 {
			t.Fatalf("run(%q) printed output:\n%s", args, buf.String())
		}
	}
}

// TestListCommand checks that list names every registered experiment.
func TestListCommand(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"list"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range experiments.Names() {
		if !strings.Contains(buf.String(), name) {
			t.Fatalf("list output missing %q:\n%s", name, buf.String())
		}
	}
}

// TestRunSubcommandErrors covers the dispatch error paths.
func TestRunSubcommandErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"run"}, &buf); err == nil {
		t.Fatal("expected error for run without names")
	}
	if err := run([]string{"run", "bogus", "-quick"}, &buf); err == nil || !strings.Contains(err.Error(), "table2") {
		t.Fatalf("unknown experiment error should list registered names, got %v", err)
	}
	if err := run([]string{"run", "table2", "-quick", "trailing"}, &buf); err == nil {
		t.Fatal("expected error for names after flags")
	}
	if err := run([]string{"run", "table2", "-quick", "-shard", "2/2"}, &buf); err == nil {
		t.Fatal("expected error for out-of-range shard")
	}
	if err := run([]string{"run", "curve", "-quick", "-shard", "0/2"}, &buf); err == nil {
		t.Fatal("expected error for sharding the deterministic curve")
	}
	// The non-shardable selection must fail before any experiment runs, even
	// when the curve is not the first name in the list.
	if err := run([]string{"run", "table2", "curve", "-quick", "-shard", "0/2"}, &buf); err == nil || !strings.Contains(err.Error(), "curve") {
		t.Fatalf("sharded run containing the curve should fail fast, got %v", err)
	}
	// A target CI that means nothing is refused before anything runs.
	for _, ci := range []string{"NaN", "Inf", "-1"} {
		out := filepath.Join(t.TempDir(), "r.json")
		var stdout bytes.Buffer
		err := run([]string{"run", "table2", "-quick", "-battery", "kibam", "-ci", ci, "-o", out}, &stdout)
		if !errors.Is(err, experiments.ErrBadConfig) {
			t.Fatalf("run -ci %s err = %v, want ErrBadConfig", ci, err)
		}
		if _, statErr := os.Stat(out); stdout.Len() > 0 || statErr == nil {
			t.Fatalf("run -ci %s printed %q or wrote its artifact", ci, stdout.String())
		}
	}
	if err := run([]string{"bogus-command"}, &buf); err == nil {
		t.Fatal("expected error for unknown subcommand-looking flag")
	}
	if err := run([]string{"merge"}, &buf); err == nil {
		t.Fatal("expected error for merge without files")
	}
	if err := run([]string{"merge", filepath.Join(t.TempDir(), "missing.json")}, &buf); err == nil {
		t.Fatal("expected error for missing artifact")
	}
}

// shardMergeOutputs runs the unsharded reference and the 2-way shard + merge
// pipeline, checks that the two artifacts are byte-identical, and returns
// both stripped outputs.
func shardMergeOutputs(t *testing.T) (unsharded, merged string) {
	t.Helper()
	dir := t.TempDir()
	full := filepath.Join(dir, "full.json")
	s0 := filepath.Join(dir, "s0.json")
	s1 := filepath.Join(dir, "s1.json")

	base := []string{"run", "table2", "grid", "-quick", "-battery", "kibam"}
	var fullOut bytes.Buffer
	if err := run(append(base, "-o", full), &fullOut); err != nil {
		t.Fatal(err)
	}
	var shardOut bytes.Buffer
	if err := run(append(base, "-shard", "0/2", "-o", s0), &shardOut); err != nil {
		t.Fatal(err)
	}
	if err := run(append(base, "-shard", "1/2", "-o", s1), &shardOut); err != nil {
		t.Fatal(err)
	}
	var mergeOut bytes.Buffer
	mergedPath := filepath.Join(dir, "merged.json")
	if err := run([]string{"merge", "-o", mergedPath, s0, s1}, &mergeOut); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(mergedPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("merged artifact differs from the unsharded run -o artifact")
	}
	return stripTimings(fullOut.String()), stripTimings(mergeOut.String())
}

// TestShardMergeGolden is the CLI-level shard/merge guarantee: running the
// quick Table 2 and scenario grid as two shards and merging the partial
// report artifacts emits byte-identical formatted output and a byte-identical
// artifact to the unsharded run. Adaptive set counts (-ci) do not shard, so
// a sharded -ci run fails with ErrBadConfig before anything runs.
func TestShardMergeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("shard/merge sweep skipped in -short mode")
	}
	unsharded, merged := shardMergeOutputs(t)
	if unsharded != merged {
		t.Fatalf("fixed-count shard+merge differs from unsharded run:\n--- unsharded ---\n%s\n--- merged ---\n%s", unsharded, merged)
	}
	var buf bytes.Buffer
	err := run([]string{"run", "table2", "grid", "-quick", "-battery", "kibam", "-ci", "1e-12", "-max-sets", "8", "-shard", "0/2"}, &buf)
	if !errors.Is(err, experiments.ErrBadConfig) || !strings.Contains(err.Error(), "does not shard") {
		t.Fatalf("sharded -ci run err = %v, want ErrBadConfig", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("sharded -ci run printed before failing:\n%s", buf.String())
	}
}

// TestReportArtifact checks the -o JSON artifact: it round-trips through
// ReadArtifact and holds one report per experiment run.
func TestReportArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	var buf bytes.Buffer
	if err := run([]string{"run", "table2", "curve", "-quick", "-battery", "kibam", "-o", path}, &buf); err != nil {
		t.Fatal(err)
	}
	file, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	reports, err := experiments.ReadArtifact(file)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 || reports[0].Experiment != "table2" || reports[1].Experiment != "curve" {
		t.Fatalf("artifact reports = %+v", reports)
	}
	if reports[0].Version != experiments.ReportVersion {
		t.Fatalf("report version = %d", reports[0].Version)
	}
}

// TestTimeoutFlag checks that an absurdly small -timeout aborts the run with
// a context error instead of hanging.
func TestTimeoutFlag(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"run", "table2", "-quick", "-timeout", "1ns"}, &buf)
	if err == nil {
		t.Fatal("expected timeout error")
	}
	if !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

// fakeShardArtifact writes an artifact holding one minimal table2 shard
// partial, then one of each extra experiment (coverage validation runs before
// any cell is touched).
func fakeShardArtifact(t *testing.T, dir, name string, index, count int, extra ...string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	file, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	var reports []*experiments.Report
	for _, exp := range append([]string{"table2"}, extra...) {
		reports = append(reports, &experiments.Report{
			Version:    experiments.ReportVersion,
			Experiment: exp,
			Shard:      &experiments.ShardInfo{Index: index, Count: count},
		})
	}
	if err := experiments.WriteArtifact(file, reports); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMergeRejectsGapAndDuplicate is the CLI guarantee behind shard fleets:
// merging with a forgotten partial (gap) or the same partial twice
// (duplicate) fails loudly, naming the shard, instead of silently averaging
// wrong tables.
func TestMergeRejectsGapAndDuplicate(t *testing.T) {
	dir := t.TempDir()
	s0 := fakeShardArtifact(t, dir, "s0.json", 0, 3)
	s2 := fakeShardArtifact(t, dir, "s2.json", 2, 3)

	var buf bytes.Buffer
	err := run([]string{"merge", s0, s2}, &buf)
	if err == nil || !strings.Contains(err.Error(), "missing partial(s) 1/3") {
		t.Fatalf("gap merge err = %v, want missing-shard error", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("gap merge printed output before failing:\n%s", buf.String())
	}

	a0 := fakeShardArtifact(t, dir, "a0.json", 0, 2)
	b0 := fakeShardArtifact(t, dir, "b0.json", 0, 2)
	err = run([]string{"merge", a0, b0}, &buf)
	if err == nil || !strings.Contains(err.Error(), "overlapping") {
		t.Fatalf("duplicate merge err = %v, want overlapping-shard error", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("duplicate merge printed output before failing:\n%s", buf.String())
	}

	// Every artifact must hold as many reports as the first: a grid partial
	// only the second artifact carries must not be dropped.
	c0 := fakeShardArtifact(t, dir, "c0.json", 0, 2)
	c1 := fakeShardArtifact(t, dir, "c1.json", 1, 2, "grid")
	for _, files := range [][]string{{c0, c1}, {c1, c0}} {
		err = run(append([]string{"merge"}, files...), &buf)
		if err == nil || !strings.Contains(err.Error(), "same experiments") {
			t.Fatalf("merge %v err = %v, want a report-count error", files, err)
		}
		if buf.Len() != 0 {
			t.Fatalf("merge %v printed output before failing:\n%s", files, buf.String())
		}
	}
}

// startTestDaemon spins an in-process experiment daemon for submit tests.
func startTestDaemon(t *testing.T) string {
	t.Helper()
	srv, err := service.New(service.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts.URL
}

// TestSubmitMatchesLocalRun is the CLI end of the serving contract: submit
// against a daemon — unsharded and with -shards 2 — prints the same tables
// as local run and writes a byte-identical -o artifact.
func TestSubmitMatchesLocalRun(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon round-trips skipped in -short mode")
	}
	url := startTestDaemon(t)
	dir := t.TempDir()

	localOut := filepath.Join(dir, "local.json")
	var local bytes.Buffer
	if err := run([]string{"run", "table2", "-quick", "-battery", "kibam", "-o", localOut}, &local); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(localOut)
	if err != nil {
		t.Fatal(err)
	}

	for i, extra := range [][]string{nil, {"-shards", "2"}} {
		servedOut := filepath.Join(dir, "served.json")
		args := append([]string{"submit", "table2", "-quick", "-battery", "kibam",
			"-server", url, "-poll", "10ms", "-o", servedOut}, extra...)
		var served bytes.Buffer
		if err := run(args, &served); err != nil {
			t.Fatal(err)
		}
		if stripTimings(local.String()) != stripTimings(served.String()) {
			t.Fatalf("case %d: submit tables differ from local run:\n--- local ---\n%s\n--- served ---\n%s",
				i, local.String(), served.String())
		}
		got, err := os.ReadFile(servedOut)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("case %d: submit -o artifact differs from local run -o", i)
		}
	}
}

// TestSubmitResubmitsEvictedReport pins submit's answer to HTTP 410: on a
// memory-only daemon whose one-entry cache dropped a finished job's
// artifact, fetchReport resubmits the spec once and returns the bytes of the
// local run -o.
func TestSubmitResubmitsEvictedReport(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon round-trips skipped in -short mode")
	}
	srv, err := service.New(service.Config{Workers: 1, CacheEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	cli := client.New(ts.URL)
	ctx := context.Background()
	req := func(seed int64) service.JobRequest {
		return service.JobRequest{Experiment: "table2", Spec: service.SpecRequest{Quick: true, Battery: "kibam", Seed: seed}}
	}
	var ids []string
	for seed := range int64(2) {
		st, err := cli.Submit(ctx, req(seed+1))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := fetchReport(ctx, cli, req(seed+1), st.ID, 10*time.Millisecond, nil); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	// The second job's artifact pushed the first one's out of the cache.
	st, got, err := fetchReport(ctx, cli, req(1), ids[0], 10*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == ids[0] || srv.Health().Jobs != 3 {
		t.Fatalf("evicted report served by %s with %d jobs; want one resubmission", st.ID, srv.Health().Jobs)
	}
	path := filepath.Join(t.TempDir(), "local.json")
	var buf bytes.Buffer
	if err := run([]string{"run", "table2", "-quick", "-battery", "kibam", "-seed", "1", "-o", path}, &buf); err != nil {
		t.Fatal(err)
	}
	if want, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("resubmitted report differs from the local run -o (%v)", err)
	}
}

// TestSubmitErrors covers the submit flag and validation error paths without
// needing a daemon.
func TestSubmitErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"submit"}, &buf); err == nil {
		t.Fatal("expected error for submit without names")
	}
	if err := run([]string{"submit", "bogus"}, &buf); err == nil || !strings.Contains(err.Error(), "table2") {
		t.Fatalf("unknown experiment error should list registered names, got %v", err)
	}
	if err := run([]string{"submit", "table2", "-shard", "0/2"}, &buf); err == nil ||
		!strings.Contains(err.Error(), "-shards") {
		t.Fatalf("submit -shard should point at -shards, got %v", err)
	}
	if err := run([]string{"submit", "table2", "-parallel", "4"}, &buf); err == nil {
		t.Fatal("expected error for daemon-owned -parallel")
	}
	if err := run([]string{"submit", "curve", "-shards", "2"}, &buf); err == nil ||
		!strings.Contains(err.Error(), "curve") {
		t.Fatalf("sharded submit of the curve should fail fast, got %v", err)
	}
	// Adaptive set counts do not shard: refused before any request is sent.
	if err := run([]string{"submit", "table2", "-quick", "-ci", "0.2", "-shards", "2", "-server", "http://127.0.0.1:1"}, &buf); !errors.Is(err, experiments.ErrBadConfig) {
		t.Fatalf("sharded -ci submit err = %v, want ErrBadConfig", err)
	}
	// So is a target CI that means nothing.
	for _, ci := range []string{"NaN", "Inf", "-1"} {
		if err := run([]string{"submit", "table2", "-quick", "-ci", ci, "-server", "http://127.0.0.1:1"}, &buf); !errors.Is(err, experiments.ErrBadConfig) {
			t.Fatalf("submit -ci %s err = %v, want ErrBadConfig", ci, err)
		}
	}
	// Unreachable daemon: the transport error must surface.
	if err := run([]string{"submit", "table2", "-quick", "-server", "http://127.0.0.1:1", "-poll", "1ms"}, &buf); err == nil {
		t.Fatal("expected transport error for unreachable daemon")
	}
}
