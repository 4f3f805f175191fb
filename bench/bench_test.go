package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// tinySizes shrinks every workload so the whole suite, untraced and traced,
// runs in a few seconds.
func tinySizes() sizes {
	return sizes{
		stochSets: 4, kibamSets: 8, pieces: 2,
		stochWarm: 2, kibamWarm: 2,
		stochReplica: 2, kibamReplica: 4,
		coldJobs: 6, fleetJobs: 6, tracedJobs: 6,
		warmup: 1, verifyEvery: 3, setups: 1,
	}
}

func TestWorkloadsReportEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rec, err := runWorkload(context.Background(), w, 3, trace, tinySizes())
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, trace, err)
			}
			if !rec.correct() || rec.Attempted == 0 {
				t.Errorf("%s trace=%t: attempted %d, failed %d: %v", w.name, trace, rec.Attempted, rec.Failed, rec.Errors)
			}
			for _, d := range rec.catalogue() {
				m := rec.Metrics[d.Name]
				if m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%t: %s = %+v, want a finite value in %s", w.name, trace, d.Name, m, d.Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, m.Value)
				}
			}
			if c := rec.Metrics["trace.coverage"].Value; trace && (c < 0.90 || c > 1.05) {
				t.Errorf("%s: trace.coverage %v outside [0.90, 1.05]", w.name, c)
			}
			if strings.HasPrefix(w.name, "t2-") && rec.ArtifactSHA256 == "" {
				t.Errorf("%s trace=%t: no artifact SHA-256", w.name, trace)
			}
		}
	}
}

func TestResultLineIsLastAndCarriesTheCatalogue(t *testing.T) {
	rec := &record{Workload: "x", Attempted: 2, Failed: 1, Metrics: metrics{}}
	for _, d := range endToEnd {
		rec.Metrics.set(d.Name, 1.5, d.Unit)
	}
	rec.Metrics.set("extra", 7, "count")
	var b strings.Builder
	if err := printRecord(&b, rec); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	keys := make([]string, 0, len(line))
	for k := range line {
		keys = append(keys, k)
	}
	if len(keys) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Fatalf("result line keys %v", keys)
	}
	var ms metrics
	if err := json.Unmarshal(line["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(endToEnd) || string(line["correct"]) != "false" {
		t.Errorf("result line %s", lines[len(lines)-1])
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "t2-kibam", "--trace", "0", "--seed", "3", "-trace"})
	want := []string{"--workload", "t2-kibam", "--trace=0", "--seed", "3", "-trace"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("normalizeArgs = %q, want %q", got, want)
	}
}

// TestCatalogueMatchesBenchmarkJSON pins BENCHMARK.json to the workloads and
// metric catalogue the program implements.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames())
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %+v, program %+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %+v, program %+v", bf.PerLayer, perLayer)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles = %v, %v, want 1, 4", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	higher := metricDef{Name: "jobs_per_s", Better: "higher", Bound: 0.1}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, c := range []struct {
		name   string
		change []float64
		want   string
	}{
		{"same", []float64{100, 99, 101, 100, 98, 102, 100, 99, 101, 100}, "within bound"},
		{"faster", []float64{110, 111, 109, 110, 112, 108, 110, 111, 109, 110}, "gain"},
		{"slower", []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, "REGRESSION"},
		{"noisy", []float64{70, 130, 75, 125, 100, 72, 128, 100, 74, 126}, "unresolved"},
	} {
		if got, _, _ := judge(parent, c.change, higher); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareFlagsWorkChanges(t *testing.T) {
	dir := t.TempDir()
	write := func(side string, sha string, runs uint64) string {
		recs := []*record{{Workload: "t2-kibam", Seed: 1, ArtifactSHA256: sha, Metrics: metrics{}}}
		recs[0].Work.EngineRuns = runs
		for _, d := range endToEnd {
			recs[0].Metrics.set(d.Name, 1, d.Unit)
		}
		data, err := json.Marshal(recs)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, side, "run.json")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var out, errOut strings.Builder
	same := []string{write("p", "aa", 5), write("c", "aa", 5)}
	if code := compareMain(same, &out, &errOut); code != 0 {
		t.Fatalf("identical runs: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	out.Reset()
	changed := []string{write("p", "aa", 5), write("c", "bb", 6)}
	if code := compareMain(changed, &out, &errOut); code != 1 || !strings.Contains(out.String(), "FLAG t2-kibam seed 1") {
		t.Fatalf("changed work: exit %d\n%s%s", code, out.String(), errOut.String())
	}
}
