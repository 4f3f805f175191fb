package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the compare subcommand reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// compareMain is `bench compare parent/*.json change/*.json`, judged with the
// bounds of the BENCHMARK.json at or above the working directory. The record
// files (written with -o) split into the parent and the change side by
// directory, in the order the directories first appear. For every (workload,
// metric) it reports each side's median and quartiles and a verdict:
//
//   - gain: the change wins at least 9 of 10 pairs (runs paired in seed
//     order) and the medians differ, in the better direction, by more than
//     the parent's interquartile range;
//   - REGRESSION: the change's median is worse than the parent's by more
//     than the metric's bound;
//   - unresolved: either side's spread (interquartile range over median) is
//     wider than the bound, unless every change run beats every parent run;
//   - within bound: none of the above.
//
// Metrics without a bound — the per-layer ones and the extra details every
// run prints — get no verdict ("-"). Runs of the same workload and seed must
// repeat their artifact SHA-256, their obs.Sim work counts and their
// core.runs and battery.sims exactly; any difference is flagged. The exit
// status is 1 on any regression or flag.
func compareMain(args []string, stdout, stderr io.Writer) int {
	var dirs []string
	side := map[string][]string{}
	for _, f := range args {
		d := filepath.Dir(f)
		if _, ok := side[d]; !ok {
			dirs = append(dirs, d)
		}
		side[d] = append(side[d], f)
	}
	if len(dirs) != 2 {
		fmt.Fprintf(stderr, "bench compare: want record files from exactly two directories (parent, change), got %d\n", len(dirs))
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintf(stderr, "bench compare: %v\n", err)
		return 2
	}
	bf, err := readBenchmarkFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintf(stderr, "bench compare: %v\n", err)
		return 2
	}
	parent, err := loadRecords(side[dirs[0]])
	if err == nil {
		var change []*record
		change, err = loadRecords(side[dirs[1]])
		if err == nil {
			if compareRecords(stdout, bf, parent, change) {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintf(stderr, "bench compare: %v\n", err)
	return 2
}

// loadRecords reads record files written with -o, sorted by seed.
func loadRecords(files []string) ([]*record, error) {
	var out []*record
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var recs []*record
		if err := json.Unmarshal(data, &recs); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, recs...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seed < out[j].Seed })
	return out, nil
}

// compareRecords prints the comparison and reports whether it found a
// regression or a flag.
func compareRecords(w io.Writer, bf *benchmarkFile, parent, change []*record) bool {
	bad := false
	var names []string
	seen := map[string]bool{}
	for _, wl := range bf.Workloads {
		names, seen[wl.Name] = append(names, wl.Name), true
	}
	for _, r := range append(append([]*record(nil), parent...), change...) {
		if !seen[r.Workload] {
			names, seen[r.Workload] = append(names, r.Workload), true
		}
	}
	fmt.Fprintf(w, "%-10s %-36s %-6s %-30s %-30s %8s %6s  %s\n",
		"workload", "metric", "unit", "parent median [q1, q3] (n)", "change median [q1, q3] (n)", "delta", "wins", "verdict")
	for _, wl := range names {
		for _, traced := range []bool{false, true} {
			defs := bf.EndToEnd
			if traced {
				defs = bf.PerLayer
			}
			p, c := pick(parent, wl, traced), pick(change, wl, traced)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			for _, d := range slices.Concat(defs, unlisted(p, defs)) {
				pv, cv := values(p, d.Name), values(c, d.Name)
				if len(pv) == 0 || len(cv) == 0 {
					continue
				}
				v, wins, pairs := "-", 0, 0
				if d.Bound > 0 {
					v, wins, pairs = judge(pv, cv, d)
				}
				if v == "REGRESSION" {
					bad = true
				}
				fmt.Fprintf(w, "%-10s %-36s %-6s %-30s %-30s %+7.1f%% %6s  %s\n", wl, d.Name, d.Unit,
					summary(pv), summary(cv), 100*ratio(median(cv)-median(pv), median(pv)),
					fmt.Sprintf("%d/%d", wins, pairs), v)
			}
		}
	}
	for _, f := range workFlags(parent, change) {
		fmt.Fprintln(w, "FLAG", f)
		bad = true
	}
	return bad
}

func pick(recs []*record, workload string, traced bool) []*record {
	var out []*record
	for _, r := range recs {
		if r.Workload == workload && r.Trace == traced {
			out = append(out, r)
		}
	}
	return out
}

// unlisted returns the metrics the records carry beyond defs (job_p99_ms,
// failed_frac, the millisecond breakdown of the served path, ...), sorted by
// name; they are compared without a verdict.
func unlisted(recs []*record, defs []metricDef) []metricDef {
	listed := map[string]bool{}
	for _, d := range defs {
		listed[d.Name] = true
	}
	var out []metricDef
	for _, r := range recs {
		for name, m := range r.Metrics {
			if !listed[name] {
				listed[name] = true
				out = append(out, metricDef{Name: name, Unit: m.Unit})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func values(recs []*record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", median(xs), q1, q3, len(xs))
}

// judge applies the verdict rule of compareMain to one end-to-end metric.
func judge(p, c []float64, d metricDef) (verdict string, wins, pairs int) {
	sign := 1.0
	if d.Better == "lower" {
		sign = -1
	}
	pairs = min(len(p), len(c))
	for i := range pairs {
		if sign*(c[i]-p[i]) > 0 {
			wins++
		}
	}
	mp, mc := median(p), median(c)
	q1p, q3p := quartiles(p)
	q1c, q3c := quartiles(c)
	allBetter := true
	for _, x := range c {
		for _, y := range p {
			if sign*(x-y) <= 0 {
				allBetter = false
			}
		}
	}
	spread := max(ratio(q3p-q1p, mp), ratio(q3c-q1c, mc))
	switch {
	case pairs > 0 && 10*wins >= 9*pairs && sign*(mc-mp) > q3p-q1p:
		return "gain", wins, pairs
	case sign*ratio(mp-mc, mp) > d.Bound:
		return "REGRESSION", wins, pairs
	case spread > d.Bound && !allBetter:
		return "unresolved", wins, pairs
	}
	return "within bound", wins, pairs
}

// workFlags lists every (workload, seed, trace) group whose runs disagree on
// a quantity that must repeat exactly for a fixed seed.
func workFlags(parent, change []*record) []string {
	type key struct {
		workload string
		seed     int64
		trace    bool
	}
	type tagged struct {
		side string
		r    *record
	}
	groups := map[key][]tagged{}
	var keys []key
	for _, s := range []struct {
		name string
		recs []*record
	}{{"parent", parent}, {"change", change}} {
		for _, r := range s.recs {
			k := key{r.Workload, r.Seed, r.Trace}
			if _, ok := groups[k]; !ok {
				keys = append(keys, k)
			}
			groups[k] = append(groups[k], tagged{s.name, r})
		}
	}
	var flags []string
	for _, k := range keys {
		g := groups[k]
		first := g[0]
		for _, t := range g[1:] {
			var diffs []string
			if t.r.ArtifactSHA256 != first.r.ArtifactSHA256 {
				diffs = append(diffs, fmt.Sprintf("artifact sha256 %.12s vs %.12s", first.r.ArtifactSHA256, t.r.ArtifactSHA256))
			}
			if t.r.Work != first.r.Work {
				diffs = append(diffs, fmt.Sprintf("work %+v vs %+v", first.r.Work, t.r.Work))
			}
			for _, name := range []string{"core.runs", "battery.sims"} {
				if a, b := first.r.Metrics[name], t.r.Metrics[name]; a != b {
					diffs = append(diffs, fmt.Sprintf("%s %v vs %v", name, a.Value, b.Value))
				}
			}
			if len(diffs) > 0 {
				flags = append(flags, fmt.Sprintf("%s seed %d trace=%t: %s run vs %s run: %s",
					k.workload, k.seed, k.trace, first.side, t.side, strings.Join(diffs, "; ")))
			}
		}
	}
	return flags
}
