// Command bench is the repository benchmark. It runs four fixed workloads
// through the program's public entry points only — experiments.Run and
// experiments.WriteArtifact, the experiment daemon and the federation
// coordinator behind loopback HTTP, and the typed client — checks every
// output, and prints each metric by name with its unit. BENCHMARK.json at the
// repository root lists the workloads, the end-to-end metrics with their
// regression bounds and the per-layer metrics; README.md in this directory
// explains them.
//
// Run it from the repository root through bench/run.sh, which builds it
// offline into .bench_build/ first:
//
//	bash bench/run.sh -workload t2-stoch -seed 1      # one workload
//	bash bench/run.sh -seed 1 -o runs/all.json        # all four, one process each
//	bash bench/run.sh -workload serve-cold -trace     # per-layer metrics
//	bash bench/run.sh compare runs/parent/*.json runs/change/*.json
//
// The flags also take the spelling --workload NAME --seed N --seconds S
// --trace 0|1.
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics of an untraced run,
// the per-layer metrics of a traced one. The exit status is nonzero when any
// output was wrong or any job failed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// workload is one fixed input set of the benchmark.
type workload struct {
	name string
	run  func(ctx context.Context, rec *record, dir string, sz sizes) error
}

// workloads are run in this order when no -workload is given. BENCHMARK.json
// records why each was chosen.
var workloads = []workload{
	{"t2-stoch", func(ctx context.Context, rec *record, _ string, sz sizes) error {
		return runLibrary(ctx, rec, "stochastic", sz.stochSets, sz.stochWarm, sz.stochReplica, sz)
	}},
	{"t2-kibam", func(ctx context.Context, rec *record, _ string, sz sizes) error {
		return runLibrary(ctx, rec, "kibam", sz.kibamSets, sz.kibamWarm, sz.kibamReplica, sz)
	}},
	{"serve-cold", func(ctx context.Context, rec *record, dir string, sz sizes) error {
		return runServed(ctx, rec, dir, sz, false)
	}},
	{"fleet-cold", func(ctx context.Context, rec *record, dir string, sz sizes) error {
		return runServed(ctx, rec, dir, sz, true)
	}},
}

// sizes fixes the amount of work of every workload. It depends only on the
// -seconds flag, never on how fast the program runs, so both sides of a
// comparison do identical work.
type sizes struct {
	stochSets, kibamSets       int // Table 2 sets of the library workloads
	pieces                     int // pieces the timed work is cut into: library shard rounds or served closed-loop passes
	stochWarm, kibamWarm       int // sets of one library warm-up run
	stochReplica, kibamReplica int // leading sets the traced library run re-executes
	coldJobs, fleetJobs        int // timed jobs of serve-cold and fleet-cold
	tracedJobs                 int // timed jobs of a traced served run
	warmup                     int // warm-up jobs of each served set-up
	verifyEvery                int // byte-compare every n-th served job against a local run
	setups                     int // set-ups per untraced run; setup_s is their median
}

// sizesFor returns the workload sizes for an untraced timed phase of about
// seconds seconds on a 2-core machine that runs 22 stochastic or 330 KiBaM
// Table 2 sets per second, and 100 serve-cold or 60 fleet-cold jobs per
// second (the reference box in its slower hours). Each piece of the timed
// work lasts about a second: the host probe must be read that often to
// follow the host's speed (host.go). A traced run does the same fixed work at
// every -seconds: its metrics carry no bound, so it only needs enough samples
// for the per-layer split.
func sizesFor(seconds int) sizes {
	per := func(rate float64) int { return max(1, int(math.Round(rate*float64(seconds)))) }
	return sizes{
		stochSets: per(22), kibamSets: per(330), pieces: seconds,
		stochWarm: 8, kibamWarm: 80,
		stochReplica: 100, kibamReplica: 1000,
		coldJobs: per(100), fleetJobs: per(60), tracedJobs: 1000,
		warmup: 20, verifyEvery: 25, setups: 5,
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (default: all)")
	seed := fs.Int64("seed", 1, "workload seed; the same seed generates the same inputs")
	seconds := fs.Int("seconds", 20, "length of an untraced timed phase on the reference box; the fixed work scales with it")
	trace := fs.Bool("trace", false, "traced run: report the per-layer metrics instead of the end-to-end ones")
	out := fs.String("o", "", "also write the run records as a JSON array to this file")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 1")
		return 2
	}
	if *name == "" {
		return runEach(args, *out, stdout, stderr)
	}
	var selected *workload
	for i := range workloads {
		if workloads[i].name == *name {
			selected = &workloads[i]
		}
	}
	if selected == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	rec, err := runWorkload(context.Background(), *selected, *seed, *trace, sizesFor(*seconds))
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *name, err)
		return 1
	}
	rec.Seconds, rec.Env = *seconds, environmentStamp()
	if err := printRecord(stdout, rec); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if *out != "" {
		if err := writeRecords(*out, []*record{rec}); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if !rec.correct() {
		return 1
	}
	return 0
}

// runEach runs every workload in a process of its own, so that none inherits
// another's peak RSS, heap or goroutines: it re-executes this program once
// per workload with the same flags, and collects the records into out.
func runEach(args []string, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp("", "battbench-all-")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	var recs []*record
	code := 0
	for _, w := range workloads {
		path := filepath.Join(dir, w.name+".json")
		// Later flags win, so these override any -workload or -o in args.
		cmd := exec.Command(exe, append(slices.Clone(args), "-workload", w.name, "-o", path)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		runErr := cmd.Run()
		got, err := loadRecords([]string{path})
		if err != nil {
			// No record: the workload could not run at all.
			fmt.Fprintf(stderr, "bench: %s: %v (%v)\n", w.name, runErr, err)
			return 1
		}
		if runErr != nil {
			code = 1 // the run completed, but some output was wrong
		}
		recs = append(recs, got...)
	}
	if out != "" {
		if err := writeRecords(out, recs); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	return code
}

// writeRecords writes run records as the JSON array compare reads.
func writeRecords(path string, recs []*record) error {
	data, err := json.MarshalIndent(recs, "", "  ")
	if err == nil {
		err = os.MkdirAll(filepath.Dir(path), 0o755)
	}
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// normalizeArgs rewrites "-trace 0" and "--trace 1" into the "-trace=0" form
// the flag package needs for a boolean flag followed by its value.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// runWorkload runs one workload in a fresh scratch directory and checks that
// it reported its whole metric catalogue with finite values.
func runWorkload(ctx context.Context, w workload, seed int64, trace bool, sz sizes) (*record, error) {
	rec := &record{Workload: w.name, Seed: seed, Trace: trace, Metrics: metrics{}}
	dir, err := os.MkdirTemp("", "battbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := w.run(ctx, rec, dir, sz); err != nil {
		return nil, err
	}
	if trace {
		// A layer the workload's jobs never pass through did no work.
		for _, d := range perLayer {
			if _, ok := rec.Metrics[d.Name]; !ok {
				rec.Metrics.set(d.Name, 0, d.Unit)
			}
		}
	} else {
		rec.Metrics.set("failed_frac", ratio(float64(rec.Failed), float64(rec.Attempted)), "frac")
	}
	for _, d := range rec.catalogue() {
		m, ok := rec.Metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if m.Unit != d.Unit {
			return nil, fmt.Errorf("metric %s has unit %q, want %q", d.Name, m.Unit, d.Unit)
		}
	}
	for name, m := range rec.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", name, m.Value)
		}
	}
	return rec, nil
}

// environmentStamp records the machine and the commit a run measured.
func environmentStamp() environment {
	return environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

// commit returns `git rev-parse HEAD` of the repository holding
// BENCHMARK.json, or "unknown" outside a git checkout. Git may not search
// above that directory, so a checkout nested in another repository does not
// report the outer one's commit.
func commit() string {
	root, err := repoRoot()
	if err != nil {
		return "unknown"
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, "git", "rev-parse", "HEAD")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// repoRoot returns the nearest directory at or above the working directory
// that holds BENCHMARK.json.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json at or above the working directory")
		}
		dir = parent
	}
}
