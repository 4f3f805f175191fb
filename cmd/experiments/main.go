// Command experiments regenerates the tables and figures of the paper's
// evaluation section through the experiment registry:
//
//	experiments list                     show every registered experiment
//	experiments run <name>... [flags]    run experiments by registry name
//	experiments submit <name>... -server URL [flags]
//	                                     run experiments on a remote
//	                                     battschedd daemon (-shards n fans
//	                                     each job out server-side)
//	experiments merge [-o out] a.json b.json...
//	                                     merge shard partials and render the
//	                                     combined tables
//
// Registered experiments: table1, figure6, table2, curve, ablation, grid
// (see EXPERIMENTS.md for each experiment's paper provenance and knobs);
// "run all" expands to the paper's own artifacts (table1 figure6 table2
// curve). A call without one of the subcommands above is an error.
//
// Every experiment runs on the parallel job-grid harness; -parallel selects
// the worker count (default: all cores) and the emitted tables are
// byte-identical for any worker count with the same seed. -timeout bounds the
// whole run, -progress reports per-job completion on stderr (a rewriting
// status line on a terminal, plain newline lines when redirected).
//
// -ci enables adaptive set counts: each stochastic experiment keeps running
// batches of task-graph sets until the relative Student-t CI95 half-width of
// its key metric (battery lifetime for Table 2 and the grid, normalised
// energy otherwise) drops below the target, bounded by -max-sets. The
// samples/sets columns of the emitted tables report the counts actually run.
//
// -o report.json writes the run's structured Reports (accumulator-backed
// metric cells) as a versioned JSON artifact. -shard i/n restricts a run to
// its shard of the absolute set indices and emits a partial report; the merge
// subcommand combines the partials of all n shards into exactly the tables
// the unsharded run prints:
//
//	experiments run table2 -quick -shard 0/2 -o s0.json
//	experiments run table2 -quick -shard 1/2 -o s1.json
//	experiments merge -o merged.json s0.json s1.json
//
// The -quick flag runs reduced versions (the same configurations the
// benchmark harness uses); the full versions match the parameters recorded in
// EXPERIMENTS.md.
//
// -cpuprofile and -memprofile write runtime/pprof profiles of a local run
// for `go tool pprof`; submit rejects them because its compute happens on
// the daemon.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"battsched/internal/experiments"
	"battsched/internal/profutil"
	"battsched/internal/service"
	"battsched/internal/service/client"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// stderrIsTerminal reports whether stderr is a character device, so carriage
// returns and ANSI erases will actually rewrite a status line instead of
// littering a redirected log.
func stderrIsTerminal() bool {
	fi, err := os.Stderr.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

// progressPrinter returns a RunOptions.Progress callback and a done function
// that finishes the output. On a terminal it rewrites one stderr status line
// and clears it; on a redirected stream it falls back to a plain newline per
// decile of completed jobs, so logs stay readable.
func progressPrinter(name string, enabled bool) (func(done, total int), func()) {
	if !enabled {
		return nil, func() {}
	}
	if stderrIsTerminal() {
		return func(done, total int) {
				fmt.Fprintf(os.Stderr, "\r%s: %d/%d jobs", name, done, total)
			}, func() {
				fmt.Fprint(os.Stderr, "\r\033[K")
			}
	}
	last := -1
	return func(done, total int) {
		if total <= 0 {
			return
		}
		if decile := done * 10 / total; decile != last {
			last = decile
			fmt.Fprintf(os.Stderr, "%s: %d/%d jobs\n", name, done, total)
		}
	}, func() {}
}

// runnerFlags carries the flags shared by the run and submit subcommands.
// The spec flags bind straight into spec; run parses -shard into it.
type runnerFlags struct {
	spec     experiments.Spec
	timeout  time.Duration
	progress bool
	shard    string
	out      string
	cpuProf  string
	memProf  string
}

// register wires the shared flags into a FlagSet.
func (f *runnerFlags) register(fs *flag.FlagSet) {
	s := &f.spec
	fs.BoolVar(&s.Quick, "quick", false, "use the reduced (benchmark) configurations")
	fs.Int64Var(&s.Seed, "seed", 1, "random seed (0 selects the default seed 1)")
	fs.IntVar(&s.Sets, "sets", 0, "override the per-row set/graph count of the stochastic experiments (0: each driver's default; negative: refused)")
	fs.Float64Var(&s.Utilization, "utilization", 0, "override the worst-case utilisation of table1, figure6, table2 and ablation (0: each driver's default; outside (0, 1]: refused for every experiment)")
	fs.StringVar(&s.Battery, "battery", "", "battery model by registry name for table2, grid and curve (default: each driver's default; an unknown name is refused for every experiment, listing the registered models)")
	fs.BoolVar(&s.Oracle, "oracle", false, "give pUBS perfect estimates of actual requirements (table2, grid)")
	fs.BoolVar(&s.CCEDF, "figure6-ccedf", false, "use ccEDF instead of laEDF for Figure 6 frequency setting")
	fs.Float64Var(&s.MaxStep, "maxstep", 0, "force uniform battery stepping with this substep in seconds for the curve (0: analytic fast path; NaN, infinite or negative: refused)")
	fs.IntVar(&s.Parallel, "parallel", 0, "worker count for the job-grid runner (<= 0: all cores, 1: sequential)")
	fs.DurationVar(&f.timeout, "timeout", 0, "abort the whole run after this duration (0: no limit)")
	fs.BoolVar(&f.progress, "progress", false, "report per-job progress on stderr")
	fs.Float64Var(&s.TargetCI, "ci", 0, "adaptive set counts: run batches of sets until the relative CI95 half-width of each experiment's key metric drops below this target (0: fixed set counts)")
	fs.IntVar(&s.MaxSets, "max-sets", 0, "hard cap on adaptively grown set counts (0: 8x the configured count; only with -ci)")
	fs.StringVar(&f.shard, "shard", "", "run only shard i of n (\"i/n\") of the absolute set indices and emit a partial report; combine with the merge subcommand")
	fs.StringVar(&f.out, "o", "", "write the run's structured reports to this JSON artifact")
	fs.StringVar(&f.cpuProf, "cpuprofile", "", "write a runtime/pprof CPU profile of the local run to this file")
	fs.StringVar(&f.memProf, "memprofile", "", "write a runtime/pprof allocation profile of the local run to this file")
}

func run(args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("no subcommand (subcommands are: run, submit, merge, list)")
	}
	switch args[0] {
	case "run":
		return cmdRun(args[1:], stdout)
	case "submit":
		return cmdSubmit(args[1:], stdout)
	case "merge":
		return cmdMerge(args[1:], stdout)
	case "list":
		return cmdList(stdout)
	case "help", "-h", "-help", "--help":
		return cmdList(stdout)
	}
	return fmt.Errorf("unknown subcommand %q (subcommands are: run, submit, merge, list)", args[0])
}

// cmdList prints the registered experiments.
func cmdList(stdout io.Writer) error {
	fmt.Fprintln(stdout, "usage: experiments run <name>... [flags] | experiments submit <name>... -server URL [flags] | experiments merge [-o out] shard.json... | experiments list")
	fmt.Fprintln(stdout, "\nregistered experiments (run \"all\" selects the paper set: table1 figure6 table2 curve):")
	for _, name := range experiments.Names() {
		d, err := experiments.Lookup(name)
		if err != nil {
			return err
		}
		shard := ""
		if d.Shardable {
			shard = " [shardable]"
		}
		fmt.Fprintf(stdout, "  %-9s %s%s\n", d.Name, d.Title, shard)
	}
	fmt.Fprintln(stdout, "\nsee EXPERIMENTS.md for per-experiment provenance, knobs and the shard/merge workflow")
	return nil
}

// cmdRun executes `run <name>... [flags]`: experiment names are the leading
// non-flag arguments and dispatch data-driven through the registry.
func cmdRun(args []string, stdout io.Writer) error {
	names, args := leadingNames(args)
	if len(names) == 0 {
		return fmt.Errorf("run: no experiments named (try \"experiments list\")")
	}
	fs := flag.NewFlagSet("experiments run", flag.ContinueOnError)
	var f runnerFlags
	f.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("run: experiment names must precede the flags (unexpected %q)", fs.Arg(0))
	}
	var err error
	if f.spec.Shard, err = experiments.ParseShard(f.shard); err != nil {
		return err
	}
	expanded, err := expandNames(names, f.spec, f.spec.Shard.Enabled())
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	return execute(expanded, f, stdout)
}

// expandNames expands "all" to the paper set, drops duplicates, preserving
// order, and checks spec against every experiment it names
// (experiments.Definition.Check), so a selection fails before anything runs
// or is sent: a sharded fleet must not lose hours of completed work to a
// late error on the next name in the list.
func expandNames(names []string, spec experiments.Spec, sharded bool) ([]string, error) {
	var expanded []string
	seen := map[string]bool{}
	for _, name := range names {
		group := []string{name}
		if name == "all" {
			group = experiments.PaperExperiments()
		}
		for _, n := range group {
			d, err := experiments.Lookup(n)
			if err != nil {
				return nil, err
			}
			if err := d.Check(spec, sharded); err != nil {
				return nil, err
			}
			if !seen[n] {
				seen[n] = true
				expanded = append(expanded, n)
			}
		}
	}
	return expanded, nil
}

// leadingNames splits the leading non-flag arguments (experiment names) off
// args.
func leadingNames(args []string) ([]string, []string) {
	var names []string
	for len(args) > 0 && len(args[0]) > 0 && args[0][0] != '-' {
		names = append(names, args[0])
		args = args[1:]
	}
	return names, args
}

// cmdSubmit drives a remote experiment daemon (cmd/battschedd) with the same
// selection and spec flags as local run: each named experiment is submitted
// as one job (-shards n fans it out over n server-side shard units), polled
// to completion, rendered like run renders local reports, and written with
// -o as a report artifact. A single-experiment -o file is the daemon's
// artifact byte-for-byte — identical to the file the equivalent local
// `run -o` writes. A report the daemon's cache dropped before it was read
// (HTTP 410) is resubmitted once.
func cmdSubmit(args []string, stdout io.Writer) error {
	names, args := leadingNames(args)
	if len(names) == 0 {
		return fmt.Errorf("submit: no experiments named (try \"experiments list\")")
	}
	fs := flag.NewFlagSet("experiments submit", flag.ContinueOnError)
	var f runnerFlags
	f.register(fs)
	server := fs.String("server", "http://127.0.0.1:8344", "experiment service base URL")
	shards := fs.Int("shards", 0, "fan each job out over this many server-side shard units (0 or 1: unsharded)")
	poll := fs.Duration("poll", 200*time.Millisecond, "longest one job status request waits for the job to finish (long-poll), and the shortest interval between two requests")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("submit: experiment names must precede the flags (unexpected %q)", fs.Arg(0))
	}
	if f.shard != "" {
		return fmt.Errorf("submit: -shard selects a local shard slice; use -shards n to fan out on the service")
	}
	if f.spec.Parallel != 0 {
		return fmt.Errorf("submit: -parallel is daemon-owned (start battschedd with -parallel)")
	}
	if f.cpuProf != "" || f.memProf != "" {
		return fmt.Errorf("submit: -cpuprofile/-memprofile profile local runs; the compute happens on the daemon")
	}
	expanded, err := expandNames(names, f.spec, *shards > 1)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}

	ctx := context.Background()
	if f.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.timeout)
		defer cancel()
	}
	cli := client.New(*server)
	// Submit every job up front — the daemon's queue is asynchronous, so a
	// multi-experiment submission runs concurrently on its worker pool — then
	// poll and render in submission order to keep the output deterministic.
	type submission struct {
		req   service.JobRequest
		id    string
		start time.Time
	}
	subs := make([]submission, 0, len(expanded))
	for _, name := range expanded {
		req := service.JobRequest{Experiment: name, Spec: service.SpecRequest(f.spec), Shards: *shards}
		st, err := cli.Submit(ctx, req)
		if err != nil {
			return err
		}
		// The trace id threads this submission through the fleet's JSONL event
		// logs (grep it in <cache-dir>/events.jsonl on the daemon and workers).
		fmt.Fprintf(os.Stderr, "experiments: %s submitted as %s trace=%s\n", name, st.ID, st.TraceID)
		subs = append(subs, submission{req: req, id: st.ID, start: time.Now()})
	}
	var (
		artifacts [][]byte
		all       []*experiments.Report
	)
	for _, sub := range subs {
		name := sub.req.Experiment
		cb, clear := progressPrinter(name, f.progress)
		observe := func(s service.JobStatus) {
			if cb == nil {
				return
			}
			done, total := 0, 0
			for _, sh := range s.Shards {
				done += sh.Done
				total += sh.Total
			}
			if total > 0 {
				cb(done, total)
			}
		}
		st, raw, err := fetchReport(ctx, cli, sub.req, sub.id, *poll, observe)
		clear()
		if err != nil {
			return err
		}
		if st.Cached {
			fmt.Fprintf(os.Stderr, "experiments: %s served from cache (%.12s)\n", name, st.Hash)
		}
		reports, err := experiments.ParseArtifact(raw)
		if err != nil {
			return err
		}
		for _, rep := range reports {
			out, err := experiments.FormatReport(rep)
			if err != nil {
				return err
			}
			fmt.Fprint(stdout, out)
			fmt.Fprint(stdout, experiments.Footer(rep, time.Since(sub.start)))
		}
		artifacts = append(artifacts, raw)
		all = append(all, reports...)
	}
	if f.out == "" {
		return nil
	}
	if len(artifacts) == 1 {
		// One job: keep the daemon's artifact bytes verbatim (the
		// byte-identity contract with the local run -o file).
		return os.WriteFile(f.out, artifacts[0], 0o644)
	}
	return writeArtifactFile(f.out, all)
}

// fetchReport waits for job id, submitted as req, to finish and fetches its
// report artifact. A failed job is an error naming the job and its failure.
// A report the daemon's cache dropped before it was read (HTTP 410: a
// memory-only daemon keeps the last -cache-entries artifacts) is resubmitted
// once.
func fetchReport(ctx context.Context, cli *client.Client, req service.JobRequest, id string, poll time.Duration, observe func(service.JobStatus)) (service.JobStatus, []byte, error) {
	for resubmitted := false; ; resubmitted = true {
		st, err := cli.Wait(ctx, id, poll, observe)
		if err != nil {
			return st, nil, err
		}
		if st.State == service.StateFailed {
			return st, nil, fmt.Errorf("submit: job %s (%s) failed: %s", st.ID, req.Experiment, st.Error)
		}
		raw, err := cli.ReportArtifact(ctx, st.ID)
		var ae *client.APIError
		if resubmitted || !errors.As(err, &ae) || ae.Status != http.StatusGone {
			return st, raw, err
		}
		fmt.Fprintf(os.Stderr, "experiments: %s report evicted on the daemon; resubmitting\n", req.Experiment)
		if st, err = cli.Submit(ctx, req); err != nil {
			return st, nil, err
		}
		id = st.ID
	}
}

// execute runs the named experiments in order, prints each rendered table and
// writes the artifact when requested. -cpuprofile/-memprofile profile the
// whole run (runtime/pprof), profiles flushed after the last experiment.
func execute(names []string, f runnerFlags, stdout io.Writer) error {
	stop, err := profutil.Start(f.cpuProf, f.memProf)
	if err != nil {
		return err
	}
	err = executeAll(names, f, stdout)
	if serr := stop(); err == nil {
		err = serr
	}
	return err
}

// executeAll is execute without the profiling envelope.
func executeAll(names []string, f runnerFlags, stdout io.Writer) error {
	ctx := context.Background()
	if f.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.timeout)
		defer cancel()
	}
	var reports []*experiments.Report
	for _, name := range names {
		s := f.spec
		cb, clear := progressPrinter(name, f.progress)
		s.Progress = cb
		start := time.Now()
		rep, err := experiments.Run(ctx, name, s)
		clear()
		if err != nil {
			return err
		}
		out, err := experiments.FormatReport(rep)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, out)
		fmt.Fprint(stdout, experiments.Footer(rep, time.Since(start)))
		reports = append(reports, rep)
	}
	return writeArtifactFile(f.out, reports)
}

// writeArtifactFile writes reports to path as a JSON artifact (no-op for "").
func writeArtifactFile(path string, reports []*experiments.Report) error {
	if path == "" {
		return nil
	}
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := experiments.WriteArtifact(file, reports); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

// cmdMerge combines the shard partials of one or more experiments: every
// artifact must hold the same experiments, each run with -shard i/n for a
// complete 0..n-1 partition. The merged tables render exactly like the
// unsharded run's; -o writes the merged reports as an artifact.
func cmdMerge(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments merge", flag.ContinueOnError)
	out := fs.String("o", "", "write the merged reports to this JSON artifact")
	if err := fs.Parse(args); err != nil {
		return err
	}
	files := fs.Args()
	if len(files) == 0 {
		return fmt.Errorf("merge: no report artifacts named")
	}
	byFile := make([][]*experiments.Report, len(files))
	for i, path := range files {
		file, err := os.Open(path)
		if err != nil {
			return err
		}
		reports, err := experiments.ReadArtifact(file)
		file.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if len(reports) == 0 {
			return fmt.Errorf("%s: empty report artifact", path)
		}
		if i > 0 && len(reports) != len(byFile[0]) {
			return fmt.Errorf("%s: holds %d report(s), %s holds %d (all artifacts must run the same experiments)",
				path, len(reports), files[0], len(byFile[0]))
		}
		byFile[i] = reports
	}
	// The first artifact fixes the experiment order; every artifact must
	// contribute exactly one partial per experiment.
	groups := make([][]*experiments.Report, len(byFile[0]))
	for ri, first := range byFile[0] {
		parts := make([]*experiments.Report, 0, len(byFile))
		for fi, reports := range byFile {
			if reports[ri].Experiment != first.Experiment {
				return fmt.Errorf("%s: expected a %q report at position %d (all artifacts must run the same experiments)",
					files[fi], first.Experiment, ri)
			}
			parts = append(parts, reports[ri])
		}
		groups[ri] = parts
	}
	// Validate shard coverage of every experiment up front — a missing or
	// duplicated partial anywhere must fail the whole merge before any table
	// is printed, not after experiment 1's output already scrolled by.
	for _, parts := range groups {
		if err := experiments.ValidateShardCoverage(parts); err != nil {
			return err
		}
	}
	var merged []*experiments.Report
	for _, parts := range groups {
		start := time.Now()
		rep, err := experiments.MergeReports(parts)
		if err != nil {
			return err
		}
		text, err := experiments.FormatReport(rep)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, text)
		fmt.Fprint(stdout, experiments.Footer(rep, time.Since(start)))
		merged = append(merged, rep)
	}
	return writeArtifactFile(*out, merged)
}
