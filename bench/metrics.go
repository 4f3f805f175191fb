package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"

	"battsched/internal/obs"
)

// metricDef is one entry of the metric catalogue. BENCHMARK.json at the
// repository root lists the same entries (pinned by TestCatalogueMatchesBenchmarkJSON).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`          // "higher" or "lower"
	Bound  float64 `json:"bound,omitempty"` // allowed relative worsening; end-to-end metrics only
}

// endToEnd are the metrics an untraced run reports on every workload, with
// the bounds BENCHMARK.json gives them. A library "job" is one
// experiments.Run call (one shard round of the table); a served job runs from
// submit until its artifact is fetched. Every run also prints job_p99_ms and
// failed_frac, which are not bounded here: a library run has one job per
// round, 20 at the default length, too few for a 99th percentile, and
// failed_frac is 0 on a correct run.
var endToEnd = []metricDef{
	{"sets_per_s", "1/s", "higher", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"job_p50_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.10},
}

// perLayer are the metrics a traced run reports on every workload. A layer
// that a workload's jobs never pass through reports 0. Every time here is
// measured on every workload: the compute layers by re-executing the
// workload's own compute inputs, the served path as shares of job latency
// (its millisecond breakdown is printed as extra detail).
var perLayer = []metricDef{
	{"tgff.generate_s", "s", "lower", 0},
	{"tgff.share", "frac", "lower", 0},
	{"core.schedule_s", "s", "lower", 0},
	{"core.share", "frac", "lower", 0},
	{"core.runs", "count", "lower", 0},
	{"core.run_us", "us", "lower", 0},
	{"battery.simulate_s", "s", "lower", 0},
	{"battery.share", "frac", "lower", 0},
	{"battery.sims", "count", "lower", 0},
	{"battery.sim_us", "us", "lower", 0},
	{"battery.analytic_frac", "frac", "higher", 0},
	{"experiments.encode_ms", "ms", "lower", 0},
	{"experiments.artifact_kb", "KiB", "lower", 0},
	{"runner.scaling_eff", "frac", "higher", 0},
	{"http.submit_share", "frac", "lower", 0},
	{"service.queue_wait_share", "frac", "lower", 0},
	{"service.unit_share", "frac", "lower", 0},
	{"service.finalize_share", "frac", "lower", 0},
	{"client.notify_share", "frac", "lower", 0},
	{"http.report_share", "frac", "lower", 0},
	{"service.queue_depth_peak", "count", "lower", 0},
	{"service.retries_429", "count", "lower", 0},
	{"client.polls_per_job", "count", "lower", 0},
	{"federation.worker_requests_per_unit", "count", "lower", 0},
	{"federation.useful_dispatch_frac", "frac", "higher", 0},
	{"trace.coverage", "frac", "higher", 0},
	{"trace.overhead_frac", "frac", "lower", 0},
}

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// environment stamps where a run was measured.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// record is the full outcome of one workload run: what -o writes and what
// the compare subcommand reads.
type record struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Seconds  int         `json:"seconds"`
	Trace    bool        `json:"trace"`
	Env      environment `json:"env"`
	// Work is the obs.Sim counter delta over the measured phase. For a fixed
	// seed it repeats exactly, so a change in it is a change in work done,
	// not in speed.
	Work obs.SimSnapshot `json:"work"`
	// ArtifactSHA256 is the SHA-256 of the library workload's Table 2
	// artifact (empty for served workloads).
	ArtifactSHA256 string   `json:"artifact_sha256,omitempty"`
	Attempted      int      `json:"attempted"`
	Failed         int      `json:"failed"`
	Errors         []string `json:"errors,omitempty"`
	Metrics        metrics  `json:"metrics"`
}

// maxErrors bounds the failure messages a record keeps; Failed still counts
// every failure.
const maxErrors = 20

// failf counts one failed or incorrect operation.
func (r *record) failf(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

func (r *record) correct() bool { return r.Failed == 0 }

// catalogue returns the metrics the result line carries for this run.
func (r *record) catalogue() []metricDef {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// printRecord prints every metric by name with its unit, then the run's
// stamp, then the JSON result line.
func printRecord(w io.Writer, r *record) error {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%-10s %-40s %16s %s\n", r.Workload, name, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
	}
	fmt.Fprintf(w, "%-10s work: engine_runs=%d battery_analytic=%d battery_stepped=%d battery_batches=%d\n",
		r.Workload, r.Work.EngineRuns, r.Work.BatteryAnalytic, r.Work.BatteryStepped, r.Work.BatteryBatches)
	if r.ArtifactSHA256 != "" {
		fmt.Fprintf(w, "%-10s artifact sha256 %s\n", r.Workload, r.ArtifactSHA256)
	}
	fmt.Fprintf(w, "%-10s seed=%d seconds=%d trace=%t nproc=%d gomaxprocs=%d %s commit=%s\n", r.Workload,
		r.Seed, r.Seconds, r.Trace, r.Env.NumCPU, r.Env.GOMAXPROCS, r.Env.GoVersion, r.Env.Commit)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "%-10s FAILED: %s\n", r.Workload, e)
	}
	line := resultLine{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: metrics{}}
	for _, d := range r.catalogue() {
		line.Metrics[d.Name] = r.Metrics[d.Name]
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// setJobTimes sets the throughput and latency metrics of jobs that took lat
// seconds each and together did sets Table 2 sets in total seconds.
func setJobTimes(m metrics, sets, total float64, lat []float64) {
	m.set("sets_per_s", sets/total, "1/s")
	m.set("jobs_per_s", float64(len(lat))/total, "1/s")
	m.set("job_p50_ms", median(lat)*1e3, "ms")
	m.set("job_p99_ms", percentile(lat, 0.99)*1e3, "ms")
	m.set("job_samples", float64(len(lat)), "count")
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1); 0 for no
// values. With n values, n·(1-p) of them lie above it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// resetPeakRSS returns the freed heap to the operating system and restarts
// the kernel's count of the process's peak resident set size (VmHWM) from the
// current RSS, so that the next peakRSSMB reads the peak of what ran in
// between, not a peak left by earlier work or by when the collector happened
// to run.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
