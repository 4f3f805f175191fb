package battsched

import (
	"context"
	"math/rand"

	"battsched/internal/experiments"
	"battsched/internal/runner"
	"battsched/internal/stats"
)

// Parallel experiment running (see internal/runner and internal/experiments).
//
// Every stochastic sweep in this module runs on a job-grid harness: the
// (set × scheme × sweep-point) grid is enumerated as independent jobs on a
// bounded worker pool, each job derives its random stream from the experiment
// seed and its grid coordinates, and results stream back in job order — so
// sweeps are byte-identical at any worker count without materialising the
// grid.
type (
	// RunnerOptions tune one ParallelMap call: worker-pool size and an
	// optional progress callback.
	RunnerOptions = runner.Options
	// ExperimentOptions are the execution knobs embedded in every experiment
	// configuration: Parallel worker count, Progress callback, and the
	// adaptive-stopping knobs TargetCI (relative Student-t CI95 half-width
	// target for the experiment's key metric) and MaxSets (hard cap on the
	// adaptively grown set count).
	ExperimentOptions = experiments.RunOptions
	// JobPanicError reports a job that panicked inside ParallelMap.
	JobPanicError = runner.PanicError
)

// ParallelMap executes jobs 0..n-1 on a bounded worker pool and returns their
// results in job-index order; the first job error cancels the rest. Combine
// with DeriveSeed/SeededRNG so each job owns its random stream and the result
// is independent of the worker count.
func ParallelMap[T any](ctx context.Context, n int, opts RunnerOptions, job func(ctx context.Context, i int) (T, error)) ([]T, error) {
	return runner.Run(ctx, n, opts, job)
}

// DeriveSeed derives a well-mixed deterministic seed for the job at the given
// grid coordinates from a base experiment seed.
func DeriveSeed(base int64, coords ...int64) int64 { return runner.SeedFor(base, coords...) }

// SeededRNG returns a fresh generator seeded with DeriveSeed(base, coords...).
func SeededRNG(base int64, coords ...int64) *rand.Rand { return runner.RNG(base, coords...) }

// Scenario-grid sweep (see internal/experiments): the cross product of
// utilisations × battery models × scheduling schemes, the entry point new
// workloads plug into.
type (
	// ScenarioGridConfig parameterises the scenario-grid sweep.
	ScenarioGridConfig = experiments.ScenarioGridConfig
	// StatsAccumulator folds observations online (Welford) — the building
	// block streamed sweeps fold into, one observation at a time.
	StatsAccumulator = stats.Accumulator
	// StatsState is the serialisable snapshot of a StatsAccumulator
	// (n/mean/M2/min/max); JSON round-trips are bit-exact, which is what lets
	// experiment shard partials move between processes and merge losslessly.
	StatsState = stats.State
)

// DefaultScenarioGridConfig returns a moderate three-utilisation sweep over
// two battery models and all five paper schemes.
func DefaultScenarioGridConfig() ScenarioGridConfig {
	return experiments.DefaultScenarioGridConfig()
}

// RunScenarioGrid sweeps the (utilisation × battery × scheme) grid on the
// parallel runner. Its report has one row per cell, keyed
// "utilisation|battery|scheme", whose charge_mah and life_min cells hold the
// cell's sets and whose deadline_misses count sums their misses;
// FormatExperimentReport renders it as the scenario-grid table.
func RunScenarioGrid(ctx context.Context, cfg ScenarioGridConfig) (*ExperimentReport, error) {
	return experiments.RunScenarioGrid(ctx, cfg)
}
