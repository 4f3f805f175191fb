package experiments

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"battsched/internal/core"
	"battsched/internal/dvs"
	"battsched/internal/priority"
	"battsched/internal/runner"
)

// EstimateAblationConfig parameterises the estimate-quality ablation: the
// paper notes that pUBS is near optimal when the X_k estimates are accurate
// and degrades toward a random schedule when they are not. This experiment
// quantifies that by running the BAS-2 scheme with different estimators and
// comparing the energy against the random-ordering baseline.
type EstimateAblationConfig struct {
	// Sets is the number of random task-graph sets averaged.
	Sets int
	// GraphsPerSet is the number of task graphs per set.
	GraphsPerSet int
	// Utilization is the worst-case utilisation of each set.
	Utilization float64
	// Hyperperiods simulated per set (more hyperperiods give the history
	// estimator more instances to learn from).
	Hyperperiods int
	// Seed makes the experiment reproducible.
	Seed int64
	// RunOptions tune the parallel execution of the per-set jobs.
	RunOptions
}

// DefaultEstimateAblationConfig returns the default ablation configuration.
func DefaultEstimateAblationConfig() EstimateAblationConfig {
	return EstimateAblationConfig{Sets: 20, GraphsPerSet: 4, Utilization: 0.7, Hyperperiods: 4, Seed: 1}
}

// QuickEstimateAblationConfig returns a reduced configuration for benchmarks.
func QuickEstimateAblationConfig() EstimateAblationConfig {
	return EstimateAblationConfig{Sets: 4, GraphsPerSet: 3, Utilization: 0.7, Hyperperiods: 2, Seed: 1}
}

// EstimateAblationRow reports one estimator variant.
type EstimateAblationRow struct {
	// Estimator is the variant label.
	Estimator string
	// EnergyVsRandom is the mean battery energy normalised by the
	// random-ordering baseline on the same workload (< 1 means the pUBS
	// ordering with this estimator beats random ordering).
	EnergyVsRandom float64
	// Samples is the number of task-graph sets averaged.
	Samples int
}

func init() {
	mustRegister(Definition{
		Name:      "ablation",
		Title:     "Estimate-quality ablation — pUBS benefit vs X_k estimator accuracy (beyond the paper)",
		Paper:     "not in the paper (quantifies the Section 4 estimate-accuracy discussion)",
		Shardable: true,
		Run: func(ctx context.Context, spec Spec) (*Report, error) {
			cfg := DefaultEstimateAblationConfig()
			if spec.Quick {
				cfg = QuickEstimateAblationConfig()
			}
			if spec.Seed != 0 {
				cfg.Seed = spec.Seed
			}
			if spec.Sets > 0 {
				cfg.Sets = spec.Sets
			}
			if spec.Utilization > 0 {
				cfg.Utilization = spec.Utilization
			}
			cfg.RunOptions = spec.RunOptions
			return runEstimateAblationReport(ctx, cfg)
		},
	})
}

// runEstimateAblationReport runs the estimate-quality ablation: BAS-2 (ccEDF
// + pUBS over all released graphs, the configuration in which ordering
// effects are fully visible) with a perfect oracle, a history estimator and a
// pessimistic fixed estimator, each normalised by random ordering on the same
// workload. Each task-graph set runs as one job of the runner harness;
// samples stream back in set order and fold into per-variant accumulators.
// With RunOptions.TargetCI set, additional batches of sets run until the
// relative CI95 of every variant's normalised energy (the key metric)
// converges or MaxSets is reached.
func runEstimateAblationReport(ctx context.Context, cfg EstimateAblationConfig) (*Report, error) {
	if cfg.Sets <= 0 || cfg.GraphsPerSet <= 0 || cfg.Utilization <= 0 || cfg.Utilization > 1 {
		return nil, fmt.Errorf("%w: %+v", ErrBadConfig, cfg)
	}
	if cfg.Hyperperiods <= 0 {
		cfg.Hyperperiods = 1
	}
	proc := defaultProcessor()

	// The random-ordering baseline, then BAS-2 with each estimator.
	ccEDF := func() dvs.Algorithm { return dvs.NewCCEDF() }
	pubs := func() priority.Function { return priority.NewPUBS() }
	schemes := []scheme{
		{name: "random", prio: func() priority.Function { return priority.NewRandom() }},
		{name: "oracle (exact actuals)", prio: pubs, oracle: true},
		{name: "history (EWMA of past instances)", prio: pubs, estimator: func() priority.Estimator { return priority.NewHistoryEstimator(0.5) }},
		{name: "pessimistic (X_k = WCET)", prio: pubs, estimator: func() priority.Estimator { return priority.OracleEstimator{Fraction: 1} }},
	}
	for i := range schemes {
		schemes[i].alg, schemes[i].policy, schemes[i].mode = ccEDF, core.AllReleased, core.ContinuousFrequency
	}

	accs := make([]metricAcc, len(schemes)-1)
	_, err := runAdaptiveSets(cfg.RunOptions, cfg.Sets, func(lo, hi int) error {
		return runner.RunStream(ctx, hi-lo, cfg.runnerOptions(), func(_ context.Context, i int) ([]float64, error) {
			// The set index is absolute, so seeds are batch- and
			// shard-independent.
			ev := getEvaluator(proc, cfg.Hyperperiods, 0)
			defer ev.release()
			if err := ev.generate(runner.SeedFor(cfg.Seed, int64(lo+i)), cfg.GraphsPerSet, cfg.Utilization); err != nil {
				return nil, err
			}
			return ev.normalisedEnergies("ablation variant", schemes)
		}, func(i int, normalised []float64) error {
			for vi, v := range normalised {
				accs[vi].Add(lo+i, v)
			}
			return nil
		})
	}, func() bool {
		for i := range accs {
			if !converged(cfg.TargetCI, &accs[i].acc) {
				return false
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Version:    ReportVersion,
		Experiment: "ablation",
		Meta: map[string]string{
			"seed":           strconv.FormatInt(cfg.Seed, 10),
			"sets":           strconv.Itoa(cfg.Sets),
			"graphs_per_set": strconv.Itoa(cfg.GraphsPerSet),
			"utilization":    formatFloat(cfg.Utilization),
			"hyperperiods":   strconv.Itoa(cfg.Hyperperiods),
			// Adaptive-stopping knobs: shards run with different settings
			// cover different sets and must refuse to merge.
			"target_ci": formatFloat(cfg.TargetCI),
			"max_sets":  strconv.Itoa(cfg.MaxSets),
		},
		Shard: shardInfo(cfg.Shard),
	}
	for i, s := range schemes[1:] {
		rep.Rows = append(rep.Rows, ReportRow{
			Key:   s.name,
			Cells: map[string]Cell{"energy_vs_random": accs[i].Cell()},
		})
	}
	return rep, nil
}

// estimateAblationRowsFromReport reconstructs the typed rows from a Report.
func estimateAblationRowsFromReport(r *Report) []EstimateAblationRow {
	rows := make([]EstimateAblationRow, 0, len(r.Rows))
	for _, row := range r.Rows {
		cell := row.Cells["energy_vs_random"]
		rows = append(rows, EstimateAblationRow{Estimator: row.Key, EnergyVsRandom: cell.Mean, Samples: cell.N})
	}
	return rows
}

// FormatEstimateAblation renders the ablation rows as a plain-text table.
func FormatEstimateAblation(rows []EstimateAblationRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Estimate-quality ablation: BAS-2 energy normalised by random ordering")
	fmt.Fprintln(&b, "Estimator                         | Energy vs random | samples")
	fmt.Fprintln(&b, "----------------------------------+------------------+--------")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-33s | %16.3f | %6d\n", r.Estimator, r.EnergyVsRandom, r.Samples)
	}
	return b.String()
}
