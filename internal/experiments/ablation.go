package experiments

import (
	"context"
	"fmt"
	"strconv"

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
		// A row's energy_vs_random is the variant's mean battery energy over
		// random ordering's on the same workload (< 1: pUBS with this
		// estimator beats random ordering).
		table: table{
			head: "Estimate-quality ablation: BAS-2 energy normalised by random ordering\n" +
				"Estimator                         | Energy vs random | samples\n" +
				"----------------------------------+------------------+--------\n",
			row:      "%-33s | %16.3f | %6d\n",
			cols:     []rowValue{key, mean("energy_vs_random"), cellN("energy_vs_random")},
			foot:     "(%d sets, %.1fs)\n",
			footArgs: []reportValue{firstCellN("energy_vs_random")},
		},
	})
}

// runEstimateAblationReport runs the estimate-quality ablation: BAS-2 (ccEDF
// + pUBS over all released graphs, the configuration in which ordering
// effects are fully visible) with a perfect oracle, a history estimator and a
// pessimistic fixed estimator, each normalised by random ordering on the same
// workload. Each task-graph set runs as one job. With RunOptions.TargetCI
// set, additional batches of sets run until the relative CI95 of every
// variant's normalised energy (the key metric) converges or MaxSets is
// reached.
func runEstimateAblationReport(ctx context.Context, cfg EstimateAblationConfig) (*Report, error) {
	if cfg.Sets <= 0 || cfg.GraphsPerSet <= 0 || !validUtilization(cfg.Utilization) {
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

	accs, err := runColumns(ctx, cfg.RunOptions, 1, cfg.Sets, len(schemes)-1, func(_, set int) ([]float64, error) {
		// The set index is absolute, so seeds are batch- and
		// shard-independent.
		ev := getEvaluator(proc, cfg.Hyperperiods, 0)
		defer ev.release()
		if err := ev.generate(runner.SeedFor(cfg.Seed, int64(set)), cfg.GraphsPerSet, cfg.Utilization); err != nil {
			return nil, err
		}
		return ev.normalisedEnergies("ablation variant", schemes)
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
