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

// Figure6Config parameterises the Figure 6 experiment: energy consumption of
// the ordering schemes, normalised with respect to the near-optimal schedule
// obtained by removing precedence constraints, as the number of released task
// graphs grows.
type Figure6Config struct {
	// GraphCounts is the x axis: numbers of task graphs scheduled together.
	GraphCounts []int
	// SetsPerCount is the number of random task-graph sets averaged per point.
	SetsPerCount int
	// Utilization is the worst-case utilisation of each set (paper: 0.7).
	Utilization float64
	// UseCCEDF selects ccEDF instead of the paper's laEDF for frequency
	// setting (the ordering-scheme separation is larger with ccEDF because
	// its frequency responds immediately to recovered slack; see
	// EXPERIMENTS.md).
	UseCCEDF bool
	// Hyperperiods simulated per set.
	Hyperperiods int
	// Seed makes the experiment reproducible.
	Seed int64
	// RunOptions tune the parallel execution of the (count × set) grid.
	RunOptions
}

// DefaultFigure6Config returns the paper's configuration (laEDF frequency
// setting, utilisation 0.7, graphs with 5–15 nodes).
func DefaultFigure6Config() Figure6Config {
	return Figure6Config{
		GraphCounts:  []int{1, 2, 3, 4, 5, 6, 7, 8},
		SetsPerCount: 10,
		Utilization:  0.7,
		Hyperperiods: 2,
		Seed:         1,
	}
}

// QuickFigure6Config returns a reduced configuration for fast benchmark runs.
func QuickFigure6Config() Figure6Config {
	c := DefaultFigure6Config()
	c.GraphCounts = []int{1, 3, 5}
	c.SetsPerCount = 3
	return c
}

// Figure6Row is one point of Figure 6: mean energy of each ordering scheme
// normalised by the precedence-free near-optimal schedule of the same
// workload.
type Figure6Row struct {
	Graphs          int
	Random          float64
	LTF             float64
	PUBSImminent    float64
	PUBSAllReleased float64
	Samples         int
}

// figure6Schemes returns the near-optimal baseline and then the ordering
// schemes of Figure 6 in column order, all with alg setting the frequency of
// the idealised continuous-frequency processor (the figure compares energies
// only). Every scheme feeds pUBS the true actual requirements: the paper
// notes that pUBS is near optimal with accurate estimates and degrades toward
// a random order with bad ones, and its figure shows the accurate-estimate
// regime.
func figure6Schemes(alg func() dvs.Algorithm) []scheme {
	random := func() priority.Function { return priority.NewRandom() }
	ltf := func() priority.Function { return priority.NewLTF() }
	pubs := func() priority.Function { return priority.NewPUBS() }
	schemes := []scheme{
		// The baseline schedules the same workload with precedence removed,
		// by pUBS over all released graphs.
		{name: "baseline", prio: pubs, policy: core.AllReleased, stripPrecedence: true},
		{name: "random", prio: random, policy: core.MostImminentOnly},
		{name: "ltf", prio: ltf, policy: core.MostImminentOnly},
		{name: "pubs-imminent", prio: pubs, policy: core.MostImminentOnly},
		{name: "pubs-all", prio: pubs, policy: core.AllReleased},
	}
	for i := range schemes {
		schemes[i].alg, schemes[i].mode, schemes[i].oracle = alg, core.ContinuousFrequency, true
	}
	return schemes
}

func init() {
	mustRegister(Definition{
		Name:      "figure6",
		Title:     "Figure 6 — ordering schemes vs a precedence-free near-optimal baseline",
		Paper:     "Figure 6 (Section 4)",
		Shardable: true,
		Run: func(ctx context.Context, spec Spec) (*Report, error) {
			cfg := DefaultFigure6Config()
			if spec.Quick {
				cfg = QuickFigure6Config()
			}
			if spec.Seed != 0 {
				cfg.Seed = spec.Seed
			}
			if spec.Sets > 0 {
				cfg.SetsPerCount = spec.Sets
			}
			if spec.Utilization > 0 {
				cfg.Utilization = spec.Utilization
			}
			cfg.UseCCEDF = spec.CCEDF
			cfg.RunOptions = spec.RunOptions
			return runFigure6Report(ctx, cfg)
		},
	})
}

// runFigure6Report regenerates Figure 6. The (graph count × set) grid runs
// as independent jobs; each job simulates the baseline and the four ordering
// schemes on its own workload. Samples stream back in job order and fold
// into per-(count, scheme) accumulators; with RunOptions.TargetCI set,
// additional batches of sets run per point until the relative CI95 of every
// scheme's normalised energy (the key metric) converges or MaxSets is
// reached.
func runFigure6Report(ctx context.Context, cfg Figure6Config) (*Report, error) {
	if len(cfg.GraphCounts) == 0 || cfg.SetsPerCount <= 0 || cfg.Utilization <= 0 || cfg.Utilization > 1 {
		return nil, fmt.Errorf("%w: %+v", ErrBadConfig, cfg)
	}
	if cfg.Hyperperiods <= 0 {
		cfg.Hyperperiods = 1
	}
	proc := defaultProcessor()
	alg := func() dvs.Algorithm {
		if cfg.UseCCEDF {
			return dvs.NewCCEDF()
		}
		return dvs.NewLAEDF()
	}
	schemes := figure6Schemes(alg)

	accs := make([][]metricAcc, len(cfg.GraphCounts))
	for i := range accs {
		accs[i] = make([]metricAcc, len(schemes)-1)
	}
	_, err := runAdaptiveSets(cfg.RunOptions, cfg.SetsPerCount, func(lo, hi int) error {
		grid := runner.NewGrid(len(cfg.GraphCounts), hi-lo)
		return runner.RunStream(ctx, grid.Size(), cfg.runnerOptions(), func(_ context.Context, idx int) ([]float64, error) {
			c := grid.Coords(idx)
			// The set index is absolute (lo+c[1]), so a sample's random
			// stream does not depend on the batch layout or the shard.
			count, set := cfg.GraphCounts[c[0]], lo+c[1]
			ev := newEvaluator(proc, cfg.Hyperperiods, 0)
			if err := ev.generate(runner.SeedFor(cfg.Seed, int64(count), int64(set)), count, cfg.Utilization); err != nil {
				return nil, err
			}
			return ev.normalisedEnergies("figure 6 scheme", schemes)
		}, func(idx int, normalised []float64) error {
			c := grid.Coords(idx)
			for i, v := range normalised {
				accs[c[0]][i].Add(lo+c[1], v)
			}
			return nil
		})
	}, func() bool {
		for ci := range accs {
			for i := range accs[ci] {
				if !converged(cfg.TargetCI, &accs[ci][i].acc) {
					return false
				}
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}

	alg6 := "laEDF"
	if cfg.UseCCEDF {
		alg6 = "ccEDF"
	}
	rep := &Report{
		Version:    ReportVersion,
		Experiment: "figure6",
		Meta: map[string]string{
			"seed":           strconv.FormatInt(cfg.Seed, 10),
			"sets_per_count": strconv.Itoa(cfg.SetsPerCount),
			"utilization":    formatFloat(cfg.Utilization),
			"alg":            alg6,
			"oracle":         "true", // see figure6Schemes
			"hyperperiods":   strconv.Itoa(cfg.Hyperperiods),
			// Adaptive-stopping knobs: shards run with different settings
			// cover different sets and must refuse to merge.
			"target_ci": formatFloat(cfg.TargetCI),
			"max_sets":  strconv.Itoa(cfg.MaxSets),
		},
		Shard: shardInfo(cfg.Shard),
	}
	for ci, count := range cfg.GraphCounts {
		rep.Rows = append(rep.Rows, ReportRow{
			Key: strconv.Itoa(count),
			Cells: map[string]Cell{
				"random":        accs[ci][0].Cell(),
				"ltf":           accs[ci][1].Cell(),
				"pubs_imminent": accs[ci][2].Cell(),
				"pubs_all":      accs[ci][3].Cell(),
			},
		})
	}
	return rep, nil
}

// figure6RowsFromReport reconstructs the typed rows from a Report.
func figure6RowsFromReport(r *Report) []Figure6Row {
	rows := make([]Figure6Row, 0, len(r.Rows))
	for _, row := range r.Rows {
		graphs, _ := strconv.Atoi(row.Key)
		rows = append(rows, Figure6Row{
			Graphs:          graphs,
			Random:          row.Cells["random"].Mean,
			LTF:             row.Cells["ltf"].Mean,
			PUBSImminent:    row.Cells["pubs_imminent"].Mean,
			PUBSAllReleased: row.Cells["pubs_all"].Mean,
			Samples:         row.Cells["random"].N,
		})
	}
	return rows
}

// RunFigure6 regenerates Figure 6 and returns its typed rows (see
// runFigure6Report; the registry path returns the Report directly).
func RunFigure6(ctx context.Context, cfg Figure6Config) ([]Figure6Row, error) {
	rep, err := runFigure6Report(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return figure6RowsFromReport(rep), nil
}
