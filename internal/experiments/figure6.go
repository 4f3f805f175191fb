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
		table: table{
			head: "Figure 6: energy of ordering schemes normalised w.r.t. near-optimal\n" +
				"# graphs |  Random  |   LTF    | pUBS(imminent) | pUBS(all released) | samples\n" +
				"---------+----------+----------+----------------+--------------------+--------\n",
			row:      "%8d | %8.3f | %8.3f | %14.3f | %18.3f | %6d\n",
			cols:     []rowValue{keyInt, mean("random"), mean("ltf"), mean("pubs_imminent"), mean("pubs_all"), cellN("random")},
			foot:     "(%d sets per point, %s frequency setting, utilisation %.2f, %.1fs)\n\n",
			footArgs: []reportValue{firstCellN("random"), metaText("alg"), metaNumber("utilization")},
		},
	})
}

// runFigure6Report regenerates Figure 6. Each (graph count, set) cell is one
// job, which simulates the baseline and the four ordering schemes on its own
// workload. With RunOptions.TargetCI set, additional batches of sets run per
// point until the relative CI95 of every scheme's normalised energy (the key
// metric) converges or MaxSets is reached.
func runFigure6Report(ctx context.Context, cfg Figure6Config) (*Report, error) {
	if len(cfg.GraphCounts) == 0 || cfg.SetsPerCount <= 0 || !validUtilization(cfg.Utilization) {
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
	cols := len(schemes) - 1

	accs, err := runColumns(ctx, cfg.RunOptions, len(cfg.GraphCounts), cfg.SetsPerCount, cols, func(ci, set int) ([]float64, error) {
		// The set index is absolute, so a sample's random stream does not
		// depend on the batch layout or the shard.
		count := cfg.GraphCounts[ci]
		ev := getEvaluator(proc, cfg.Hyperperiods, 0)
		defer ev.release()
		if err := ev.generate(runner.SeedFor(cfg.Seed, int64(count), int64(set)), count, cfg.Utilization); err != nil {
			return nil, err
		}
		return ev.normalisedEnergies("figure 6 scheme", schemes)
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
		a := accs[cols*ci:]
		rep.Rows = append(rep.Rows, ReportRow{
			Key: strconv.Itoa(count),
			Cells: map[string]Cell{
				"random":        a[0].Cell(),
				"ltf":           a[1].Cell(),
				"pubs_imminent": a[2].Cell(),
				"pubs_all":      a[3].Cell(),
			},
		})
	}
	return rep, nil
}
