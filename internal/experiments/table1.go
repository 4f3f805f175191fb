// Package experiments regenerates the tables and figures of the paper's
// evaluation section: Table 1 (ordering heuristics versus the optimal order
// on single task graphs), Figure 6 (ordering schemes versus a near-optimal
// baseline as the number of task graphs grows), Table 2 (charge delivered and
// battery lifetime of the five scheduling schemes), the load versus
// delivered-capacity battery characterisation curve, and a scenario-grid
// sweep (utilisation × battery model × scheme) beyond the paper. Every
// experiment is seeded and deterministic, has a "quick" variant used by the
// benchmark harness, and renders to plain-text tables via the Format*
// helpers.
//
// All experiments run on the internal/runner job-grid harness: the
// (set × scheme × sweep-point) grid is enumerated as independent jobs, each
// job owns a random stream derived from the experiment seed and its grid
// coordinates, and per-job results stream back in job order
// (runner.RunStream) and fold set by set into stats.Accumulators — so
// results are byte-identical at any RunOptions.Parallel value and no driver
// holds its full result grid in memory. With RunOptions.TargetCI set, the
// stochastic sweeps adaptively run additional batches of task-graph sets
// until the Student-t CI95 half-width of their key metric is tight enough
// (relative to the mean), bounded by RunOptions.MaxSets.
//
// The per-set drivers (Table 2, Figure 6, the ablation and the grid) run
// every task-graph set through one evaluator, the only place that configures
// a scheduling run: it generates the set, records one execution realisation
// and replays it for every scheme, a value naming DVS, priority, ready
// policy, frequency mode, oracle, estimator and precedence stripping. The
// evaluator's sink follows from its battery models: a profile recorder
// whose profile every model drains in one batch pass, or, without models,
// a sink that records nothing.
//
// The package's public surface is the experiment registry: every driver
// registers a Definition under its name and is dispatched through Run with a
// declarative Spec, returning a structured Report — named rows of metric
// cells backed by serialisable accumulator state — from which FormatReport
// renders the historical plain-text tables byte-identically and which
// marshals to the versioned JSON artifact of cmd/experiments -o. Because set
// seeds key on absolute set indices, RunOptions.Shard partitions a run
// exactly across processes; MergeReports recombines the partial Reports by
// replaying their per-set samples, bit-for-bit the unsharded report, so a
// spec names one artifact at any shard split. Definition.Check decides
// what may shard: neither the deterministic curve nor a run with adaptive set
// counts does.
//
// Every per-set driver runs its sets through one loop (runSets): it supplies
// its points, a job over one chunk of sets and a fold of each set's result
// into its cells. Table 2 is the scenario grid's sweep at one utilisation
// point and one battery. Each registered experiment also owns its table: the
// lines above the rows, the format of a row and the key, label, cell or count
// each column reads, and the footer. FormatReport and Footer render any
// Report from that definition alone.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"

	"battsched/internal/optimal"
	"battsched/internal/priority"
	"battsched/internal/runner"
	"battsched/internal/taskgraph"
	"battsched/internal/tgff"
)

// Table1Config parameterises the Table 1 experiment: single DAGs with a
// common deadline, executed with the greedy speed-rescaling model; each
// ordering heuristic's energy is normalised by the optimum.
type Table1Config struct {
	// TaskCounts are the node counts to sweep (the paper uses 5..15).
	TaskCounts []int
	// GraphsPerCount is the number of random DAGs averaged per node count.
	GraphsPerCount int
	// Utilization is the worst-case load of the DAG against its deadline
	// (work / (fmax*deadline)); the paper keeps system utilisation at 0.7.
	Utilization float64
	// ActualMin and ActualMax bound the uniform actual/WCET ratio (paper:
	// 0.2 and 1.0).
	ActualMin float64
	ActualMax float64
	// FMax is the maximum processor frequency in Hz.
	FMax float64
	// EdgeProbability is the probability of a precedence edge between
	// adjacent layers of the generated DAGs.
	EdgeProbability float64
	// Seed makes the experiment reproducible.
	Seed int64
	// RunOptions tune the parallel execution of the (count × graph) grid.
	RunOptions
}

// DefaultTable1Config returns the paper's configuration.
func DefaultTable1Config() Table1Config {
	return Table1Config{
		TaskCounts:      []int{5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
		GraphsPerCount:  20,
		Utilization:     0.7,
		ActualMin:       0.2,
		ActualMax:       1.0,
		FMax:            1e9,
		EdgeProbability: 0.4,
		Seed:            1,
	}
}

// QuickTable1Config returns a reduced configuration for fast benchmark runs.
func QuickTable1Config() Table1Config {
	c := DefaultTable1Config()
	c.TaskCounts = []int{5, 7, 9}
	c.GraphsPerCount = 5
	return c
}

// ErrBadConfig is returned for invalid experiment configurations.
var ErrBadConfig = errors.New("experiments: invalid configuration")

// table1Graph generates the DAG of one (task count, graph index) cell and its
// execution parameters. The returned generator has drawn the DAG and its
// actuals; the cell's random order draws from it next.
func table1Graph(cfg Table1Config, gen tgff.Config, n, s int) (*taskgraph.Graph, optimal.Params, *rand.Rand, error) {
	rng := runner.RNG(cfg.Seed, int64(n), int64(s))
	g, err := tgff.GenerateWithNodes(gen, fmt.Sprintf("t1-%d-%d", n, s), n, rng)
	if err != nil {
		return nil, optimal.Params{}, nil, err
	}
	// Deadline chosen so the DAG's worst-case load is cfg.Utilization.
	deadline := g.TotalWCET() / (cfg.FMax * cfg.Utilization)
	actuals := make([]float64, n)
	for i := range actuals {
		frac := cfg.ActualMin + rng.Float64()*(cfg.ActualMax-cfg.ActualMin)
		actuals[i] = frac * g.Nodes[i].WCET
	}
	return g, optimal.Params{Deadline: deadline, FMax: cfg.FMax, Actuals: actuals}, rng, nil
}

// table1Job evaluates one (task count, graph index) cell: the energy of the
// random, LTF and pUBS orders over the optimum's, in that order.
func table1Job(cfg Table1Config, gen tgff.Config, n, s int) ([]float64, error) {
	g, params, rng, err := table1Graph(cfg, gen, n, s)
	if err != nil {
		return nil, err
	}
	opt, err := optimal.OptimalOrder(g, params)
	if err != nil {
		return nil, err
	}
	randEv, err := optimal.RandomOrder(g, params, rng)
	if err != nil {
		return nil, err
	}
	ltfEv, err := optimal.GreedyOrder(g, priority.NewLTF(), params, nil, nil)
	if err != nil {
		return nil, err
	}
	pubsEv, err := optimal.GreedyOrder(g, priority.NewPUBS(), params, params.Actuals, nil)
	if err != nil {
		return nil, err
	}
	return []float64{randEv.Energy / opt.Energy, ltfEv.Energy / opt.Energy, pubsEv.Energy / opt.Energy}, nil
}

func init() {
	mustRegister(Definition{
		Name:      "table1",
		Title:     "Table 1 — ordering heuristics vs the optimal order on single DAGs",
		Paper:     "Table 1 (Section 3)",
		Shardable: true,
		Run: func(ctx context.Context, spec Spec) (*Report, error) {
			cfg := DefaultTable1Config()
			if spec.Quick {
				cfg = QuickTable1Config()
			}
			if spec.Seed != 0 {
				cfg.Seed = spec.Seed
			}
			if spec.Sets > 0 {
				cfg.GraphsPerCount = spec.Sets
			}
			if spec.Utilization > 0 {
				cfg.Utilization = spec.Utilization
			}
			cfg.RunOptions = spec.RunOptions
			return runTable1Report(ctx, cfg)
		},
		table: table{
			head: "Table 1: energy consumption normalised w.r.t. the optimal schedule\n" +
				"# of tasks |  Random  |   LTF    |   pUBS   | samples\n" +
				"-----------+----------+----------+----------+--------\n",
			row:      "%10d | %8.2f | %8.2f | %8.2f | %6d\n",
			cols:     []rowValue{keyInt, mean("random"), mean("ltf"), mean("pubs"), cellN("random")},
			foot:     "(%d DAGs per row, %.1fs)\n\n",
			footArgs: []reportValue{firstCellN("random")},
		},
	})
}

// runTable1Report regenerates Table 1. Each (task count, graph) cell is one
// job; it derives its generator from (Seed, task count, graph index), so rows
// are identical at any parallelism. With RunOptions.TargetCI set, additional
// batches of DAGs are generated per task count until the relative CI95 of
// every normalised-energy column (the key metric) converges or MaxSets DAGs
// per count were used.
func runTable1Report(ctx context.Context, cfg Table1Config) (*Report, error) {
	if len(cfg.TaskCounts) == 0 || cfg.GraphsPerCount <= 0 || cfg.FMax <= 0 || !validUtilization(cfg.Utilization) {
		return nil, fmt.Errorf("%w: %+v", ErrBadConfig, cfg)
	}
	gen := tgff.DefaultConfig()
	gen.EdgeProbability = cfg.EdgeProbability

	accs, err := runColumns(ctx, cfg.RunOptions, len(cfg.TaskCounts), cfg.GraphsPerCount, 3, func(ci, graph int) ([]float64, error) {
		return table1Job(cfg, gen, cfg.TaskCounts[ci], graph)
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Version:    ReportVersion,
		Experiment: "table1",
		Meta: map[string]string{
			"seed":             strconv.FormatInt(cfg.Seed, 10),
			"graphs_per_count": strconv.Itoa(cfg.GraphsPerCount),
			"utilization":      formatFloat(cfg.Utilization),
			"edge_probability": formatFloat(cfg.EdgeProbability),
			// Adaptive-stopping knobs: shards run with different settings
			// cover different sets and must refuse to merge.
			"target_ci": formatFloat(cfg.TargetCI),
			"max_sets":  strconv.Itoa(cfg.MaxSets),
		},
		Shard: shardInfo(cfg.Shard),
	}
	for ci, n := range cfg.TaskCounts {
		a := accs[3*ci:]
		rep.Rows = append(rep.Rows, ReportRow{
			Key:   strconv.Itoa(n),
			Cells: map[string]Cell{"random": a[0].Cell(), "ltf": a[1].Cell(), "pubs": a[2].Cell()},
		})
	}
	return rep, nil
}
