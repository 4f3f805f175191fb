package experiments

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"battsched/internal/runner"
	"battsched/internal/stats"
)

// ScenarioGridConfig parameterises the scenario-grid sweep: the cross product
// of utilisations × battery models × scheduling schemes, each cell averaged
// over Sets random task-graph sets. Table 2 is its sweep at one utilisation
// (0.7) and one battery (stochastic) over all five schemes; the grid is the
// entry point new workloads plug into.
type ScenarioGridConfig struct {
	// Utilizations are the worst-case utilisation points to sweep.
	Utilizations []float64
	// Batteries are the battery model names to sweep (NamedBatteryFactory
	// names); empty selects the paper's stochastic model only.
	Batteries []string
	// Schemes are the scheme names to sweep (a subset of the paper's Table 2
	// scheme names); empty selects all five.
	Schemes []string
	// Sets is the number of random task-graph sets averaged per cell.
	Sets int
	// GraphsPerSet is the number of task graphs per set.
	GraphsPerSet int
	// Hyperperiods simulated per set.
	Hyperperiods int
	// MaxBatteryHours caps each battery lifetime simulation.
	MaxBatteryHours float64
	// OracleEstimates feeds pUBS the true actual requirements.
	OracleEstimates bool
	// Seed makes the sweep reproducible.
	Seed int64
	// RunOptions tune the parallel execution of the scenario grid.
	RunOptions
}

// DefaultScenarioGridConfig returns a moderate three-utilisation sweep over
// two battery models and all five schemes.
func DefaultScenarioGridConfig() ScenarioGridConfig {
	return ScenarioGridConfig{
		Utilizations:    []float64{0.5, 0.7, 0.9},
		Batteries:       []string{"stochastic", "kibam"},
		Sets:            10,
		GraphsPerSet:    5,
		Hyperperiods:    2,
		MaxBatteryHours: 72,
		Seed:            1,
	}
}

// QuickScenarioGridConfig returns a reduced sweep for tests and benchmarks.
func QuickScenarioGridConfig() ScenarioGridConfig {
	return ScenarioGridConfig{
		Utilizations:    []float64{0.7},
		Batteries:       []string{"kibam"},
		Schemes:         []string{"EDF", "BAS-2"},
		Sets:            3,
		GraphsPerSet:    3,
		Hyperperiods:    2,
		MaxBatteryHours: 72,
		Seed:            1,
	}
}

// schemesByName resolves scheme names against the paper's Table 2 schemes;
// empty names selects all of them. oracle feeds pUBS the true actual
// requirements.
func schemesByName(names []string, oracle bool) ([]paperScheme, error) {
	all := paperSchemes(oracle)
	if len(names) == 0 {
		return all, nil
	}
	out := make([]paperScheme, 0, len(names))
	for _, name := range names {
		found := false
		for _, s := range all {
			if s.name == name {
				out = append(out, s)
				found = true
				break
			}
		}
		if !found {
			known := make([]string, len(all))
			for i, s := range all {
				known[i] = s.name
			}
			return nil, fmt.Errorf("%w: unknown scheme %q (known: %s)", ErrBadConfig, name, strings.Join(known, ", "))
		}
	}
	return out, nil
}

func init() {
	mustRegister(Definition{
		Name:      "grid",
		Title:     "Scenario grid — utilisation × battery model × scheme sweep (beyond the paper)",
		Paper:     "not in the paper (generalises Table 2 into the sweep new workloads plug into)",
		Shardable: true,
		Run: func(ctx context.Context, spec Spec) (*Report, error) {
			cfg := DefaultScenarioGridConfig()
			if spec.Quick {
				cfg = QuickScenarioGridConfig()
			}
			if spec.Seed != 0 {
				cfg.Seed = spec.Seed
			}
			if spec.Sets > 0 {
				cfg.Sets = spec.Sets
			}
			if spec.Battery != "" {
				cfg.Batteries = []string{spec.Battery}
			}
			cfg.OracleEstimates = spec.Oracle
			cfg.RunOptions = spec.RunOptions
			return RunScenarioGrid(ctx, cfg)
		},
		table: table{
			head: "Scenario grid: utilisation x battery model x scheme\n" +
				"Util | Battery    | Scheme            | Charge (mAh) ±CI95 | Life (min) ±CI95 | sets | misses\n" +
				"-----+------------+-------------------+--------------------+------------------+------+-------\n",
			row: "%4.2f | %-10s | %-17s | %12.0f ±%4.0f | %10.1f ±%4.1f | %4d | %6d\n",
			cols: []rowValue{labelNumber("utilization"), label("battery"), label("scheme"),
				mean("charge_mah"), ci95("charge_mah"), mean("life_min"), ci95("life_min"),
				cellN("charge_mah"), count("deadline_misses")},
			foot:     "(%d sets per cell, %.1fs)\n",
			footArgs: []reportValue{firstCellN("charge_mah")},
		},
	})
}

// gridLayout is the scenario grid's sweep. A set's seed keys on its
// utilisation point and absolute index, so every (battery, scheme) cell of a
// point replays the same task-graph sets and actual execution requirements,
// and cells compare directly across schemes and battery models. Deadline
// misses are counted, not fatal, so exploratory sweeps can chart the edge of
// feasibility.
var gridLayout = sweepLayout{
	experiment: "grid",
	seed:       func(base int64, point, set int) int64 { return runner.SeedFor(base, int64(point), int64(set)) },
	metrics:    sweepMetrics[:2],
	miss:       func(string, int) error { return nil },
	row: func(u, bat string, s paperScheme, cells map[string]Cell, misses int) ReportRow {
		return ReportRow{
			Key:    u + "|" + bat + "|" + s.name,
			Labels: map[string]string{"utilization": u, "battery": bat, "scheme": s.name},
			Cells:  cells,
			Counts: map[string]int{"deadline_misses": misses},
		}
	},
	meta: func(cfg *ScenarioGridConfig, meta map[string]string) {
		meta["utilizations"] = joinFloats(cfg.Utilizations)
		meta["batteries"] = strings.Join(cfg.Batteries, ",")
	},
}

// RunScenarioGrid sweeps the (utilisation × battery × scheme) grid and
// returns its Report: one row per cell, in utilisation, battery and scheme
// order, with the cell's charge and life over its sets and its deadline
// misses.
func RunScenarioGrid(ctx context.Context, cfg ScenarioGridConfig) (*Report, error) {
	return runSweep(ctx, cfg, gridLayout)
}

// sweepLayout is what a sweep's experiment decides for itself; Table 2 and
// the grid pass theirs as values.
type sweepLayout struct {
	experiment string
	// seed derives a set's seed from the base seed, its utilisation point
	// and its absolute index.
	seed func(base int64, point, set int) int64
	// metrics names the cells of each row, a prefix of sweepMetrics.
	metrics []string
	// miss decides whether a scheme's deadline misses on a set fail the run
	// (a non-nil error); either way each cell sums them for row.
	miss func(scheme string, misses int) error
	// row lays out the row of one (utilisation, battery, scheme) cell; u is
	// the utilisation as Meta writes it.
	row func(u, battery string, s paperScheme, cells map[string]Cell, misses int) ReportRow
	// meta adds the experiment's own entries to the Meta every sweep records.
	meta func(cfg *ScenarioGridConfig, meta map[string]string)
}

// sweepMetrics names a sweepCell's values in order: the charge the battery
// delivered (mAh), its life (min), and the scheme's battery energy per
// hyperperiod (J) and average load current (A), the last two shared by
// every battery of the scheme. The second is the key metric.
var sweepMetrics = [...]string{"charge_mah", "life_min", "energy_j", "avg_current_a"}

// sweepCell is the result of one (scheme, battery) pair on one task-graph
// set: its sweepMetrics values and the scheme's deadline misses.
type sweepCell struct {
	values [len(sweepMetrics)]float64
	misses int
}

// setsPerJob is the number of task-graph sets one job of a sweep simulates on
// one evaluator: the next setsPerJob sets of a batch at one utilisation
// point. Every set folds into cells keyed on its absolute index, so the chunk
// size changes no number.
const setsPerJob = 4

// runSweep runs every scheme of cfg on every set of each utilisation point
// and drains every battery on each scheme's load profile. A job is one chunk
// of a point's sets on one evaluator: it generates each set once, runs all
// schemes on one reused engine (replaying the recorded execution
// realisation, which is scheme-independent), and evaluates every battery
// model against each profile in one batch pass, so batteries share the
// scheduling work. With RunOptions.TargetCI set, additional batches of sets
// run until the relative CI95 of every cell's battery life converges or
// MaxSets is reached.
func runSweep(ctx context.Context, cfg ScenarioGridConfig, l sweepLayout) (*Report, error) {
	if len(cfg.Utilizations) == 0 || cfg.Sets <= 0 || cfg.GraphsPerSet <= 0 {
		return nil, fmt.Errorf("%w: %+v", ErrBadConfig, cfg)
	}
	for _, u := range cfg.Utilizations {
		if !validUtilization(u) {
			return nil, fmt.Errorf("%w: utilisation %v", ErrBadConfig, u)
		}
	}
	if cfg.Hyperperiods <= 0 {
		cfg.Hyperperiods = 1
	}
	if cfg.MaxBatteryHours <= 0 {
		cfg.MaxBatteryHours = 72
	}
	if len(cfg.Batteries) == 0 {
		cfg.Batteries = []string{"stochastic"}
	}
	schemes, err := schemesByName(cfg.Schemes, cfg.OracleEstimates)
	if err != nil {
		return nil, err
	}
	factories, err := resolveBatteryFactories(cfg.Batteries)
	if err != nil {
		return nil, err
	}
	proc := defaultProcessor()

	// A set's cells are indexed [scheme*len(factories)+battery].
	width := len(schemes) * len(factories)
	job := func(ui, setLo, setHi int) ([][]sweepCell, error) {
		ev := getEvaluator(proc, cfg.Hyperperiods, cfg.MaxBatteryHours, factories...)
		defer ev.release()
		out := make([][]sweepCell, setHi-setLo)
		cells := make([]sweepCell, 0, (setHi-setLo)*width)
		for set := setLo; set < setHi; set++ {
			if err := ev.generate(l.seed(cfg.Seed, ui, set), cfg.GraphsPerSet, cfg.Utilizations[ui]); err != nil {
				return nil, err
			}
			for _, s := range schemes {
				res, brs, err := ev.run(s.scheme)
				if err != nil {
					return nil, err
				}
				if err := l.miss(s.name, res.DeadlineMisses); err != nil {
					return nil, err
				}
				energy, current := res.EnergyBattery/float64(cfg.Hyperperiods), res.Profile.AverageCurrent()
				for _, br := range brs {
					cells = append(cells, sweepCell{
						values: [...]float64{br.DeliveredMAh(), br.LifetimeMinutes(), energy, current},
						misses: res.DeadlineMisses,
					})
				}
			}
			out[set-setLo] = cells[len(cells)-width:]
		}
		return out, nil
	}

	// Cell k = ui*width + scheme*len(factories) + battery keeps its metrics
	// at accs[k*nm:] and its misses at misses[k].
	nm := len(l.metrics)
	accs := make([]metricAcc, len(cfg.Utilizations)*width*nm)
	misses := make([]int, len(cfg.Utilizations)*width)
	keys := make([]*stats.Accumulator, len(misses))
	for k := range keys {
		keys[k] = &accs[k*nm+1].acc // life_min
	}
	err = runSets(ctx, cfg.RunOptions, len(cfg.Utilizations), cfg.Sets, setsPerJob, job, func(ui, set int, cells []sweepCell) {
		for ci, c := range cells {
			k := ui*width + ci
			for mi := range nm {
				accs[k*nm+mi].Add(set, c.values[mi])
			}
			misses[k] += c.misses
		}
	}, keys)
	if err != nil {
		return nil, err
	}

	meta := map[string]string{
		"seed":           strconv.FormatInt(cfg.Seed, 10),
		"sets":           strconv.Itoa(cfg.Sets),
		"sets_per_job":   strconv.Itoa(setsPerJob),
		"graphs_per_set": strconv.Itoa(cfg.GraphsPerSet),
		"hyperperiods":   strconv.Itoa(cfg.Hyperperiods),
		"oracle":         strconv.FormatBool(cfg.OracleEstimates),
		// The adaptive-stopping knobs decide how many sets the run covers.
		"target_ci": formatFloat(cfg.TargetCI),
		"max_sets":  strconv.Itoa(cfg.MaxSets),
	}
	l.meta(&cfg, meta)
	rep := &Report{Version: ReportVersion, Experiment: l.experiment, Meta: meta, Shard: shardInfo(cfg.Shard)}
	for ui, util := range cfg.Utilizations {
		u := formatFloat(util)
		for bi, bat := range cfg.Batteries {
			for si, s := range schemes {
				k := ui*width + si*len(factories) + bi
				cells := make(map[string]Cell, nm)
				for mi, name := range l.metrics {
					cells[name] = accs[k*nm+mi].Cell()
				}
				rep.Rows = append(rep.Rows, l.row(u, bat, s, cells, misses[k]))
			}
		}
	}
	return rep, nil
}

// joinFloats renders a float list for Meta with exact round-trip formatting.
func joinFloats(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = formatFloat(v)
	}
	return strings.Join(parts, ",")
}
