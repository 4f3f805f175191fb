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
// over Sets random task-graph sets. It generalises Table 2 (which is the
// single cell utilisation 0.7 × stochastic × all schemes) into the entry
// point new workloads plug into.
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

// ScenarioGridRow is one cell of the scenario grid.
type ScenarioGridRow struct {
	// Utilization, Battery and Scheme identify the cell.
	Utilization float64
	Battery     string
	Scheme      string
	// Charge and Life summarise delivered charge (mAh) and battery lifetime
	// (minutes) over the cell's task-graph sets.
	Charge stats.Summary
	Life   stats.Summary
	// DeadlineMisses is the total deadline misses across the cell's
	// simulations (always 0 for the paper's schemes at feasible utilisations;
	// reported instead of failing so exploratory sweeps can chart the edge).
	DeadlineMisses int
}

// gridCell is the result of one (scheme, battery) pair on one task-graph
// set. The scheduling run is shared by every battery of a scheme, so each
// battery's cell carries that run's deadline misses.
type gridCell struct {
	charge, life float64
	misses       int
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
			return runScenarioGridReport(ctx, cfg)
		},
	})
}

// runScenarioGridReport sweeps the (utilisation × battery × scheme) grid.
// Jobs are (utilisation × set-chunk) pairs covering every scheme: a job
// generates each task set of its chunk once, runs all schemes on one reused
// engine (replaying the recorded execution realisation, which is
// scheme-independent), and evaluates every battery model against each
// scheme's load profile (the profile does not depend on the battery, so
// batteries share the scheduling work). Per-set rows stream back in job
// order and fold into per-cell accumulators keyed on absolute set indices,
// like Table 2's, so the sweep is byte-identical at any parallelism and any
// shard split and never materialises the full grid. With RunOptions.TargetCI
// set, additional batches of sets run until the relative CI95 of every
// cell's battery lifetime (the key metric) converges or MaxSets is reached.
//
// Within one utilisation point, every (battery, scheme) cell replays the same
// task-graph sets and actual execution requirements — the set seed depends
// only on (Seed, utilisation index, set) — so cells are directly comparable
// across schemes and battery models.
func runScenarioGridReport(ctx context.Context, cfg ScenarioGridConfig) (*Report, error) {
	if len(cfg.Utilizations) == 0 || cfg.Sets <= 0 || cfg.GraphsPerSet <= 0 {
		return nil, fmt.Errorf("%w: %+v", ErrBadConfig, cfg)
	}
	for _, u := range cfg.Utilizations {
		if u <= 0 || u > 1 {
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

	// chunkJob simulates sets [setLo, setHi) of one utilisation point across
	// every scheme on one evaluator and returns one row of cells per set,
	// indexed [scheme*len(factories)+battery]. The evaluator generates each
	// task set once and evaluates every battery model against each scheme's
	// load profile (the profile does not depend on the battery), so the cells
	// are bit-identical to scheduling each (scheme, set) from scratch with
	// the shared workload seed.
	chunkJob := func(ui, setLo, setHi int) ([][]gridCell, error) {
		out := make([][]gridCell, 0, setHi-setLo)
		ev := newEvaluator(proc, cfg.Hyperperiods, cfg.MaxBatteryHours, factories...)
		for set := setLo; set < setHi; set++ {
			// The workload seed is shared by every (battery, scheme) cell of
			// this utilisation point so cells stay comparable.
			if err := ev.generate(runner.SeedFor(cfg.Seed, int64(ui), int64(set)), cfg.GraphsPerSet, cfg.Utilizations[ui]); err != nil {
				return nil, err
			}
			cells := make([]gridCell, 0, len(schemes)*len(factories))
			for _, s := range schemes {
				res, brs, err := ev.run(s.scheme)
				if err != nil {
					return nil, err
				}
				for _, br := range brs {
					cells = append(cells, gridCell{charge: br.DeliveredMAh(), life: br.LifetimeMinutes(), misses: res.DeadlineMisses})
				}
			}
			out = append(out, cells)
		}
		return out, nil
	}

	// gridAgg accumulates one (utilisation, scheme, battery) cell.
	type gridAgg struct {
		charge, life metricAcc
		misses       int
	}
	aggs := make([][]gridAgg, len(cfg.Utilizations)) // [ui][si*len(factories)+bi]
	for ui := range aggs {
		aggs[ui] = make([]gridAgg, len(schemes)*len(factories))
	}

	_, err = runAdaptiveSets(cfg.RunOptions, cfg.Sets, func(lo, hi int) error {
		grid := runner.NewGrid(len(cfg.Utilizations), (hi-lo+setsPerJob-1)/setsPerJob)
		return runner.RunStream(ctx, grid.Size(), cfg.runnerOptions(), func(_ context.Context, idx int) ([][]gridCell, error) {
			c := grid.Coords(idx)
			setLo := lo + c[1]*setsPerJob
			return chunkJob(c[0], setLo, min(setLo+setsPerJob, hi))
		}, func(idx int, rows [][]gridCell) error {
			c := grid.Coords(idx)
			for off, cells := range rows {
				set := lo + c[1]*setsPerJob + off
				for ci, cell := range cells {
					a := &aggs[c[0]][ci]
					a.charge.Add(set, cell.charge)
					a.life.Add(set, cell.life)
					a.misses += cell.misses
				}
			}
			return nil
		})
	}, func() bool {
		for ui := range aggs {
			for ci := range aggs[ui] {
				if !converged(cfg.TargetCI, &aggs[ui][ci].life.acc) {
					return false
				}
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Version:    ReportVersion,
		Experiment: "grid",
		Meta: map[string]string{
			"seed":           strconv.FormatInt(cfg.Seed, 10),
			"sets":           strconv.Itoa(cfg.Sets),
			"sets_per_job":   strconv.Itoa(setsPerJob),
			"graphs_per_set": strconv.Itoa(cfg.GraphsPerSet),
			"hyperperiods":   strconv.Itoa(cfg.Hyperperiods),
			"utilizations":   joinFloats(cfg.Utilizations),
			"batteries":      strings.Join(cfg.Batteries, ","),
			"oracle":         strconv.FormatBool(cfg.OracleEstimates),
			// The adaptive-stopping knobs decide how many sets the run
			// covers.
			"target_ci": formatFloat(cfg.TargetCI),
			"max_sets":  strconv.Itoa(cfg.MaxSets),
		},
		Shard: shardInfo(cfg.Shard),
	}
	for ui, util := range cfg.Utilizations {
		for bi, bat := range cfg.Batteries {
			for si, s := range schemes {
				a := &aggs[ui][si*len(factories)+bi]
				u := formatFloat(util)
				rep.Rows = append(rep.Rows, ReportRow{
					Key:    u + "|" + bat + "|" + s.name,
					Labels: map[string]string{"utilization": u, "battery": bat, "scheme": s.name},
					Cells: map[string]Cell{
						"charge_mah": a.charge.Cell(),
						"life_min":   a.life.Cell(),
					},
					Counts: map[string]int{"deadline_misses": a.misses},
				})
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

// scenarioGridRowsFromReport reconstructs the typed rows from a Report.
func scenarioGridRowsFromReport(r *Report) []ScenarioGridRow {
	rows := make([]ScenarioGridRow, 0, len(r.Rows))
	for _, row := range r.Rows {
		util, _ := strconv.ParseFloat(row.Labels["utilization"], 64)
		charge := stats.FromState(row.Cells["charge_mah"].State)
		life := stats.FromState(row.Cells["life_min"].State)
		rows = append(rows, ScenarioGridRow{
			Utilization:    util,
			Battery:        row.Labels["battery"],
			Scheme:         row.Labels["scheme"],
			Charge:         charge.Summary(),
			Life:           life.Summary(),
			DeadlineMisses: row.Counts["deadline_misses"],
		})
	}
	return rows
}

// RunScenarioGrid sweeps the (utilisation × battery × scheme) grid and
// returns its typed rows (see runScenarioGridReport; the registry path
// returns the Report directly).
func RunScenarioGrid(ctx context.Context, cfg ScenarioGridConfig) ([]ScenarioGridRow, error) {
	rep, err := runScenarioGridReport(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return scenarioGridRowsFromReport(rep), nil
}

// FormatScenarioGrid renders the scenario-grid rows as a plain-text table.
func FormatScenarioGrid(rows []ScenarioGridRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Scenario grid: utilisation x battery model x scheme")
	fmt.Fprintln(&b, "Util | Battery    | Scheme            | Charge (mAh) ±CI95 | Life (min) ±CI95 | sets | misses")
	fmt.Fprintln(&b, "-----+------------+-------------------+--------------------+------------------+------+-------")
	for _, r := range rows {
		fmt.Fprintf(&b, "%4.2f | %-10s | %-17s | %12.0f ±%4.0f | %10.1f ±%4.1f | %4d | %6d\n",
			r.Utilization, r.Battery, r.Scheme, r.Charge.Mean, r.Charge.CI95, r.Life.Mean, r.Life.CI95, r.Charge.N, r.DeadlineMisses)
	}
	return b.String()
}
