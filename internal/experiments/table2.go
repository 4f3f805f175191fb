package experiments

import (
	"context"
	"fmt"
	"strconv"

	"battsched/internal/battery"
	"battsched/internal/core"
	"battsched/internal/dvs"
	"battsched/internal/priority"
	"battsched/internal/processor"
	"battsched/internal/runner"

	// The battery model sub-packages self-register with the battery registry
	// from their init functions; blank imports make every paper model
	// resolvable by name for all drivers.
	_ "battsched/internal/battery/diffusion"
	_ "battsched/internal/battery/kibam"
	_ "battsched/internal/battery/peukert"
	_ "battsched/internal/battery/stochastic"
)

// defaultProcessor returns the paper's processor model.
func defaultProcessor() *processor.Model { return processor.Default() }

// BatteryFactory produces a fresh battery model instance (battery models are
// stateful, so each simulation needs its own).
type BatteryFactory func() battery.Model

// NamedBatteryFactory returns the factory for a registered battery model name
// ("" selects "stochastic", the paper's choice). Unknown names return the
// registry error listing every valid name.
func NamedBatteryFactory(name string) (BatteryFactory, error) {
	if name == "" {
		name = "stochastic"
	}
	if _, err := battery.New(name); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	return func() battery.Model {
		m, err := battery.New(name)
		if err != nil {
			panic(err) // unreachable: the name was validated above
		}
		return m
	}, nil
}

// resolveBatteryFactories resolves a list of battery model names, failing on
// the first unknown name.
func resolveBatteryFactories(names []string) ([]BatteryFactory, error) {
	factories := make([]BatteryFactory, len(names))
	for i, name := range names {
		f, err := NamedBatteryFactory(name)
		if err != nil {
			return nil, err
		}
		factories[i] = f
	}
	return factories, nil
}

// Table2Config parameterises the Table 2 experiment: the five scheduling
// schemes compared on delivered charge and battery lifetime.
type Table2Config struct {
	// Sets is the number of random task-graph sets averaged (paper: 100).
	Sets int
	// GraphsPerSet is the number of task graphs per set.
	GraphsPerSet int
	// Utilization is the worst-case utilisation of each set (paper: 0.70).
	Utilization float64
	// Hyperperiods simulated per set to build the periodic load profile.
	Hyperperiods int
	// BatteryName is the registry name of the battery model ("" selects the
	// paper's stochastic model) and the label reported for it.
	BatteryName string
	// OracleEstimates feeds the pUBS priority of the BAS-1/BAS-2 schemes the
	// true actual requirements instead of history-based estimates (the
	// "accurate estimate" regime the paper's pUBS discussion assumes).
	OracleEstimates bool
	// Seed makes the experiment reproducible.
	Seed int64
	// MaxBatteryHours caps each battery lifetime simulation.
	MaxBatteryHours float64
	// RunOptions tune the parallel execution of the per-set jobs.
	RunOptions
}

// DefaultTable2Config returns the paper's configuration: 100 random task
// graph sets at 70 % utilisation evaluated with the stochastic battery model.
func DefaultTable2Config() Table2Config {
	return Table2Config{
		Sets:            100,
		GraphsPerSet:    5,
		Utilization:     0.70,
		Hyperperiods:    4,
		BatteryName:     "stochastic",
		Seed:            1,
		MaxBatteryHours: 72,
	}
}

// QuickTable2Config returns a reduced configuration for fast benchmark runs.
func QuickTable2Config() Table2Config {
	c := DefaultTable2Config()
	c.Sets = 4
	c.Hyperperiods = 2
	c.MaxBatteryHours = 72
	return c
}

// Table2Row is one row of Table 2.
type Table2Row struct {
	// Scheme is the scheduling scheme label.
	Scheme string
	// DVS, Priority and ReadyList describe the scheme (as in the paper's
	// table columns).
	DVS       string
	Priority  string
	ReadyList string
	// ChargeDeliveredMAh is the mean charge delivered before exhaustion.
	ChargeDeliveredMAh float64
	// BatteryLifeMin is the mean battery lifetime in minutes.
	BatteryLifeMin float64
	// EnergyPerHyperperiodJ is the mean battery energy per simulated
	// hyperperiod (not in the paper's table, but useful for analysis).
	EnergyPerHyperperiodJ float64
	// AverageCurrentA is the mean load current of the generated profiles.
	AverageCurrentA float64
	// Sets is the number of task-graph sets averaged.
	Sets int
}

// paperScheme is one scheme of Table 2 with the paper's column labels.
type paperScheme struct {
	scheme
	dvsName, prioName, readyList string
}

// paperSchemes returns the five schemes of Table 2 in row order, scheduling
// on the discrete-frequency processor; oracle feeds pUBS the true actual
// requirements.
func paperSchemes(oracle bool) []paperScheme {
	noDVS := func() dvs.Algorithm { return dvs.NewNoDVS() }
	ccEDF := func() dvs.Algorithm { return dvs.NewCCEDF() }
	laEDF := func() dvs.Algorithm { return dvs.NewLAEDF() }
	random := func() priority.Function { return priority.NewRandom() }
	pubs := func() priority.Function { return priority.NewPUBS() }
	schemes := []paperScheme{
		{scheme{name: "EDF", alg: noDVS, prio: random, policy: core.MostImminentOnly}, "None", "Random", "most imminent"},
		{scheme{name: "Cycle Conserving", alg: ccEDF, prio: random, policy: core.MostImminentOnly}, "ccEDF", "Random", "most imminent"},
		{scheme{name: "Look Ahead", alg: laEDF, prio: random, policy: core.MostImminentOnly}, "laEDF", "Random", "most imminent"},
		{scheme{name: "BAS-1", alg: laEDF, prio: pubs, policy: core.MostImminentOnly}, "laEDF", "pUBS", "most imminent"},
		{scheme{name: "BAS-2", alg: laEDF, prio: pubs, policy: core.AllReleased}, "laEDF", "pUBS", "all released"},
	}
	for i := range schemes {
		schemes[i].mode, schemes[i].oracle = core.DiscreteFrequency, oracle
	}
	return schemes
}

// setsPerJob is the number of task-graph sets one job of the Table 2 and grid
// drivers simulates on one evaluator: the next setsPerJob sets of a batch.
// Both drivers fold every set into cells keyed on its absolute index, so the
// chunk size changes no number.
const setsPerJob = 4

// table2Cell is the result of one scheme on one task-graph set.
type table2Cell struct {
	charge, life, energy, current float64
}

// table2ChunkJob simulates every scheme on the task-graph sets [setLo, setHi)
// with one evaluator and returns one cell row per set. Each set's workload and
// actual execution requirements derive from its seed and are shared by all
// schemes, so schemes always compare on identical task graphs.
func table2ChunkJob(cfg Table2Config, proc *processor.Model, factory BatteryFactory, schemes []paperScheme, setLo, setHi int) ([][]table2Cell, error) {
	out := make([][]table2Cell, 0, setHi-setLo)
	ev := getEvaluator(proc, cfg.Hyperperiods, cfg.MaxBatteryHours, factory)
	defer ev.release()
	for set := setLo; set < setHi; set++ {
		if err := ev.generate(runner.SeedFor(cfg.Seed, int64(set)), cfg.GraphsPerSet, cfg.Utilization); err != nil {
			return nil, err
		}
		cells := make([]table2Cell, len(schemes))
		for i, s := range schemes {
			res, brs, err := ev.run(s.scheme)
			if err != nil {
				return nil, err
			}
			if res.DeadlineMisses > 0 {
				return nil, fmt.Errorf("experiments: table 2 scheme %s missed %d deadlines", s.name, res.DeadlineMisses)
			}
			cells[i] = table2Cell{
				charge:  brs[0].DeliveredMAh(),
				life:    brs[0].LifetimeMinutes(),
				energy:  res.EnergyBattery / float64(cfg.Hyperperiods),
				current: res.Profile.AverageCurrent(),
			}
		}
		out = append(out, cells)
	}
	return out, nil
}

// table2Agg accumulates one scheme's column of Table 2 from streamed sets.
type table2Agg struct{ charge, life, energy, current metricAcc }

func init() {
	mustRegister(Definition{
		Name:      "table2",
		Title:     "Table 2 — charge delivered and battery lifetime of the five scheduling schemes",
		Paper:     "Table 2 (Section 5)",
		Shardable: true,
		Run: func(ctx context.Context, spec Spec) (*Report, error) {
			cfg := DefaultTable2Config()
			if spec.Quick {
				cfg = QuickTable2Config()
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
			if spec.Battery != "" {
				cfg.BatteryName = spec.Battery
			}
			cfg.OracleEstimates = spec.Oracle
			cfg.RunOptions = spec.RunOptions
			return runTable2Report(ctx, cfg)
		},
	})
}

// runTable2Report regenerates Table 2 for the configured battery model. Jobs
// are chunks of setsPerJob task-graph sets, each covering every scheme on one
// reused engine; per-set cells stream back in chunk order and fold into
// per-scheme accumulators keyed on absolute set indices, so the result is
// byte-identical at any parallelism and any shard split. With
// RunOptions.TargetCI set, additional batches of sets run until the relative
// CI95 of every scheme's battery lifetime (the key metric) converges or
// MaxSets is reached.
func runTable2Report(ctx context.Context, cfg Table2Config) (*Report, error) {
	if cfg.Sets <= 0 || cfg.GraphsPerSet <= 0 || cfg.Utilization <= 0 || cfg.Utilization > 1 {
		return nil, fmt.Errorf("%w: %+v", ErrBadConfig, cfg)
	}
	if cfg.Hyperperiods <= 0 {
		cfg.Hyperperiods = 1
	}
	if cfg.BatteryName == "" {
		cfg.BatteryName = "stochastic"
	}
	factory, err := NamedBatteryFactory(cfg.BatteryName)
	if err != nil {
		return nil, err
	}
	if cfg.MaxBatteryHours <= 0 {
		cfg.MaxBatteryHours = 72
	}
	proc := defaultProcessor()
	schemes := paperSchemes(cfg.OracleEstimates)

	aggs := make([]table2Agg, len(schemes))
	_, err = runAdaptiveSets(cfg.RunOptions, cfg.Sets, func(lo, hi int) error {
		return runner.RunStream(ctx, (hi-lo+setsPerJob-1)/setsPerJob, cfg.runnerOptions(), func(_ context.Context, k int) ([][]table2Cell, error) {
			setLo := lo + k*setsPerJob
			return table2ChunkJob(cfg, proc, factory, schemes, setLo, min(setLo+setsPerJob, hi))
		}, func(k int, rows [][]table2Cell) error {
			for off, cells := range rows {
				set := lo + k*setsPerJob + off
				for si, cell := range cells {
					aggs[si].charge.Add(set, cell.charge)
					aggs[si].life.Add(set, cell.life)
					aggs[si].energy.Add(set, cell.energy)
					aggs[si].current.Add(set, cell.current)
				}
			}
			return nil
		})
	}, func() bool {
		for i := range aggs {
			if !converged(cfg.TargetCI, &aggs[i].life.acc) {
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
		Experiment: "table2",
		Meta: map[string]string{
			"seed":              strconv.FormatInt(cfg.Seed, 10),
			"sets":              strconv.Itoa(cfg.Sets),
			"sets_per_job":      strconv.Itoa(setsPerJob),
			"graphs_per_set":    strconv.Itoa(cfg.GraphsPerSet),
			"utilization":       formatFloat(cfg.Utilization),
			"hyperperiods":      strconv.Itoa(cfg.Hyperperiods),
			"battery":           cfg.BatteryName,
			"oracle":            strconv.FormatBool(cfg.OracleEstimates),
			"max_battery_hours": formatFloat(cfg.MaxBatteryHours),
			// The adaptive-stopping knobs decide how many sets the run
			// covers.
			"target_ci": formatFloat(cfg.TargetCI),
			"max_sets":  strconv.Itoa(cfg.MaxSets),
		},
		Shard: shardInfo(cfg.Shard),
	}
	for i, s := range schemes {
		rep.Rows = append(rep.Rows, ReportRow{
			Key:    s.name,
			Labels: map[string]string{"dvs": s.dvsName, "priority": s.prioName, "ready_list": s.readyList},
			Cells: map[string]Cell{
				"charge_mah":    aggs[i].charge.Cell(),
				"life_min":      aggs[i].life.Cell(),
				"energy_j":      aggs[i].energy.Cell(),
				"avg_current_a": aggs[i].current.Cell(),
			},
		})
	}
	return rep, nil
}

// table2RowsFromReport reconstructs the typed rows from a Report.
func table2RowsFromReport(r *Report) []Table2Row {
	rows := make([]Table2Row, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, Table2Row{
			Scheme:                row.Key,
			DVS:                   row.Labels["dvs"],
			Priority:              row.Labels["priority"],
			ReadyList:             row.Labels["ready_list"],
			ChargeDeliveredMAh:    row.Cells["charge_mah"].Mean,
			BatteryLifeMin:        row.Cells["life_min"].Mean,
			EnergyPerHyperperiodJ: row.Cells["energy_j"].Mean,
			AverageCurrentA:       row.Cells["avg_current_a"].Mean,
			Sets:                  row.Cells["charge_mah"].N,
		})
	}
	return rows
}
