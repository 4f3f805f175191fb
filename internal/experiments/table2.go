package experiments

import (
	"context"
	"fmt"

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
		table: table{
			head: "Table 2: scheduling schemes at %.0f%% utilisation (battery model: %s)\n" +
				"Scheme            | DVS Algo | Priority | Ready list    | Charge (mAh) | Life (min) | Energy/hp (J) | Avg I (A)\n" +
				"------------------+----------+----------+---------------+--------------+------------+---------------+----------\n",
			headArgs: []reportValue{func(r *Report) any { return metaFloat(r.Meta, "utilization") * 100 }, metaText("battery")},
			row:      "%-17s | %-8s | %-8s | %-13s | %12.0f | %10.1f | %13.3f | %8.3f\n",
			cols: []rowValue{key, label("dvs"), label("priority"), label("ready_list"),
				mean("charge_mah"), mean("life_min"), mean("energy_j"), mean("avg_current_a")},
			foot:     "(%d task-graph sets, %.1fs)\n\n",
			footArgs: []reportValue{firstCellN("charge_mah")},
		},
	})
}

// table2Layout is Table 2's sweep: a set's seed keys on its absolute index
// alone, a row is one scheme with the paper's column labels, the energy per
// hyperperiod and the average current are reported beside charge and life,
// and any deadline miss fails the run.
var table2Layout = sweepLayout{
	experiment: "table2",
	seed:       func(base int64, _, set int) int64 { return runner.SeedFor(base, int64(set)) },
	metrics:    sweepMetrics[:],
	miss: func(scheme string, misses int) error {
		if misses > 0 {
			return fmt.Errorf("experiments: table 2 scheme %s missed %d deadlines", scheme, misses)
		}
		return nil
	},
	row: func(_, _ string, s paperScheme, cells map[string]Cell, _ int) ReportRow {
		return ReportRow{
			Key:    s.name,
			Labels: map[string]string{"dvs": s.dvsName, "priority": s.prioName, "ready_list": s.readyList},
			Cells:  cells,
		}
	},
	meta: func(cfg *ScenarioGridConfig, meta map[string]string) {
		meta["utilization"] = formatFloat(cfg.Utilizations[0])
		meta["battery"] = cfg.Batteries[0]
		meta["max_battery_hours"] = formatFloat(cfg.MaxBatteryHours)
	},
}

// runTable2Report regenerates Table 2 for the configured battery model: the
// scenario grid's sweep of the five schemes at one utilisation point and one
// battery. Its result is byte-identical at any parallelism and any shard
// split. With RunOptions.TargetCI set, additional batches of sets run until
// the relative CI95 of every scheme's battery lifetime (the key metric)
// converges or MaxSets is reached.
func runTable2Report(ctx context.Context, cfg Table2Config) (*Report, error) {
	grid := ScenarioGridConfig{
		Utilizations:    []float64{cfg.Utilization},
		Sets:            cfg.Sets,
		GraphsPerSet:    cfg.GraphsPerSet,
		Hyperperiods:    cfg.Hyperperiods,
		MaxBatteryHours: cfg.MaxBatteryHours,
		OracleEstimates: cfg.OracleEstimates,
		Seed:            cfg.Seed,
		RunOptions:      cfg.RunOptions,
	}
	if cfg.BatteryName != "" {
		grid.Batteries = []string{cfg.BatteryName}
	}
	return runSweep(ctx, grid, table2Layout)
}
