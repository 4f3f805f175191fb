package experiments

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"battsched/internal/optimal"
	"battsched/internal/tgff"
)

func TestNamedBatteryFactory(t *testing.T) {
	for _, name := range []string{"", "stochastic", "kibam", "diffusion", "peukert"} {
		f, err := NamedBatteryFactory(name)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		m := f()
		if m == nil || m.MaxCapacity() <= 0 {
			t.Fatalf("%q: bad model", name)
		}
		// Factories must return fresh instances.
		if f() == m {
			t.Fatalf("%q: factory returned a shared instance", name)
		}
	}
	if _, err := NamedBatteryFactory("bogus"); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("unknown model err = %v", err)
	}
}

func TestRunTable1Quick(t *testing.T) {
	cfg := QuickTable1Config()
	rows, err := RunTable1(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(cfg.TaskCounts) {
		t.Fatalf("rows = %d, want %d", len(rows), len(cfg.TaskCounts))
	}
	for _, r := range rows {
		if r.Samples != cfg.GraphsPerCount {
			t.Fatalf("row %d: samples = %d", r.Tasks, r.Samples)
		}
		// All normalised energies are at least 1 (the optimum normalises).
		for name, v := range map[string]float64{"random": r.Random, "ltf": r.LTF, "pubs": r.PUBS} {
			if v < 0.999 {
				t.Fatalf("row %d: %s = %v < 1", r.Tasks, name, v)
			}
		}
		// The paper's qualitative shape: pUBS is the closest to optimal.
		if r.PUBS > r.Random+1e-9 {
			t.Fatalf("row %d: pUBS (%v) worse than random (%v)", r.Tasks, r.PUBS, r.Random)
		}
		if r.PUBS > r.LTF+1e-9 {
			t.Fatalf("row %d: pUBS (%v) worse than LTF (%v)", r.Tasks, r.PUBS, r.LTF)
		}
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "pUBS") || !strings.Contains(out, "Table 1") {
		t.Fatalf("FormatTable1 output unexpected:\n%s", out)
	}
}

// TestTable1OptimumIsExact pins the optimum of the full-size Table 1's DAG 19
// of 15 tasks (seed 1). The 2M-expansion search that once normalised Table 1
// stopped at 14153805.143085949 there, and even 50M expansions only reach
// 13419318.96573374.
func TestTable1OptimumIsExact(t *testing.T) {
	cfg := DefaultTable1Config()
	gen := tgff.DefaultConfig()
	gen.EdgeProbability = cfg.EdgeProbability
	g, params, _, err := table1Graph(cfg, gen, 15, 19)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := optimal.OptimalOrder(g, params)
	if err != nil {
		t.Fatal(err)
	}
	const want = 12178054.178291526
	if opt.Energy != want {
		t.Fatalf("optimum = %.17g (order %v), want %.17g", opt.Energy, opt.Order, want)
	}
}

func TestRunTable1Validation(t *testing.T) {
	if _, err := RunTable1(context.Background(), Table1Config{}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunFigure6Quick(t *testing.T) {
	cfg := QuickFigure6Config()
	cfg.UseCCEDF = true // the ordering-scheme separation is robust with ccEDF
	rows, err := RunFigure6(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(cfg.GraphCounts) {
		t.Fatalf("rows = %d, want %d", len(rows), len(cfg.GraphCounts))
	}
	for _, r := range rows {
		if r.Samples == 0 {
			t.Fatalf("row %d: no samples", r.Graphs)
		}
		for name, v := range map[string]float64{
			"random": r.Random, "ltf": r.LTF, "pubs-imminent": r.PUBSImminent, "pubs-all": r.PUBSAllReleased,
		} {
			if v <= 0.5 || v > 10 {
				t.Fatalf("row %d: %s = %v implausible", r.Graphs, name, v)
			}
		}
		// pUBS over all released graphs should track the near-optimal most
		// closely (allow a small tolerance for the quick configuration).
		if r.PUBSAllReleased > r.Random*1.05 {
			t.Fatalf("row %d: pUBS-all (%v) much worse than random (%v)", r.Graphs, r.PUBSAllReleased, r.Random)
		}
	}
	out := FormatFigure6(rows)
	if !strings.Contains(out, "Figure 6") {
		t.Fatalf("FormatFigure6 output unexpected:\n%s", out)
	}
}

func TestRunFigure6Validation(t *testing.T) {
	if _, err := RunFigure6(context.Background(), Figure6Config{}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunTable2Quick(t *testing.T) {
	cfg := QuickTable2Config()
	cfg.BatteryName = "kibam"
	rows, err := RunTable2(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	byName := map[string]Table2Row{}
	for _, r := range rows {
		byName[r.Scheme] = r
		if r.Sets != cfg.Sets {
			t.Fatalf("%s: sets = %d", r.Scheme, r.Sets)
		}
		if r.ChargeDeliveredMAh <= 0 || r.ChargeDeliveredMAh > 2000 {
			t.Fatalf("%s: charge = %v", r.Scheme, r.ChargeDeliveredMAh)
		}
		if r.BatteryLifeMin <= 0 {
			t.Fatalf("%s: lifetime = %v", r.Scheme, r.BatteryLifeMin)
		}
	}
	edf := byName["EDF"]
	cc := byName["Cycle Conserving"]
	bas2 := byName["BAS-2"]
	// The headline qualitative results: any DVS beats no-DVS on lifetime and
	// energy, and the full BAS-2 methodology beats plain EDF on both charge
	// delivered and lifetime.
	if cc.BatteryLifeMin <= edf.BatteryLifeMin {
		t.Fatalf("ccEDF lifetime %v not above EDF lifetime %v", cc.BatteryLifeMin, edf.BatteryLifeMin)
	}
	if bas2.BatteryLifeMin <= edf.BatteryLifeMin {
		t.Fatalf("BAS-2 lifetime %v not above EDF lifetime %v", bas2.BatteryLifeMin, edf.BatteryLifeMin)
	}
	if bas2.ChargeDeliveredMAh < edf.ChargeDeliveredMAh {
		t.Fatalf("BAS-2 charge %v below EDF charge %v", bas2.ChargeDeliveredMAh, edf.ChargeDeliveredMAh)
	}
	if edf.EnergyPerHyperperiodJ <= bas2.EnergyPerHyperperiodJ {
		t.Fatalf("EDF energy %v not above BAS-2 energy %v", edf.EnergyPerHyperperiodJ, bas2.EnergyPerHyperperiodJ)
	}
	out := FormatTable2(rows, "kibam", cfg.Utilization)
	if !strings.Contains(out, "BAS-2") || !strings.Contains(out, "Table 2") {
		t.Fatalf("FormatTable2 output unexpected:\n%s", out)
	}
}

func TestRunTable2Validation(t *testing.T) {
	if _, err := RunTable2(context.Background(), Table2Config{}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v", err)
	}
	bad := DefaultTable2Config()
	bad.Sets = 1
	bad.BatteryName = "bogus"
	if _, err := RunTable2(context.Background(), bad); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("bogus battery err = %v", err)
	}
}

func TestRunLoadCapacityCurve(t *testing.T) {
	series, err := RunLoadCapacityCurve(context.Background(), QuickCurveConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		if len(s.Points) != 3 {
			t.Fatalf("%s: points = %d", s.Model, len(s.Points))
		}
		// Rate-capacity effect: delivered capacity non-increasing in load.
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].DeliveredMAh > s.Points[i-1].DeliveredMAh+1 {
				t.Fatalf("%s: capacity increases with load: %+v", s.Model, s.Points)
			}
		}
	}
	out := FormatCurve(series)
	if !strings.Contains(out, "kibam") {
		t.Fatalf("FormatCurve output unexpected:\n%s", out)
	}
	if FormatCurve(nil) == "" {
		t.Fatal("FormatCurve(nil) empty")
	}
}

func TestRunEstimateAblation(t *testing.T) {
	rows, err := RunEstimateAblation(context.Background(), QuickEstimateAblationConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	oracle, history, pessimistic := rows[0], rows[1], rows[2]
	if oracle.Samples == 0 {
		t.Fatal("no samples")
	}
	// With perfect estimates the pUBS ordering must beat random ordering; the
	// paper's qualitative claim is that worse estimates push it back toward a
	// random schedule, so the oracle variant should be at least as good as the
	// pessimistic one.
	if oracle.EnergyVsRandom > 1.02 {
		t.Fatalf("oracle pUBS worse than random: %v", oracle.EnergyVsRandom)
	}
	if oracle.EnergyVsRandom > pessimistic.EnergyVsRandom+0.05 {
		t.Fatalf("oracle (%v) much worse than pessimistic estimates (%v)", oracle.EnergyVsRandom, pessimistic.EnergyVsRandom)
	}
	if history.EnergyVsRandom <= 0 || pessimistic.EnergyVsRandom <= 0 {
		t.Fatal("non-positive normalised energies")
	}
	out := FormatEstimateAblation(rows)
	if !strings.Contains(out, "oracle") || !strings.Contains(out, "ablation") {
		t.Fatalf("FormatEstimateAblation output unexpected:\n%s", out)
	}
}

func TestRunEstimateAblationValidation(t *testing.T) {
	if _, err := RunEstimateAblation(context.Background(), EstimateAblationConfig{}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunLoadCapacityCurveValidation(t *testing.T) {
	if _, err := RunLoadCapacityCurve(context.Background(), CurveConfig{Currents: []float64{-1}}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v", err)
	}
	if _, err := RunLoadCapacityCurve(context.Background(), CurveConfig{Models: []string{"bogus"}}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v", err)
	}
	// Empty config gets defaults applied; just check it does not error when
	// restricted to one cheap model and current.
	if _, err := RunLoadCapacityCurve(context.Background(), CurveConfig{Models: []string{"peukert"}, Currents: []float64{1}}); err != nil {
		t.Fatalf("defaults err = %v", err)
	}
}

// TestTable1ParallelDeterminism is the harness's core guarantee: the same
// seed produces identical Table 1 rows at any worker count.
func TestTable1ParallelDeterminism(t *testing.T) {
	cfg := QuickTable1Config()
	cfg.Parallel = 1
	seq, err := RunTable1(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallel = 8
	par, err := RunTable1(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("rows differ across worker counts:\nseq: %+v\npar: %+v", seq, par)
	}
	if FormatTable1(seq) != FormatTable1(par) {
		t.Fatal("formatted tables differ across worker counts")
	}
}

// TestTable2ParallelDeterminism checks byte-identical Table 2 output at
// -parallel 1 and -parallel 8.
func TestTable2ParallelDeterminism(t *testing.T) {
	cfg := QuickTable2Config()
	cfg.BatteryName = "kibam"
	cfg.Parallel = 1
	seq, err := RunTable2(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallel = 8
	par, err := RunTable2(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("rows differ across worker counts:\nseq: %+v\npar: %+v", seq, par)
	}
	if FormatTable2(seq, "kibam", cfg.Utilization) != FormatTable2(par, "kibam", cfg.Utilization) {
		t.Fatal("formatted tables differ across worker counts")
	}
}

// TestFigure6AndAblationParallelDeterminism checks Figure 6 and the ablation
// across worker counts.
func TestFigure6AndAblationParallelDeterminism(t *testing.T) {
	fcfg := QuickFigure6Config()
	fcfg.Parallel = 1
	seq, err := RunFigure6(context.Background(), fcfg)
	if err != nil {
		t.Fatal(err)
	}
	fcfg.Parallel = 8
	par, err := RunFigure6(context.Background(), fcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("figure 6 rows differ across worker counts:\nseq: %+v\npar: %+v", seq, par)
	}

	acfg := QuickEstimateAblationConfig()
	acfg.Parallel = 1
	aseq, err := RunEstimateAblation(context.Background(), acfg)
	if err != nil {
		t.Fatal(err)
	}
	acfg.Parallel = 8
	apar, err := RunEstimateAblation(context.Background(), acfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(aseq, apar) {
		t.Fatalf("ablation rows differ across worker counts:\nseq: %+v\npar: %+v", aseq, apar)
	}
}

// TestExperimentProgressAndCancellation exercises the runner wiring: progress
// callbacks fire once per job and a cancelled context aborts the sweep.
func TestExperimentProgressAndCancellation(t *testing.T) {
	cfg := QuickCurveConfig()
	var last, calls int
	cfg.Progress = func(done, total int) {
		last = done
		calls++
		// One job per current: each job batch-evaluates the whole model axis.
		if total != len(cfg.Currents) {
			t.Errorf("total = %d", total)
		}
	}
	if _, err := RunLoadCapacityCurve(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if want := len(cfg.Currents); calls != want || last != want {
		t.Fatalf("progress calls = %d last = %d, want %d", calls, last, want)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunTable2(ctx, QuickTable2Config()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx err = %v", err)
	}
}

// TestRunScenarioGrid checks the scenario-grid sweep: shape, comparability of
// the schemes, and independence from the worker count.
func TestRunScenarioGrid(t *testing.T) {
	cfg := QuickScenarioGridConfig()
	cfg.Parallel = 8
	rows, err := RunScenarioGrid(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(cfg.Utilizations)*len(cfg.Batteries)*len(cfg.Schemes) {
		t.Fatalf("rows = %d", len(rows))
	}
	byScheme := map[string]ScenarioGridRow{}
	for _, r := range rows {
		byScheme[r.Scheme] = r
		if r.Charge.N != cfg.Sets {
			t.Fatalf("%s: sets = %d, want %d", r.Scheme, r.Charge.N, cfg.Sets)
		}
		if r.Charge.Mean <= 0 || r.Life.Mean <= 0 {
			t.Fatalf("%s: non-positive cell %+v", r.Scheme, r)
		}
		if r.DeadlineMisses != 0 {
			t.Fatalf("%s: %d deadline misses at utilisation %.2f", r.Scheme, r.DeadlineMisses, r.Utilization)
		}
	}
	if byScheme["BAS-2"].Life.Mean <= byScheme["EDF"].Life.Mean {
		t.Fatalf("BAS-2 lifetime %v not above EDF lifetime %v", byScheme["BAS-2"].Life.Mean, byScheme["EDF"].Life.Mean)
	}

	// Sequential execution: byte-identical rows.
	cfg2 := cfg
	cfg2.Parallel = 1
	rows2, err := RunScenarioGrid(context.Background(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, rows2) {
		t.Fatalf("rows differ across worker counts:\n%+v\n%+v", rows, rows2)
	}
	out := FormatScenarioGrid(rows)
	if !strings.Contains(out, "Scenario grid") || !strings.Contains(out, "BAS-2") {
		t.Fatalf("FormatScenarioGrid output unexpected:\n%s", out)
	}
}

// TestRunScenarioGridValidation covers the config validation paths.
func TestRunScenarioGridValidation(t *testing.T) {
	if _, err := RunScenarioGrid(context.Background(), ScenarioGridConfig{}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v", err)
	}
	bad := QuickScenarioGridConfig()
	bad.Utilizations = []float64{1.5}
	if _, err := RunScenarioGrid(context.Background(), bad); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("utilisation err = %v", err)
	}
	bad = QuickScenarioGridConfig()
	bad.Schemes = []string{"bogus"}
	if _, err := RunScenarioGrid(context.Background(), bad); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("scheme err = %v", err)
	}
	bad = QuickScenarioGridConfig()
	bad.Batteries = []string{"bogus"}
	if _, err := RunScenarioGrid(context.Background(), bad); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("battery err = %v", err)
	}
}
