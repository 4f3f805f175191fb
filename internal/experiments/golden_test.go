package experiments

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with the current output")

// checkGolden compares got against testdata/<name>.golden, rewriting the file
// when -update is set.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -run Golden -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestGoldenTable1 pins the quick Table 1 output: the formatted table plus
// every row value at round-trip float precision.
func TestGoldenTable1(t *testing.T) {
	cfg := QuickTable1Config()
	rows, err := RunTable1(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(FormatTable1(rows))
	for _, r := range rows {
		fmt.Fprintf(&b, "raw %d %.17g %.17g %.17g %d\n", r.Tasks, r.Random, r.LTF, r.PUBS, r.Samples)
	}
	checkGolden(t, "table1_quick", b.String())
}

// TestGoldenTable2 pins the quick Table 2 output (all five schemes in
// discrete-frequency mode) for the kibam battery and for the paper's
// stochastic battery. The stochastic rows are the only golden that runs the
// stochastic repetition operator on schedule-shaped profiles: about 150
// sub-second segments per repetition, thousands of repetitions per lifetime,
// applied as closed-form runs (TestClosedFormLifetimesMatchSegmentStepping
// pins those runs against stepping every segment).
func TestGoldenTable2(t *testing.T) {
	for _, tc := range []struct{ battery, golden string }{
		{"kibam", "table2_quick"},
		{"stochastic", "table2_quick_stochastic"},
	} {
		t.Run(tc.battery, func(t *testing.T) {
			cfg := QuickTable2Config()
			cfg.BatteryName = tc.battery
			rows, err := RunTable2(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			b.WriteString(FormatTable2(rows, cfg.BatteryName, cfg.Utilization))
			for _, r := range rows {
				fmt.Fprintf(&b, "raw %s %.17g %.17g %.17g %.17g %d\n",
					r.Scheme, r.ChargeDeliveredMAh, r.BatteryLifeMin, r.EnergyPerHyperperiodJ, r.AverageCurrentA, r.Sets)
			}
			checkGolden(t, tc.golden, b.String())
		})
	}
}

// TestGoldenFigure6 pins the quick Figure 6 output (continuous-frequency
// energy comparison of the four ordering schemes).
func TestGoldenFigure6(t *testing.T) {
	cfg := QuickFigure6Config()
	rows, err := RunFigure6(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(FormatFigure6(rows))
	for _, r := range rows {
		fmt.Fprintf(&b, "raw %d %.17g %.17g %.17g %.17g %d\n",
			r.Graphs, r.Random, r.LTF, r.PUBSImminent, r.PUBSAllReleased, r.Samples)
	}
	checkGolden(t, "figure6_quick", b.String())
}

// TestGoldenAblation pins the quick estimate-quality ablation output.
func TestGoldenAblation(t *testing.T) {
	cfg := QuickEstimateAblationConfig()
	rows, err := RunEstimateAblation(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(FormatEstimateAblation(rows))
	for _, r := range rows {
		fmt.Fprintf(&b, "raw %s %.17g %d\n", r.Estimator, r.EnergyVsRandom, r.Samples)
	}
	checkGolden(t, "ablation_quick", b.String())
}

// TestGoldenScenarioGrid pins the quick scenario-grid output (including the
// Student-t CI95 columns).
func TestGoldenScenarioGrid(t *testing.T) {
	cfg := QuickScenarioGridConfig()
	rows, err := RunScenarioGrid(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(FormatScenarioGrid(rows))
	for _, r := range rows {
		fmt.Fprintf(&b, "raw %.17g %s %s charge=%.17g±%.17g life=%.17g±%.17g n=%d misses=%d\n",
			r.Utilization, r.Battery, r.Scheme, r.Charge.Mean, r.Charge.CI95, r.Life.Mean, r.Life.CI95, r.Charge.N, r.DeadlineMisses)
	}
	checkGolden(t, "grid_quick", b.String())
}

// TestGoldenWiderReports pins, through Run, the configurations the quick
// goldens do not reach: Table 2 with oracle estimates, Table 2 over two set
// chunks on a third battery model, Figure 6 on ccEDF, the grid's default
// three utilisations × two batteries × five schemes with oracle estimates,
// and the ablation at a second utilisation. The artifact encoding keeps every
// per-set sample, so each is pinned to the bit.
func TestGoldenWiderReports(t *testing.T) {
	var reports []*Report
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"table2", Spec{Quick: true, Battery: "kibam", Oracle: true}},
		{"table2", Spec{Quick: true, Battery: "diffusion", Sets: 6, Utilization: 0.9}},
		{"figure6", Spec{Quick: true, CCEDF: true}},
		{"grid", Spec{Sets: 2, Oracle: true}},
		{"ablation", Spec{Sets: 3, Utilization: 0.9}},
	} {
		rep, err := Run(context.Background(), tc.name, tc.spec)
		if err != nil {
			t.Fatalf("%s %+v: %v", tc.name, tc.spec, err)
		}
		reports = append(reports, rep)
	}
	var b strings.Builder
	if err := WriteArtifact(&b, reports); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "wider_reports", b.String())
}

// TestGoldenCurve pins the quick battery characterisation curve output (the
// deterministic sweep; no stochastic sets).
func TestGoldenCurve(t *testing.T) {
	cfg := QuickCurveConfig()
	series, err := RunLoadCapacityCurve(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(FormatCurve(series))
	for _, s := range series {
		for _, p := range s.Points {
			fmt.Fprintf(&b, "raw %s %.17g %.17g %.17g\n", s.Model, p.Current, p.DeliveredMAh, p.LifetimeMinutes)
		}
	}
	checkGolden(t, "curve_quick", b.String())
}
