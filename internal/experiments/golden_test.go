package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
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
	rep, err := runTable1Report(context.Background(), QuickTable1Config())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(formatted(t, rep))
	for _, r := range rep.Rows {
		c := r.Cells
		fmt.Fprintf(&b, "raw %d %.17g %.17g %.17g %d\n", keyInt(&r), c["random"].Mean, c["ltf"].Mean, c["pubs"].Mean, c["random"].N)
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
			rep, err := runTable2Report(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			b.WriteString(formatted(t, rep))
			for _, r := range rep.Rows {
				c := r.Cells
				fmt.Fprintf(&b, "raw %s %.17g %.17g %.17g %.17g %d\n",
					r.Key, c["charge_mah"].Mean, c["life_min"].Mean, c["energy_j"].Mean, c["avg_current_a"].Mean, c["charge_mah"].N)
			}
			checkGolden(t, tc.golden, b.String())
		})
	}
}

// TestGoldenFigure6 pins the quick Figure 6 output (continuous-frequency
// energy comparison of the four ordering schemes).
func TestGoldenFigure6(t *testing.T) {
	rep, err := runFigure6Report(context.Background(), QuickFigure6Config())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(formatted(t, rep))
	for _, r := range rep.Rows {
		c := r.Cells
		fmt.Fprintf(&b, "raw %d %.17g %.17g %.17g %.17g %d\n",
			keyInt(&r), c["random"].Mean, c["ltf"].Mean, c["pubs_imminent"].Mean, c["pubs_all"].Mean, c["random"].N)
	}
	checkGolden(t, "figure6_quick", b.String())
}

// TestGoldenAblation pins the quick estimate-quality ablation output.
func TestGoldenAblation(t *testing.T) {
	rep, err := runEstimateAblationReport(context.Background(), QuickEstimateAblationConfig())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(formatted(t, rep))
	for _, r := range rep.Rows {
		c := r.Cells["energy_vs_random"]
		fmt.Fprintf(&b, "raw %s %.17g %d\n", r.Key, c.Mean, c.N)
	}
	checkGolden(t, "ablation_quick", b.String())
}

// TestGoldenScenarioGrid pins the quick scenario-grid output (including the
// Student-t CI95 columns).
func TestGoldenScenarioGrid(t *testing.T) {
	rep, err := RunScenarioGrid(context.Background(), QuickScenarioGridConfig())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(formatted(t, rep))
	for _, r := range rep.Rows {
		c := r.Cells
		fmt.Fprintf(&b, "raw %.17g %s %s charge=%.17g±%.17g life=%.17g±%.17g n=%d misses=%d\n",
			labelNumber("utilization")(&r), r.Labels["battery"], r.Labels["scheme"],
			c["charge_mah"].Mean, ci95("charge_mah")(&r), c["life_min"].Mean, ci95("life_min")(&r),
			c["charge_mah"].N, r.Counts["deadline_misses"])
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
	rep, err := RunLoadCapacityCurve(context.Background(), QuickCurveConfig())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(formatted(t, rep))
	for _, r := range rep.Rows {
		fmt.Fprintf(&b, "raw %s %.17g %.17g %.17g\n",
			r.Labels["model"], labelNumber("current")(&r), r.Cells["delivered_mah"].Mean, r.Cells["life_min"].Mean)
	}
	checkGolden(t, "curve_quick", b.String())
}

// TestDefaultSizePins pins, through Run, the SHA-256 of every experiment's
// default-size artifact (Spec{}, the paper's sizes) and of its FormatReport
// table; the goldens above run quick or reduced configurations only. The
// curve's and the grid's bytes depend on the host's floating-point hardware:
// on amd64 math.Exp takes another branch without AVX and FMA
// (GODEBUG=cpu.fma=off), and both artifacts then differ in a last ulp
// (ROADMAP item 3). The six runs take a fraction of a second.
func TestDefaultSizePins(t *testing.T) {
	for _, tc := range []struct{ name, artifact, table string }{
		{"table1",
			"7a60d76196aec87db92925cb8eb0cd133f7d89ee92ee204803a84a2639739d92",
			"5bdcd5e1fd1017f0715ae97c62eadfd0bae64602cc19e72e3a1169bfa7b228ea"},
		{"figure6",
			"479e2059f58116a2e32e4b1b6b1ba4f02bc321d82017daffdfac968f92d88d33",
			"0072dd22f586c1dd14a22350792b305f1ee90a8912c6e0256e39bfd1ad5ad28c"},
		{"table2",
			"4c20f6d93e2e1ac164d77801948bc5873d8b14baa831c6bd267a7f3628d27491",
			"6d38f2efe7dd4c1c2fab6ad13a48c4c32250159be2a08842fcc1218c65499d28"},
		{"curve",
			"91f35a1df158c0856f3f339d657655c99c2edb22cb39e825552ec571d87f418b",
			"eb47600c467bc67d91ca23f3e404298966a36cddd31aeb6cefe98bd063d533b1"},
		{"ablation",
			"18ba4b3f58a2c0a9954b535f4c4f2217906ada356c53490d2395620a6c49409d",
			"b1083dd005104e565254d2b91ab6b991228a3f82a8d93f76b7f48c0b9fde944b"},
		{"grid",
			"4ed0460ca7157e739c4644d190f6580aec0455bb9e4d006ec238f9c41a61e2d0",
			"b0f90da2d62b7986481158e98cd4be79ebbadcf7817b9e9085c51908b81a8750"},
	} {
		rep, err := Run(context.Background(), tc.name, Spec{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var art strings.Builder
		if err := WriteArtifact(&art, []*Report{rep}); err != nil {
			t.Fatal(err)
		}
		table, err := FormatReport(rep)
		if err != nil {
			t.Fatal(err)
		}
		if got := sha256Hex(art.String()); got != tc.artifact {
			t.Errorf("%s: artifact SHA-256 %s, want %s", tc.name, got, tc.artifact)
		}
		if got := sha256Hex(table); got != tc.table {
			t.Errorf("%s: table SHA-256 %s, want %s\n%s", tc.name, got, tc.table, table)
		}
	}
}

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}
