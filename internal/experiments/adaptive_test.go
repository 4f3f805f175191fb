package experiments

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"battsched/internal/stats"
)

func TestRunAdaptiveSetsDisabled(t *testing.T) {
	var batches [][2]int
	total, err := runAdaptiveSets(RunOptions{}, 5, func(lo, hi int) error {
		batches = append(batches, [2]int{lo, hi})
		return nil
	}, func() bool { t.Fatal("conv called with adaptive stopping disabled"); return false })
	if err != nil {
		t.Fatal(err)
	}
	if total != 5 || !reflect.DeepEqual(batches, [][2]int{{0, 5}}) {
		t.Fatalf("total=%d batches=%v, want one batch [0,5)", total, batches)
	}
}

func TestRunAdaptiveSetsGrowsUntilConverged(t *testing.T) {
	var batches [][2]int
	total, err := runAdaptiveSets(RunOptions{TargetCI: 0.1, MaxSets: 100}, 4, func(lo, hi int) error {
		batches = append(batches, [2]int{lo, hi})
		return nil
	}, func() bool { return len(batches) >= 3 })
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int{{0, 4}, {4, 8}, {8, 12}}
	if total != 12 || !reflect.DeepEqual(batches, want) {
		t.Fatalf("total=%d batches=%v, want %v", total, batches, want)
	}
}

func TestRunAdaptiveSetsHardMax(t *testing.T) {
	var batches [][2]int
	total, err := runAdaptiveSets(RunOptions{TargetCI: 0.001, MaxSets: 10}, 4, func(lo, hi int) error {
		batches = append(batches, [2]int{lo, hi})
		return nil
	}, func() bool { return false }) // never converges
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int{{0, 4}, {4, 8}, {8, 10}}
	if total != 10 || !reflect.DeepEqual(batches, want) {
		t.Fatalf("total=%d batches=%v, want %v", total, batches, want)
	}
}

func TestRunAdaptiveSetsDefaultMax(t *testing.T) {
	total, err := runAdaptiveSets(RunOptions{TargetCI: 1e-12}, 3, func(lo, hi int) error { return nil },
		func() bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if total != 24 { // 8× the configured count
		t.Fatalf("total = %d, want 24", total)
	}
}

func TestRunAdaptiveSetsErrorStops(t *testing.T) {
	wantErr := errors.New("batch failed")
	calls := 0
	_, err := runAdaptiveSets(RunOptions{TargetCI: 0.1}, 4, func(lo, hi int) error {
		calls++
		if calls == 2 {
			return wantErr
		}
		return nil
	}, func() bool { return false })
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
}

func TestConverged(t *testing.T) {
	tight := &stats.Accumulator{}
	for _, x := range []float64{100, 100.1, 99.9, 100, 100.05} {
		tight.Add(x)
	}
	wide := &stats.Accumulator{}
	for _, x := range []float64{1, 100, 3, 80} {
		wide.Add(x)
	}
	if !converged(0.01, tight) {
		t.Fatalf("tight sample not converged at 1%%: relCI=%v", tight.RelCI95())
	}
	if converged(0.01, wide) {
		t.Fatalf("wide sample converged at 1%%: relCI=%v", wide.RelCI95())
	}
	if converged(0.01, tight, wide) {
		t.Fatal("mixed set converged")
	}
	var empty stats.Accumulator
	if converged(0.5, &empty) {
		t.Fatal("empty accumulator converged")
	}
	single := &stats.Accumulator{}
	single.Add(7)
	if converged(0.5, single) {
		t.Fatal("single-observation accumulator converged")
	}
}

// TestAdaptiveTable2StopsEarly checks the end-to-end behaviour: with a loose
// CI target the adaptive run must stop after the first batch (reporting
// exactly the configured set count), and with an impossible target it must
// run to the hard cap.
func TestAdaptiveTable2StopsEarly(t *testing.T) {
	cfg := QuickTable2Config()
	cfg.BatteryName = "kibam"
	cfg.TargetCI = 1000 // always satisfied after one batch
	cfg.MaxSets = 8
	rep, err := runTable2Report(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := rep.Rows[0].Cells["charge_mah"].N; n != cfg.Sets {
		t.Fatalf("Sets = %d, want first-batch count %d", n, cfg.Sets)
	}

	cfg.TargetCI = 1e-12 // unattainable: must run to MaxSets
	rep, err = runTable2Report(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := rep.Rows[0].Cells["charge_mah"].N; n != cfg.MaxSets {
		t.Fatalf("Sets = %d, want hard cap %d", n, cfg.MaxSets)
	}
}

// TestAdaptiveFirstBatchMatchesFixed checks that adaptive runs are prefixes
// of fixed runs: the first batch uses the same absolute set indices, so a
// converged adaptive run reports exactly the fixed-run values.
func TestAdaptiveFirstBatchMatchesFixed(t *testing.T) {
	fixed := QuickEstimateAblationConfig()
	adaptive := fixed
	adaptive.TargetCI = 1000
	adaptive.MaxSets = 99
	a, err := runEstimateAblationReport(context.Background(), fixed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runEstimateAblationReport(context.Background(), adaptive)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Rows, b.Rows) {
		t.Fatalf("adaptive first batch differs from fixed run:\n%v\n%v", a.Rows, b.Rows)
	}
}

// TestAdaptiveGridMatchesFixedRun pins the per-set fold of the scenario
// grid: an adaptive run that grows to N sets in multiple batches folds
// exactly the samples of a fixed N-set run, in the same order, so the rows
// (cells, samples, labels and counts) are identical.
func TestAdaptiveGridMatchesFixedRun(t *testing.T) {
	fixed := QuickScenarioGridConfig()
	fixed.Sets = 8
	adaptive := fixed
	adaptive.Sets = 4         // two adaptive batches of 4
	adaptive.TargetCI = 1e-12 // never converges...
	adaptive.MaxSets = 8      // ...so it runs to the cap
	a, err := RunScenarioGrid(context.Background(), fixed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenarioGrid(context.Background(), adaptive)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Rows, b.Rows) {
		t.Fatalf("adaptive 4+4-set grid differs from fixed 8-set grid:\n%v\n%v", a.Rows, b.Rows)
	}
}

// TestMeaninglessTargetCIRefused pins the one TargetCI rule: NaN, an
// infinity or a negative target fails every experiment's Run, the curve's
// included, and a driver's own entry point, with ErrBadConfig before
// anything runs. Before the rule, NaN ran as an adaptive run that stopped
// after its first batch, and -1 as a fixed run, each under a content address
// of its own.
func TestMeaninglessTargetCIRefused(t *testing.T) {
	ctx := context.Background()
	for _, ci := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -1e-300} {
		for _, name := range Names() {
			spec := Spec{Quick: true, Battery: "kibam", RunOptions: RunOptions{TargetCI: ci}}
			if _, err := Run(ctx, name, spec); !errors.Is(err, ErrBadConfig) || !strings.Contains(err.Error(), "target CI") {
				t.Fatalf("%s with TargetCI %v: err = %v, want ErrBadConfig on the target CI", name, ci, err)
			}
		}
		cfg := QuickTable2Config()
		cfg.TargetCI = ci
		if _, err := runTable2Report(ctx, cfg); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("runTable2Report with TargetCI %v: err = %v, want ErrBadConfig", ci, err)
		}
	}
	if _, err := Run(ctx, "table2", Spec{Quick: true, Battery: "kibam", RunOptions: RunOptions{TargetCI: math.Copysign(0, -1)}}); err != nil {
		t.Fatalf("TargetCI -0 (fixed set counts): %v", err)
	}
}

// TestNegativeMaxSetsRefused pins the MaxSets rule: a negative cap fails
// every experiment's Run and a driver's own entry point with ErrBadConfig
// before anything runs, with or without a target CI. Before the rule,
// -ci 0.2 with MaxSets -1 ran as MaxSets 0 under a content address of its
// own.
func TestNegativeMaxSetsRefused(t *testing.T) {
	ctx := context.Background()
	for _, ci := range []float64{0, 0.2} {
		for _, name := range Names() {
			spec := Spec{Quick: true, Battery: "kibam", RunOptions: RunOptions{TargetCI: ci, MaxSets: -1}}
			if _, err := Run(ctx, name, spec); !errors.Is(err, ErrBadConfig) || !strings.Contains(err.Error(), "max sets") {
				t.Fatalf("%s with TargetCI %v and MaxSets -1: err = %v, want ErrBadConfig on the max sets", name, ci, err)
			}
		}
		cfg := QuickTable2Config()
		cfg.TargetCI, cfg.MaxSets = ci, -1
		if _, err := runTable2Report(ctx, cfg); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("runTable2Report with TargetCI %v and MaxSets -1: err = %v, want ErrBadConfig", ci, err)
		}
	}
}

// TestMeaninglessMaxStepRefused pins the MaxStep rule: NaN, an infinity or a
// negative battery substep fails every experiment's Run with ErrBadConfig
// before anything runs. Before the rule, -1 and NaN ran the curve's analytic
// path, as 0 does, each under a content address of its own, and +Inf ran the
// stepped path with infinite substeps, which moved the curve's cells in their
// last digits.
func TestMeaninglessMaxStepRefused(t *testing.T) {
	ctx := context.Background()
	for _, step := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -1e-300} {
		for _, name := range Names() {
			spec := Spec{Quick: true, Battery: "kibam", MaxStep: step}
			if _, err := Run(ctx, name, spec); !errors.Is(err, ErrBadConfig) || !strings.Contains(err.Error(), "max step") {
				t.Fatalf("%s with MaxStep %v: err = %v, want ErrBadConfig on the max step", name, step, err)
			}
		}
	}
	if _, err := Run(ctx, "curve", Spec{Quick: true, Battery: "kibam", MaxStep: math.Copysign(0, -1)}); err != nil {
		t.Fatalf("MaxStep -0 (the analytic path): %v", err)
	}
}
