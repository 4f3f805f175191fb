//go:build !race

// The race detector allocates on its own account, so these budgets hold
// only without it.

package experiments

import (
	"context"
	"testing"

	"battsched/internal/obs"
)

// TestDriverAllocBudgets budgets the allocations of the four quick per-set
// drivers (table2 and grid on KiBaM; figure6 and the ablation evaluate no
// battery), run through Run on one worker, and pins the compute work of each
// run exactly: its engine runs and battery simulations, read from the
// process-wide obs.Sim counters, so this test must not run in parallel with
// another. The budgets catch a driver that stops sharing its engine,
// recorder, execution realisation or task system across the schemes of a
// set; an allocation count does not move with runner speed. Each budget
// was set at floor(1.10 × the count first measured with Go 1.24.0 on
// linux/amd64), and the count measured now sits beside it. The counts fell
// when the drivers began taking their evaluators from a pool that outlives
// a run.
func TestDriverAllocBudgets(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget float64
		sim    obs.SimSnapshot
	}{
		// 4 sets × 5 schemes, one battery each.
		{"table2", 2085, obs.SimSnapshot{EngineRuns: 20, BatteryAnalytic: 20, BatteryBatches: 20}}, // measured 1797
		// 1 utilisation × 3 sets × 2 schemes, one battery each.
		{"grid", 995, obs.SimSnapshot{EngineRuns: 6, BatteryAnalytic: 6, BatteryBatches: 6}}, // measured 840
		// 3 graph counts × 3 sets × (baseline + 4 schemes), no batteries.
		{"figure6", 3518, obs.SimSnapshot{EngineRuns: 45}}, // measured 2587
		// 4 sets × (baseline + 3 estimators), no batteries.
		{"ablation", 1381, obs.SimSnapshot{EngineRuns: 16}}, // measured 986
	} {
		spec := Spec{Quick: true, Battery: "kibam", RunOptions: RunOptions{Parallel: 1}}
		run := func() {
			if _, err := Run(context.Background(), tc.name, spec); err != nil {
				t.Fatal(err)
			}
		}
		before := obs.Sim.Snapshot()
		run()
		if got := obs.Sim.Snapshot().Sub(before); got != tc.sim {
			t.Errorf("%s: one run did %+v, want %+v", tc.name, got, tc.sim)
		}
		got := testing.AllocsPerRun(20, run)
		t.Logf("%s: %v allocs (budget %v)", tc.name, got, tc.budget)
		if got > tc.budget {
			t.Errorf("%s allocates %v times per run, over its budget of %v", tc.name, got, tc.budget)
		}
	}
}
