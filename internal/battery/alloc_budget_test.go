//go:build !race

// The race detector allocates on its own account, so these budgets hold
// only without it.

package battery_test

import (
	"testing"

	"battsched/internal/battery"
)

// TestBatchAllocBudgets budgets the allocations of one SimulateBatch pass
// over the periodic bench profile with a 72 h horizon, its model instances
// reused across passes as the experiment drivers reuse theirs. The models
// cycle through the four families, so every pass takes the analytic path
// and the deaths stagger. An allocation count does not move with runner
// speed. The 4-model budget is the drivers' shape, pinned at 10; the
// 16-model budget is what 16 scalar SimulateUntilExhausted calls on fresh
// instances allocate, so a batch pass never costs more than the calls it
// replaces. Counts were measured with Go 1.24.0 on linux/amd64.
func TestBatchAllocBudgets(t *testing.T) {
	p := benchLifetimeProfile()
	opts := battery.SimulateOptions{MaxTime: 72 * 3600}
	for _, tc := range []struct {
		models int
		budget float64
	}{
		{4, 10},  // measured 6
		{16, 44}, // measured 21
	} {
		models := batchBenchModels(t, tc.models)
		got := testing.AllocsPerRun(100, func() {
			if _, err := battery.SimulateBatch(models, p, opts); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d-model SimulateBatch: %v allocs (budget %v)", tc.models, got, tc.budget)
		if got > tc.budget {
			t.Errorf("%d-model SimulateBatch allocates %v times per pass, over its budget of %v", tc.models, got, tc.budget)
		}
	}
}
