//go:build !race

// The race detector allocates on its own account, so these budgets hold
// only without it.

package core

import (
	"testing"

	"battsched/internal/taskgraph"
)

// TestEngineAllocBudgets budgets the allocations of one BAS-2 hyperperiod on
// the benchmark system (benchConfig): a one-shot Run under each observer
// sink, with a fresh execution model and seed per run as a caller without an
// engine of its own does, and a Reset+Run of one reused Engine and
// ProfileRecorder, the experiment drivers' steady state. An allocation count
// does not move with runner speed. Each one-shot budget was set at
// floor(1.10 × the count first measured with Go 1.24.0 on linux/amd64), and
// the count measured now sits beside it; the reused budget is the reused
// count plus one, so the per-run Result header is all it may allocate.
func TestEngineAllocBudgets(t *testing.T) {
	cfg := benchConfig(t, nil)
	check := func(name string, budget float64, run func(seed int64) (*Result, error)) {
		t.Helper()
		var seed int64
		got := testing.AllocsPerRun(100, func() {
			seed++
			res, err := run(seed)
			if err != nil {
				t.Fatal(err)
			}
			if res.DeadlineMisses != 0 {
				t.Fatalf("seed %d: %d deadline misses", seed, res.DeadlineMisses)
			}
		})
		t.Logf("%s: %v allocs (budget %v)", name, got, budget)
		if got > budget {
			t.Errorf("%s allocates %v times per run, over its budget of %v", name, got, budget)
		}
	}
	for _, tc := range []struct {
		sink     string
		budget   float64
		observer func() SegmentSink
	}{
		{"Recorder", 110, func() SegmentSink { return NewRecorder() }},              // measured 103
		{"ProfileRecorder", 93, func() SegmentSink { return NewProfileRecorder() }}, // measured 88
		{"Discard", 88, func() SegmentSink { return Discard }},                      // measured 83
	} {
		check("one-shot Run, "+tc.sink, tc.budget, func(seed int64) (*Result, error) {
			c := cfg
			c.Observer = tc.observer()
			c.Execution = taskgraph.NewUniformExecution(0.2, 1.0, seed)
			c.Seed = seed
			return Run(c)
		})
	}

	eng := NewEngine()
	rec := NewProfileRecorder()
	reused := cfg
	reused.Observer = rec
	check("reused Reset+Run", 2, func(seed int64) (*Result, error) { // measured 1
		rec.Reset()
		reused.Seed = seed
		if err := eng.Reset(reused); err != nil {
			return nil, err
		}
		return eng.Run()
	})
}
