package core

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"battsched/internal/dvs"
	"battsched/internal/priority"
	"battsched/internal/tgff"
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

// goldenResult renders every numeric field of a Result with round-trip float
// precision, so any behavioural change of the engine shows up byte-for-byte.
func goldenResult(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "horizon=%.17g busy=%.17g idle=%.17g\n", r.Horizon, r.BusyTime, r.IdleTime)
	fmt.Fprintf(&b, "energyBattery=%.17g energyProcessor=%.17g\n", r.EnergyBattery, r.EnergyProcessor)
	fmt.Fprintf(&b, "cycles=%.17g avgFreq=%.17g\n", r.ExecutedCycles, r.AverageFrequency)
	fmt.Fprintf(&b, "jobs=%d/%d nodes=%d misses=%d preempt=%d outOfOrder=%d feasRej=%d decisions=%d\n",
		r.JobsReleased, r.JobsCompleted, r.NodesCompleted, r.DeadlineMisses,
		r.Preemptions, r.OutOfOrderExecutions, r.FeasibilityRejections, r.SchedulingDecisions)
	if r.Profile != nil {
		fmt.Fprintf(&b, "profile: segments=%d duration=%.17g charge=%.17g peak=%.17g\n",
			len(r.Profile.Segments), r.Profile.Duration(), r.Profile.Charge(), r.Profile.PeakCurrent())
	}
	if r.Trace != nil {
		var cycles, charge float64
		for _, s := range r.Trace.Slices {
			if !s.Idle {
				cycles += s.Frequency * s.Duration
			}
			charge += s.Current * s.Duration
		}
		fmt.Fprintf(&b, "trace: slices=%d busy=%.17g idle=%.17g cycles=%.17g charge=%.17g\n",
			len(r.Trace.Slices), r.Trace.BusyTime(), r.Trace.IdleTime(), cycles, charge)
	}
	for _, g := range r.PerGraph {
		fmt.Fprintf(&b, "graph %d %s: jobs=%d misses=%d maxResp=%.17g avgResp=%.17g avgLaxity=%.17g\n",
			g.GraphIndex, g.Name, g.Jobs, g.Misses, g.MaxResponse, g.AvgResponse, g.AvgLaxity)
	}
	return b.String()
}

// TestGoldenEngineSchemes pins the exact behaviour of the engine across every
// paper scheme and every frequency mode at a fixed seed: the refactored
// engine must produce byte-identical results.
func TestGoldenEngineSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sys, err := tgff.GenerateSystem(tgff.DefaultConfig(), 4, 0.7, 1e9, rng)
	if err != nil {
		t.Fatal(err)
	}

	schemes := []struct {
		name   string
		alg    func() dvs.Algorithm
		prio   func() priority.Function
		policy ReadyPolicy
	}{
		{"edf", func() dvs.Algorithm { return dvs.NewNoDVS() }, func() priority.Function { return priority.NewRandom() }, MostImminentOnly},
		{"ccedf", func() dvs.Algorithm { return dvs.NewCCEDF() }, func() priority.Function { return priority.NewRandom() }, MostImminentOnly},
		{"laedf", func() dvs.Algorithm { return dvs.NewLAEDF() }, func() priority.Function { return priority.NewRandom() }, MostImminentOnly},
		{"bas1", func() dvs.Algorithm { return dvs.NewLAEDF() }, func() priority.Function { return priority.NewPUBS() }, MostImminentOnly},
		{"bas2", func() dvs.Algorithm { return dvs.NewLAEDF() }, func() priority.Function { return priority.NewPUBS() }, AllReleased},
	}
	modes := []struct {
		name string
		mode FrequencyMode
	}{
		{"continuous", ContinuousFrequency},
		{"discrete", DiscreteFrequency},
		{"discrete-ceil", DiscreteCeilFrequency},
	}

	var b strings.Builder
	for _, s := range schemes {
		for _, m := range modes {
			res, err := Run(Config{
				System:        sys.Clone(),
				DVS:           s.alg(),
				Priority:      s.prio(),
				ReadyPolicy:   s.policy,
				FrequencyMode: m.mode,
				Hyperperiods:  2,
				Seed:          7,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", s.name, m.name, err)
			}
			fmt.Fprintf(&b, "=== %s %s ===\n%s", s.name, m.name, goldenResult(res))
		}
	}
	checkGolden(t, "engine_schemes", b.String())
}
