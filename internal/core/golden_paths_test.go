package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"battsched/internal/dvs"
	"battsched/internal/priority"
	"battsched/internal/taskgraph"
	"battsched/internal/tgff"
)

// TestGoldenLargeGraphs pins the engine on graphs of 65 to 130 nodes, whose
// ready sets span two or three 64-bit words, under every Table 2 scheme and
// every frequency mode. The paper's graphs have at most 15 nodes, so no
// other golden reaches a node index past 63.
func TestGoldenLargeGraphs(t *testing.T) {
	cfg := tgff.DefaultConfig()
	cfg.MinNodes, cfg.MaxNodes = 65, 130
	cfg.MinWCET, cfg.MaxWCET = 0.1e6, 1e6
	rng := rand.New(rand.NewSource(65))
	sys, err := tgff.GenerateSystem(cfg, 3, 0.7, 1e9, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range sys.Graphs {
		if n := g.NumNodes(); n < 65 || n > 130 {
			t.Fatalf("graph %s has %d nodes, want 65 to 130", g.Name, n)
		}
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
	var b strings.Builder
	for _, s := range schemes {
		for _, mode := range []FrequencyMode{ContinuousFrequency, DiscreteFrequency, DiscreteCeilFrequency} {
			res, err := Run(Config{
				System:        sys,
				DVS:           s.alg(),
				Priority:      s.prio(),
				ReadyPolicy:   s.policy,
				FrequencyMode: mode,
				Hyperperiods:  1,
				Seed:          11,
				Observer:      NewProfileRecorder(),
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", s.name, mode, err)
			}
			fmt.Fprintf(&b, "=== %s %s ===\n%s", s.name, mode, goldenResult(res))
		}
	}
	checkGolden(t, "engine_large_graphs", b.String())
}

// TestGoldenOverlappingInstances pins pUBS under AllReleased on runs that
// miss deadlines: ccEDF with the paper's feasibility check, near-worst-case
// execution and utilisation 0.95, the reproducer of the feasibility gap that
// ROADMAP.md records. A missed instance overlaps the next instance of its
// graph, so a node's completion in the older instance changes the history
// estimate the newer instance's copy of that node is ranked by. The sound
// feasibility check planned there removes these misses and will regenerate
// this golden.
func TestGoldenOverlappingInstances(t *testing.T) {
	var b strings.Builder
	for _, seed := range []int64{6, 19, 31} {
		rng := rand.New(rand.NewSource(seed))
		sys, err := tgff.GenerateSystem(tgff.DefaultConfig(), 6, 0.95, 1e9, rng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{
			System:        sys,
			DVS:           dvs.NewCCEDF(),
			Priority:      priority.NewPUBS(),
			ReadyPolicy:   AllReleased,
			FrequencyMode: DiscreteFrequency,
			Execution:     taskgraph.NewUniformExecution(0.999, 1.0, seed),
			Hyperperiods:  2,
			Seed:          seed,
			Observer:      NewProfileRecorder(),
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.DeadlineMisses == 0 {
			t.Fatalf("seed %d: no deadline miss, so no two instances of a graph overlap", seed)
		}
		fmt.Fprintf(&b, "=== seed %d ===\n%s", seed, goldenResult(res))
	}
	checkGolden(t, "engine_overlapping_instances", b.String())
}
