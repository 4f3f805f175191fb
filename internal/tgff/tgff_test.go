package tgff

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"battsched/internal/taskgraph"
)

func TestDefaultConfigIsValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
}

func TestConfigValidateRejectsBadConfigs(t *testing.T) {
	base := DefaultConfig()
	cases := []func(Config) Config{
		func(c Config) Config { c.MinNodes = 0; return c },
		func(c Config) Config { c.MaxNodes = c.MinNodes - 1; return c },
		func(c Config) Config { c.EdgeProbability = -0.1; return c },
		func(c Config) Config { c.EdgeProbability = 1.1; return c },
		func(c Config) Config { c.MinWCET = 0; return c },
		func(c Config) Config { c.MaxWCET = c.MinWCET / 2; return c },
		func(c Config) Config { c.Periods = nil; return c },
		func(c Config) Config { c.Periods = []float64{0}; return c },
		func(c Config) Config { c.Layers = -1; return c },
	}
	for i, mut := range cases {
		if err := mut(base).Validate(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("case %d: expected ErrBadConfig, got %v", i, err)
		}
	}
}

func TestGenerateRequiresRNG(t *testing.T) {
	if _, err := Generate(DefaultConfig(), "g", nil); !errors.Is(err, ErrNilRNG) {
		t.Fatalf("err = %v, want ErrNilRNG", err)
	}
	if _, err := GenerateWithNodes(DefaultConfig(), "g", 5, nil); !errors.Is(err, ErrNilRNG) {
		t.Fatalf("err = %v, want ErrNilRNG", err)
	}
}

func TestGenerateWithNodesExactCount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 20; n++ {
		g, err := GenerateWithNodes(DefaultConfig(), "g", n, rng)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if g.NumNodes() != n {
			t.Fatalf("n=%d: got %d nodes", n, g.NumNodes())
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("n=%d: invalid graph: %v", n, err)
		}
	}
}

func TestGenerateNodeCountWithinBounds(t *testing.T) {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		g, err := Generate(cfg, "g", rng)
		if err != nil {
			t.Fatal(err)
		}
		if g.NumNodes() < cfg.MinNodes || g.NumNodes() > cfg.MaxNodes {
			t.Fatalf("node count %d outside [%d,%d]", g.NumNodes(), cfg.MinNodes, cfg.MaxNodes)
		}
	}
}

func TestGeneratedWCETsWithinBounds(t *testing.T) {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(3))
	g, err := GenerateWithNodes(cfg, "g", 15, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes {
		if n.WCET < cfg.MinWCET || n.WCET > cfg.MaxWCET {
			t.Fatalf("WCET %v outside [%v,%v]", n.WCET, cfg.MinWCET, cfg.MaxWCET)
		}
	}
}

func TestGeneratedPeriodFromCandidates(t *testing.T) {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(4))
	g, err := Generate(cfg, "g", rng)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range cfg.Periods {
		if g.Period == p {
			found = true
		}
	}
	if !found {
		t.Fatalf("period %v not among candidates %v", g.Period, cfg.Periods)
	}
}

func TestDegreeBoundsRespected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInDegree = 2
	cfg.MaxOutDegree = 2
	cfg.EdgeProbability = 1.0
	rng := rand.New(rand.NewSource(5))
	g, err := GenerateWithNodes(cfg, "g", 15, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes {
		if d := len(g.Predecessors(n.ID)); d > 2 {
			t.Fatalf("node %v in-degree %d > 2", n.ID, d)
		}
		if d := len(g.Successors(n.ID)); d > 2 {
			t.Fatalf("node %v out-degree %d > 2", n.ID, d)
		}
	}
}

// TestGenerateIndependentHasNoEdges: one layer without edge probability is n
// independent tasks sharing one deadline.
func TestGenerateIndependentHasNoEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cfg := DefaultConfig()
	cfg.EdgeProbability, cfg.Layers = 0, 1
	g, err := GenerateWithNodes(cfg, "g", 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Edges) != 0 {
		t.Fatalf("independent graph has %d edges", len(g.Edges))
	}
	if g.NumNodes() != 10 {
		t.Fatalf("node count = %d", g.NumNodes())
	}
}

func TestGenerateSystemUtilization(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const fmax = 1e9
	sys, err := GenerateSystem(DefaultConfig(), 5, 0.7, fmax, rng)
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumGraphs() != 5 {
		t.Fatalf("graphs = %d, want 5", sys.NumGraphs())
	}
	if u := sys.Utilization(fmax); math.Abs(u-0.7) > 1e-9 {
		t.Fatalf("utilization = %v, want 0.7", u)
	}
}

func TestGenerateSystemWithoutScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	sys, err := GenerateSystem(DefaultConfig(), 2, 0, 1e9, rng)
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumGraphs() != 2 {
		t.Fatalf("graphs = %d", sys.NumGraphs())
	}
}

func TestGenerateSystemRejectsBadCount(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	if _, err := GenerateSystem(DefaultConfig(), 0, 0.5, 1e9, rng); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig", err)
	}
}

func TestStripPrecedence(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	sys, err := GenerateSystem(DefaultConfig(), 3, 0.7, 1e9, rng)
	if err != nil {
		t.Fatal(err)
	}
	stripped := StripPrecedence(sys)
	for _, g := range stripped.Graphs {
		if len(g.Edges) != 0 {
			t.Fatalf("stripped graph still has edges")
		}
	}
	// Original untouched, same utilisation.
	hasEdges := false
	for _, g := range sys.Graphs {
		if len(g.Edges) > 0 {
			hasEdges = true
		}
	}
	if !hasEdges {
		t.Skip("random system happened to have no edges")
	}
	if math.Abs(stripped.Utilization(1e9)-sys.Utilization(1e9)) > 1e-12 {
		t.Fatal("stripping changed utilisation")
	}
}

func TestDeterministicForSeed(t *testing.T) {
	gen := func(seed int64) *taskgraph.System {
		rng := rand.New(rand.NewSource(seed))
		sys, err := GenerateSystem(DefaultConfig(), 4, 0.7, 1e9, rng)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	a, b := gen(11), gen(11)
	if a.TotalNodes() != b.TotalNodes() {
		t.Fatal("same seed produced different systems")
	}
	for i := range a.Graphs {
		if a.Graphs[i].TotalWCET() != b.Graphs[i].TotalWCET() || len(a.Graphs[i].Edges) != len(b.Graphs[i].Edges) {
			t.Fatal("same seed produced different graphs")
		}
	}
}

// Property: every generated graph is a valid DAG whose layered construction
// admits a topological order, for any seed and node count in [1, 30].
func TestGenerateAlwaysValidDAGProperty(t *testing.T) {
	cfg := DefaultConfig()
	f := func(seed int64, nRaw uint8) bool {
		n := 1 + int(nRaw)%30
		rng := rand.New(rand.NewSource(seed))
		g, err := GenerateWithNodes(cfg, "p", n, rng)
		if err != nil {
			return false
		}
		if g.Validate() != nil {
			return false
		}
		order, err := g.TopologicalOrder()
		if err != nil {
			return false
		}
		return g.IsLinearExtension(order)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestIntSqrt(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 3: 1, 4: 2, 8: 2, 9: 3, 15: 3, 16: 4, 30: 5}
	for n, want := range cases {
		if got := intSqrt(n); got != want {
			t.Errorf("intSqrt(%d) = %d, want %d", n, got, want)
		}
	}
}
