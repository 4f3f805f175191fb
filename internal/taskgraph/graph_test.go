package taskgraph

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func diamondGraph(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph("diamond", 10)
	a := g.AddNode("a", 100)
	b := g.AddNode("b", 200)
	c := g.AddNode("c", 300)
	d := g.AddNode("d", 400)
	g.AddEdge(a, b)
	g.AddEdge(a, c)
	g.AddEdge(b, d)
	g.AddEdge(c, d)
	if err := g.Validate(); err != nil {
		t.Fatalf("diamond graph invalid: %v", err)
	}
	return g
}

func TestAddNodeAssignsDenseIDs(t *testing.T) {
	g := NewGraph("g", 1)
	for i := 0; i < 5; i++ {
		id := g.AddNode("", 10)
		if int(id) != i {
			t.Fatalf("node %d got ID %d", i, int(id))
		}
	}
	if g.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d, want 5", g.NumNodes())
	}
}

func TestValidateRejectsEmptyGraph(t *testing.T) {
	g := NewGraph("empty", 1)
	if err := g.Validate(); !errors.Is(err, ErrEmptyGraph) {
		t.Fatalf("Validate = %v, want ErrEmptyGraph", err)
	}
}

func TestValidateRejectsBadPeriod(t *testing.T) {
	g := NewGraph("g", 0)
	g.AddNode("", 10)
	if err := g.Validate(); !errors.Is(err, ErrBadPeriod) {
		t.Fatalf("Validate = %v, want ErrBadPeriod", err)
	}
	g.Period = -1
	if err := g.Validate(); !errors.Is(err, ErrBadPeriod) {
		t.Fatalf("Validate = %v, want ErrBadPeriod", err)
	}
}

func TestValidateRejectsBadWCET(t *testing.T) {
	g := NewGraph("g", 1)
	g.AddNode("", 0)
	if err := g.Validate(); !errors.Is(err, ErrBadWCET) {
		t.Fatalf("Validate = %v, want ErrBadWCET", err)
	}
}

func TestValidateRejectsSelfEdge(t *testing.T) {
	g := NewGraph("g", 1)
	a := g.AddNode("", 10)
	g.AddEdge(a, a)
	if err := g.Validate(); !errors.Is(err, ErrSelfEdge) {
		t.Fatalf("Validate = %v, want ErrSelfEdge", err)
	}
}

func TestValidateRejectsOutOfRangeEdge(t *testing.T) {
	g := NewGraph("g", 1)
	a := g.AddNode("", 10)
	g.AddEdge(a, NodeID(7))
	if err := g.Validate(); !errors.Is(err, ErrBadEdge) {
		t.Fatalf("Validate = %v, want ErrBadEdge", err)
	}
}

func TestValidateRejectsDuplicateEdge(t *testing.T) {
	g := NewGraph("g", 1)
	a := g.AddNode("", 10)
	b := g.AddNode("", 10)
	g.AddEdge(a, b)
	g.AddEdge(a, b)
	if err := g.Validate(); !errors.Is(err, ErrDuplicateEdge) {
		t.Fatalf("Validate = %v, want ErrDuplicateEdge", err)
	}
}

func TestValidateRejectsCycle(t *testing.T) {
	g := NewGraph("g", 1)
	a := g.AddNode("", 10)
	b := g.AddNode("", 10)
	c := g.AddNode("", 10)
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	g.AddEdge(c, a)
	if err := g.Validate(); !errors.Is(err, ErrCycle) {
		t.Fatalf("Validate = %v, want ErrCycle", err)
	}
}

// validateEdgesReference is Validate's duplicate-edge and cycle checks as
// they were before Validate stopped building a map and a sorted topological
// order: an edge seen before is a duplicate, and TopologicalOrder finds a
// cycle. It is kept only as the reference Validate is pinned against, for
// graphs whose edges are in range and not self edges.
func validateEdgesReference(g *Graph) error {
	seen := make(map[Edge]bool, len(g.Edges))
	for _, e := range g.Edges {
		if seen[e] {
			return ErrDuplicateEdge
		}
		seen[e] = true
	}
	if _, err := g.TopologicalOrder(); err != nil {
		return err
	}
	return nil
}

// TestValidateMatchesReference pins Validate's duplicate-edge and cycle
// detection against the reference on random graphs of 1 to 20 nodes whose
// edges may repeat and may close cycles.
func TestValidateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	faults := map[error]int{}
	for trial := 0; trial < 5000; trial++ {
		n := 1 + rng.Intn(20)
		g := NewGraph("p", 1)
		for i := 0; i < n; i++ {
			g.AddNode("", 1)
		}
		back := rng.Intn(3) == 0 // edges may point backwards and close cycles
		for e := rng.Intn(2 * n); e > 0 && n > 1; e-- {
			from, to := rng.Intn(n), rng.Intn(n)
			if from == to {
				continue
			}
			if from > to && !back {
				from, to = to, from
			}
			g.AddEdge(NodeID(from), NodeID(to))
		}
		want := validateEdgesReference(g)
		got := g.Validate()
		if (want == nil) != (got == nil) || (want != nil && !errors.Is(got, want)) {
			t.Fatalf("trial %d: Validate = %v, reference %v (edges %v)", trial, got, want, g.Edges)
		}
		faults[want]++
	}
	if faults[nil] == 0 || faults[ErrDuplicateEdge] == 0 || faults[ErrCycle] == 0 {
		t.Fatalf("graphs by reference outcome %v, want valid ones, duplicates and cycles", faults)
	}
}

func TestTotalWCETAndUtilization(t *testing.T) {
	g := diamondGraph(t)
	if got := g.TotalWCET(); got != 1000 {
		t.Fatalf("TotalWCET = %v, want 1000", got)
	}
	// 1000 cycles over a period of 10 s at 100 Hz => U = 1.
	if got := g.Utilization(100); got != 1.0 {
		t.Fatalf("Utilization = %v, want 1", got)
	}
}

func TestScaleWCET(t *testing.T) {
	g := diamondGraph(t)
	g.ScaleWCET(2)
	if got := g.TotalWCET(); got != 2000 {
		t.Fatalf("TotalWCET after scale = %v, want 2000", got)
	}
}

func TestSuccessorsPredecessorsSourcesSinks(t *testing.T) {
	g := diamondGraph(t)
	if got := g.Successors(0); len(got) != 2 {
		t.Fatalf("Successors(a) = %v, want 2 nodes", got)
	}
	if got := g.Predecessors(3); len(got) != 2 {
		t.Fatalf("Predecessors(d) = %v, want 2 nodes", got)
	}
	// a is the only source and d the only sink.
	for id := range g.Nodes {
		source, sink := len(g.Predecessors(NodeID(id))) == 0, len(g.Successors(NodeID(id))) == 0
		if source != (id == 0) || sink != (id == 3) {
			t.Fatalf("node %d: source %v, sink %v; want only node 0 a source and node 3 a sink", id, source, sink)
		}
	}
}

func TestTopologicalOrderRespectsEdges(t *testing.T) {
	g := diamondGraph(t)
	order, err := g.TopologicalOrder()
	if err != nil {
		t.Fatalf("TopologicalOrder: %v", err)
	}
	if !g.IsLinearExtension(order) {
		t.Fatalf("topological order %v is not a linear extension", order)
	}
	if order[0] != 0 || order[len(order)-1] != 3 {
		t.Fatalf("diamond order = %v, want a first and d last", order)
	}
}

func TestIsLinearExtensionRejectsBadOrders(t *testing.T) {
	g := diamondGraph(t)
	cases := [][]NodeID{
		{3, 1, 2, 0}, // reversed
		{0, 1, 2},    // short
		{0, 1, 1, 3}, // duplicate
		{0, 1, 2, 7}, // out of range
		{1, 0, 2, 3}, // b before a
		{0, 3, 1, 2}, // d before its predecessors
	}
	for i, c := range cases {
		if g.IsLinearExtension(c) {
			t.Errorf("case %d: %v accepted as linear extension", i, c)
		}
	}
	if !g.IsLinearExtension([]NodeID{0, 2, 1, 3}) {
		t.Errorf("valid extension rejected")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := diamondGraph(t)
	c := g.Clone()
	c.Nodes[0].WCET = 999
	c.AddEdge(1, 2)
	if g.Nodes[0].WCET == 999 {
		t.Fatal("clone shares node storage with original")
	}
	if len(g.Edges) == len(c.Edges) {
		t.Fatal("clone shares edge storage with original")
	}
}

func TestAdjacencyInvalidatedAfterMutation(t *testing.T) {
	g := NewGraph("g", 1)
	a := g.AddNode("", 10)
	b := g.AddNode("", 10)
	if got := g.Successors(a); len(got) != 0 {
		t.Fatalf("Successors before edge = %v", got)
	}
	g.AddEdge(a, b)
	if got := g.Successors(a); len(got) != 1 || got[0] != b {
		t.Fatalf("Successors after edge = %v, want [%d]", got, b)
	}
}

// Property: for random DAGs built with edges only from lower to higher IDs,
// the topological order is always a valid linear extension and contains every
// node exactly once.
func TestTopologicalOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		g := NewGraph("p", 1)
		for i := 0; i < n; i++ {
			g.AddNode("", 1+rng.Float64()*100)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.3 {
					g.AddEdge(NodeID(i), NodeID(j))
				}
			}
		}
		if err := g.Validate(); err != nil {
			return false
		}
		order, err := g.TopologicalOrder()
		if err != nil {
			return false
		}
		return g.IsLinearExtension(order)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeAndEdgeString(t *testing.T) {
	n := Node{ID: 3, Name: "fft", WCET: 1000}
	if s := n.String(); s == "" {
		t.Fatal("empty node string")
	}
	unnamed := Node{ID: 1, WCET: 10}
	if s := unnamed.String(); s == "" {
		t.Fatal("empty unnamed node string")
	}
	e := Edge{From: 1, To: 2}
	if e.String() != "1->2" {
		t.Fatalf("edge string = %q", e.String())
	}
}

func TestGraphString(t *testing.T) {
	g := diamondGraph(t)
	if g.String() == "" {
		t.Fatal("empty graph string")
	}
}

// TestValidateDetectsInPlaceEdgeMutation pins the staleness contract: the
// adjacency cache survives repeated Validate calls, but an in-place mutation
// of the exported Edges slice (same length, different content) must be
// detected so Validate judges the current edges, not the cached ones.
func TestValidateDetectsInPlaceEdgeMutation(t *testing.T) {
	g := NewGraph("T", 1)
	g.AddNode("a", 1)
	g.AddNode("b", 1)
	g.AddNode("c", 1)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.Successors(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Successors(0) = %v", got)
	}
	// Replace an edge in place, creating a cycle a->b->a.
	g.Edges[1] = Edge{From: 1, To: 0}
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted a cycle introduced by in-place edge mutation")
	}
	// And a legal in-place replacement must be reflected in the adjacency.
	g.Edges[1] = Edge{From: 0, To: 2}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.Successors(0); len(got) != 2 {
		t.Fatalf("Successors(0) after mutation = %v, want a->b and a->c", got)
	}
}
