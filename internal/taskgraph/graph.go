package taskgraph

import (
	"errors"
	"fmt"
	"sort"
)

// Common validation errors returned by Graph.Validate and System.Validate.
var (
	ErrEmptyGraph     = errors.New("taskgraph: graph has no nodes")
	ErrCycle          = errors.New("taskgraph: graph contains a cycle")
	ErrBadEdge        = errors.New("taskgraph: edge references unknown node")
	ErrSelfEdge       = errors.New("taskgraph: self edge")
	ErrBadWCET        = errors.New("taskgraph: node WCET must be > 0")
	ErrBadPeriod      = errors.New("taskgraph: period must be > 0")
	ErrDuplicateEdge  = errors.New("taskgraph: duplicate edge")
	ErrBadNodeID      = errors.New("taskgraph: node IDs must be dense and start at 0")
	ErrOverload       = errors.New("taskgraph: system utilisation exceeds 1")
	ErrEmptySystem    = errors.New("taskgraph: system has no graphs")
	ErrDuplicateGraph = errors.New("taskgraph: duplicate graph name")
)

// Graph is a periodic task graph: a DAG of Nodes with precedence Edges, a
// Period, and an implicit relative deadline equal to the period (as assumed
// by the paper).
type Graph struct {
	// Name identifies the graph within a System.
	Name string
	// Nodes are the tasks; Nodes[i].ID == NodeID(i).
	Nodes []Node
	// Edges are precedence constraints between nodes of this graph.
	Edges []Edge
	// Period is the inter-arrival time of instances in seconds. The relative
	// deadline equals the period.
	Period float64

	// derived adjacency, built lazily by ensureAdj; adjEdges records the
	// edge count the cache was built from so appends to Edges made without
	// AddEdge are detected and trigger a rebuild.
	succ     [][]NodeID
	pred     [][]NodeID
	adjEdges int
}

// NewGraph returns an empty graph with the given name and period.
func NewGraph(name string, period float64) *Graph {
	return &Graph{Name: name, Period: period}
}

// AddNode appends a node with the given name and WCET (cycles at f_max) and
// returns its NodeID.
func (g *Graph) AddNode(name string, wcet float64) NodeID {
	id := NodeID(len(g.Nodes))
	g.Nodes = append(g.Nodes, Node{ID: id, Name: name, WCET: wcet})
	g.invalidate()
	return id
}

// AddEdge adds the precedence constraint from -> to.
func (g *Graph) AddEdge(from, to NodeID) {
	g.Edges = append(g.Edges, Edge{From: from, To: to})
	g.invalidate()
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// TotalWCET returns the sum of the worst-case execution requirements of all
// nodes, in cycles at f_max. This is the quantity the paper calls WC_i.
func (g *Graph) TotalWCET() float64 {
	var sum float64
	for _, n := range g.Nodes {
		sum += n.WCET
	}
	return sum
}

// Utilization returns TotalWCET/(fmax*Period): the fraction of the processor
// (running at f_max) this graph requires in the worst case.
func (g *Graph) Utilization(fmax float64) float64 {
	return g.TotalWCET() / (fmax * g.Period)
}

// ScaleWCET multiplies every node's WCET by factor. It is used by workload
// generators to hit a target utilisation.
func (g *Graph) ScaleWCET(factor float64) {
	for i := range g.Nodes {
		g.Nodes[i].WCET *= factor
	}
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{Name: g.Name, Period: g.Period}
	c.Nodes = append([]Node(nil), g.Nodes...)
	c.Edges = append([]Edge(nil), g.Edges...)
	return c
}

// invalidate drops cached adjacency after a mutation.
func (g *Graph) invalidate() {
	g.succ = nil
	g.pred = nil
}

// adjacencyFresh reports whether the cached adjacency (if any) still matches
// g.Edges. It exists for Validate: the lazy length-based staleness check in
// ensureAdj cannot see an in-place mutation of the exported Edges slice that
// keeps its length, so Validate re-verifies edge membership (O(E·degree), no
// allocation) before trusting the cache.
func (g *Graph) adjacencyFresh() bool {
	if g.succ == nil {
		return true // nothing cached: ensureAdj will build from Edges
	}
	if g.adjEdges != len(g.Edges) {
		return true // length change: ensureAdj already detects and rebuilds
	}
	total := 0
	for _, s := range g.succ {
		total += len(s)
	}
	inBounds := 0
	for _, e := range g.Edges {
		if int(e.From) < 0 || int(e.From) >= len(g.succ) || int(e.To) < 0 || int(e.To) >= len(g.succ) {
			continue // Validate reports these; ensureAdj skips them too
		}
		inBounds++
		found := false
		for _, to := range g.succ[e.From] {
			if to == e.To {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return total == inBounds
}

// ensureAdj (re)builds the successor and predecessor adjacency lists.
func (g *Graph) ensureAdj() {
	if g.succ != nil && g.adjEdges == len(g.Edges) {
		return
	}
	g.adjEdges = len(g.Edges)
	n := len(g.Nodes)
	g.succ = make([][]NodeID, n)
	g.pred = make([][]NodeID, n)
	for _, e := range g.Edges {
		if int(e.From) < 0 || int(e.From) >= n || int(e.To) < 0 || int(e.To) >= n {
			continue // Validate reports this; keep adjacency in-bounds.
		}
		g.succ[e.From] = append(g.succ[e.From], e.To)
		g.pred[e.To] = append(g.pred[e.To], e.From)
	}
}

// Successors returns the nodes that directly depend on id.
func (g *Graph) Successors(id NodeID) []NodeID {
	g.ensureAdj()
	return g.succ[id]
}

// Predecessors returns the nodes id directly depends on.
func (g *Graph) Predecessors(id NodeID) []NodeID {
	g.ensureAdj()
	return g.pred[id]
}

// TopologicalOrder returns one topological ordering of the node IDs (Kahn's
// algorithm, smallest ID first among ready nodes so the result is
// deterministic). It returns ErrCycle if the graph is cyclic.
func (g *Graph) TopologicalOrder() ([]NodeID, error) {
	g.ensureAdj()
	n := len(g.Nodes)
	indeg := make([]int, n)
	for _, e := range g.Edges {
		if int(e.To) >= 0 && int(e.To) < n && int(e.From) >= 0 && int(e.From) < n {
			indeg[e.To]++
		}
	}
	ready := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	order := make([]NodeID, 0, n)
	for len(ready) > 0 {
		sort.Ints(ready)
		v := ready[0]
		ready = ready[1:]
		order = append(order, NodeID(v))
		for _, s := range g.succ[v] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, int(s))
			}
		}
	}
	if len(order) != n {
		return nil, ErrCycle
	}
	return order, nil
}

// IsLinearExtension reports whether order is a permutation of all node IDs
// that respects every precedence edge.
func (g *Graph) IsLinearExtension(order []NodeID) bool {
	if len(order) != len(g.Nodes) {
		return false
	}
	pos := make(map[NodeID]int, len(order))
	for i, id := range order {
		if int(id) < 0 || int(id) >= len(g.Nodes) {
			return false
		}
		if _, dup := pos[id]; dup {
			return false
		}
		pos[id] = i
	}
	for _, e := range g.Edges {
		if pos[e.From] > pos[e.To] {
			return false
		}
	}
	return true
}

// Validate checks structural sanity: at least one node, positive period,
// positive WCETs, in-range and non-duplicate edges, and acyclicity.
func (g *Graph) Validate() error {
	if len(g.Nodes) == 0 {
		return ErrEmptyGraph
	}
	if g.Period <= 0 {
		return fmt.Errorf("%w: graph %q has period %v", ErrBadPeriod, g.Name, g.Period)
	}
	for i, n := range g.Nodes {
		if int(n.ID) != i {
			return fmt.Errorf("%w: node %d has ID %d", ErrBadNodeID, i, int(n.ID))
		}
		if n.WCET <= 0 {
			return fmt.Errorf("%w: node %s", ErrBadWCET, n)
		}
	}
	seen := make(map[Edge]bool, len(g.Edges))
	for _, e := range g.Edges {
		if int(e.From) < 0 || int(e.From) >= len(g.Nodes) || int(e.To) < 0 || int(e.To) >= len(g.Nodes) {
			return fmt.Errorf("%w: %s in graph %q", ErrBadEdge, e, g.Name)
		}
		if e.From == e.To {
			return fmt.Errorf("%w: %s in graph %q", ErrSelfEdge, e, g.Name)
		}
		if seen[e] {
			return fmt.Errorf("%w: %s in graph %q", ErrDuplicateEdge, e, g.Name)
		}
		seen[e] = true
	}
	// Keep a still-valid adjacency cache — repeated Validate calls (one per
	// simulation) reuse it instead of rebuilding per run — but drop it when
	// an in-place Edges mutation made it stale.
	if !g.adjacencyFresh() {
		g.invalidate()
	}
	if _, err := g.TopologicalOrder(); err != nil {
		return fmt.Errorf("graph %q: %w", g.Name, err)
	}
	return nil
}

// String implements fmt.Stringer.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(%s nodes=%d edges=%d period=%g)", g.Name, len(g.Nodes), len(g.Edges), g.Period)
}
