// Package tgff generates random periodic task graphs. The paper uses
// Princeton's "Task Graphs For Free" (TGFF) generator with random
// dependencies and uniformly distributed worst-case computations; this
// package is the in-repo substitute: a seeded generator producing layered
// random DAGs with bounded fan-in/fan-out, uniform WCETs and periods drawn
// from a configurable candidate set, with a helper that rescales a generated
// system to an exact target utilisation (the paper uses 70 %).
package tgff

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"

	"battsched/internal/taskgraph"
)

// Config controls graph generation.
type Config struct {
	// MinNodes and MaxNodes bound the (uniformly drawn) node count per graph.
	// The paper's graphs have 5 to 15 nodes.
	MinNodes int
	MaxNodes int
	// EdgeProbability is the probability of adding a precedence edge between
	// a pair of nodes in adjacent layers.
	EdgeProbability float64
	// MaxInDegree and MaxOutDegree bound the per-node degree (0 = unbounded).
	MaxInDegree  int
	MaxOutDegree int
	// MinWCET and MaxWCET bound the uniformly drawn worst-case execution
	// requirement per node, in cycles at f_max.
	MinWCET float64
	MaxWCET float64
	// Periods is the candidate set of periods (seconds); each graph picks one
	// uniformly at random.
	Periods []float64
	// Layers (0 = auto) forces the number of precedence layers; when 0 the
	// generator uses roughly sqrt(n) layers, which yields the mix of chains
	// and parallelism typical of TGFF output.
	Layers int
}

// DefaultConfig returns the configuration used by the paper's experiments:
// 5–15 nodes per graph, uniform WCETs, random dependencies, periods in the
// tens-of-milliseconds range (harmonically related so hyperperiods stay
// small).
func DefaultConfig() Config {
	return Config{
		MinNodes:        5,
		MaxNodes:        15,
		EdgeProbability: 0.4,
		MaxInDegree:     3,
		MaxOutDegree:    3,
		MinWCET:         1e6,  // 1 Mcycle  (1 ms at 1 GHz)
		MaxWCET:         10e6, // 10 Mcycles
		Periods:         []float64{0.050, 0.100, 0.200, 0.400},
	}
}

// Errors returned by the generator.
var (
	ErrBadConfig = errors.New("tgff: invalid configuration")
	ErrNilRNG    = errors.New("tgff: nil RNG")
)

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.MinNodes < 1 || c.MaxNodes < c.MinNodes:
		return fmt.Errorf("%w: node bounds [%d,%d]", ErrBadConfig, c.MinNodes, c.MaxNodes)
	case c.EdgeProbability < 0 || c.EdgeProbability > 1:
		return fmt.Errorf("%w: edge probability %v", ErrBadConfig, c.EdgeProbability)
	case c.MinWCET <= 0 || c.MaxWCET < c.MinWCET:
		return fmt.Errorf("%w: WCET bounds [%v,%v]", ErrBadConfig, c.MinWCET, c.MaxWCET)
	case len(c.Periods) == 0:
		return fmt.Errorf("%w: no candidate periods", ErrBadConfig)
	case c.Layers < 0:
		return fmt.Errorf("%w: negative layer count", ErrBadConfig)
	}
	for _, p := range c.Periods {
		if p <= 0 {
			return fmt.Errorf("%w: period %v", ErrBadConfig, p)
		}
	}
	return nil
}

// Generate produces one random task graph with the given name.
func Generate(cfg Config, name string, rng *rand.Rand) (*taskgraph.Graph, error) {
	if rng == nil {
		return nil, ErrNilRNG
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.MinNodes
	if cfg.MaxNodes > cfg.MinNodes {
		n += rng.Intn(cfg.MaxNodes - cfg.MinNodes + 1)
	}
	return GenerateWithNodes(cfg, name, n, rng)
}

// GenerateWithNodes produces one random task graph with exactly n nodes. Its
// edges run from earlier to later layers, at most one per pair of nodes, so
// the graph is a valid DAG by construction and is not validated here;
// GenerateSystem validates the systems it builds.
func GenerateWithNodes(cfg Config, name string, n int, rng *rand.Rand) (*taskgraph.Graph, error) {
	if rng == nil {
		return nil, ErrNilRNG
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("%w: %d nodes", ErrBadConfig, n)
	}
	period := cfg.Periods[rng.Intn(len(cfg.Periods))]
	g := taskgraph.NewGraph(name, period)
	for i := 0; i < n; i++ {
		wc := cfg.MinWCET + rng.Float64()*(cfg.MaxWCET-cfg.MinWCET)
		g.AddNode(name+".n"+strconv.Itoa(i), wc)
	}

	// Assign nodes to layers; edges only go from earlier to later layers so
	// the graph is a DAG by construction.
	layers := cfg.Layers
	if layers <= 0 {
		layers = intSqrt(n)
		if layers < 1 {
			layers = 1
		}
	}
	if layers > n {
		layers = n
	}
	layerOf := make([]int, n)
	// Guarantee every layer is non-empty, then spread the rest randomly.
	perm := rng.Perm(n)
	for l := 0; l < layers; l++ {
		layerOf[perm[l]] = l
	}
	for i := layers; i < n; i++ {
		layerOf[perm[i]] = rng.Intn(layers)
	}

	inDeg := make([]int, n)
	outDeg := make([]int, n)
	addEdge := func(from, to int) bool {
		if cfg.MaxOutDegree > 0 && outDeg[from] >= cfg.MaxOutDegree {
			return false
		}
		if cfg.MaxInDegree > 0 && inDeg[to] >= cfg.MaxInDegree {
			return false
		}
		g.AddEdge(taskgraph.NodeID(from), taskgraph.NodeID(to))
		outDeg[from]++
		inDeg[to]++
		return true
	}
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			if layerOf[from] >= layerOf[to] {
				continue
			}
			if layerOf[to]-layerOf[from] == 1 && rng.Float64() < cfg.EdgeProbability {
				addEdge(from, to)
			}
		}
	}
	// Connect isolated later-layer nodes to some predecessor layer node so the
	// graph is not a trivial collection of independent tasks (unless it has a
	// single layer).
	for to := 0; to < n; to++ {
		if layerOf[to] == 0 || inDeg[to] > 0 {
			continue
		}
		candidates := make([]int, 0, n)
		for from := 0; from < n; from++ {
			if layerOf[from] < layerOf[to] {
				candidates = append(candidates, from)
			}
		}
		rng.Shuffle(len(candidates), func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
		for _, from := range candidates {
			if addEdge(from, to) {
				break
			}
		}
	}
	return g, nil
}

// GenerateSystem produces numGraphs random task graphs and scales their WCETs
// so that the worst-case utilisation at fmax equals utilization. With
// utilization <= 0 no scaling is applied.
func GenerateSystem(cfg Config, numGraphs int, utilization, fmax float64, rng *rand.Rand) (*taskgraph.System, error) {
	if numGraphs < 1 {
		return nil, fmt.Errorf("%w: %d graphs", ErrBadConfig, numGraphs)
	}
	sys := taskgraph.NewSystem()
	for i := 0; i < numGraphs; i++ {
		g, err := Generate(cfg, "T"+strconv.Itoa(i+1), rng)
		if err != nil {
			return nil, err
		}
		sys.Add(g)
	}
	if utilization > 0 && fmax > 0 {
		sys.ScaleToUtilization(utilization, fmax)
	}
	if err := sys.Validate(0); err != nil {
		return nil, err
	}
	return sys, nil
}

// StripPrecedence returns a copy of the system with all precedence edges
// removed (every node becomes independently schedulable). This is the
// transformation the paper applies to obtain the near-optimal reference of
// Figure 6.
func StripPrecedence(sys *taskgraph.System) *taskgraph.System {
	c := sys.Clone()
	for _, g := range c.Graphs {
		g.Edges = nil
	}
	return c
}

func intSqrt(n int) int {
	i := 0
	for (i+1)*(i+1) <= n {
		i++
	}
	return i
}
