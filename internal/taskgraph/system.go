package taskgraph

import (
	"fmt"
	"math"
)

// System is a set of periodic task graphs scheduled together on a single
// DVS-capable processor.
type System struct {
	Graphs []*Graph
}

// NewSystem returns a System containing the given graphs.
func NewSystem(graphs ...*Graph) *System {
	return &System{Graphs: graphs}
}

// Add appends a graph to the system.
func (s *System) Add(g *Graph) { s.Graphs = append(s.Graphs, g) }

// NumGraphs returns the number of graphs in the system.
func (s *System) NumGraphs() int { return len(s.Graphs) }

// TotalNodes returns the total number of nodes across all graphs.
func (s *System) TotalNodes() int {
	var n int
	for _, g := range s.Graphs {
		n += len(g.Nodes)
	}
	return n
}

// Utilization returns the worst-case processor utilisation at frequency fmax:
// the sum over graphs of TotalWCET/(fmax*Period). The paper keeps this at
// 0.70 for the Table 2 experiments.
func (s *System) Utilization(fmax float64) float64 {
	var u float64
	for _, g := range s.Graphs {
		u += g.Utilization(fmax)
	}
	return u
}

// ScaleToUtilization uniformly scales every node's WCET so that the system's
// worst-case utilisation at fmax equals target. It returns the factor applied.
func (s *System) ScaleToUtilization(target, fmax float64) float64 {
	cur := s.Utilization(fmax)
	if cur <= 0 {
		return 1
	}
	f := target / cur
	for _, g := range s.Graphs {
		g.ScaleWCET(f)
	}
	return f
}

// Clone returns a deep copy of the system.
func (s *System) Clone() *System {
	c := &System{Graphs: make([]*Graph, len(s.Graphs))}
	for i, g := range s.Graphs {
		c.Graphs[i] = g.Clone()
	}
	return c
}

// Validate checks every graph, that graph names are unique, and that the
// system is non-empty.
func (s *System) Validate(fmax float64) error {
	if len(s.Graphs) == 0 {
		return ErrEmptySystem
	}
	names := make(map[string]bool, len(s.Graphs))
	for _, g := range s.Graphs {
		if err := g.Validate(); err != nil {
			return err
		}
		if g.Name != "" {
			if names[g.Name] {
				return fmt.Errorf("%w: %q", ErrDuplicateGraph, g.Name)
			}
			names[g.Name] = true
		}
	}
	if fmax > 0 {
		if u := s.Utilization(fmax); u > 1+1e-9 {
			return fmt.Errorf("%w: U=%.3f", ErrOverload, u)
		}
	}
	return nil
}

// Hyperperiod returns the least common multiple of the graph periods. Periods
// are matched on a 1 microsecond grid; if a period is not representable on
// that grid the fallback is the maximum period times the number of graphs,
// which is always a valid (if conservative) simulation horizon.
func (s *System) Hyperperiod() float64 {
	const grid = 1e-6
	l := int64(1)
	ok := true
	for _, g := range s.Graphs {
		p := int64(math.Round(g.Period / grid))
		if p <= 0 || math.Abs(float64(p)*grid-g.Period) > grid/2 {
			ok = false
			break
		}
		l = lcm64(l, p)
		if l <= 0 || l > int64(1e15) { // overflow / absurd hyperperiod guard
			ok = false
			break
		}
	}
	if ok && len(s.Graphs) > 0 {
		return float64(l) * grid
	}
	return s.MaxPeriod() * float64(len(s.Graphs))
}

// MaxPeriod returns the largest period in the system.
func (s *System) MaxPeriod() float64 {
	var m float64
	for _, g := range s.Graphs {
		if g.Period > m {
			m = g.Period
		}
	}
	return m
}

// String implements fmt.Stringer.
func (s *System) String() string {
	return fmt.Sprintf("System(graphs=%d nodes=%d)", len(s.Graphs), s.TotalNodes())
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm64(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	return a / gcd64(a, b) * b
}
