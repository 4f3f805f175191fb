package taskgraph

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

func twoGraphSystem(t *testing.T) *System {
	t.Helper()
	g1 := NewGraph("T1", 0.05)
	g1.AddNode("a", 5e6)
	g1.AddNode("b", 5e6)
	g1.AddEdge(0, 1)
	g2 := NewGraph("T2", 0.1)
	g2.AddNode("x", 10e6)
	sys := NewSystem(g1, g2)
	if err := sys.Validate(1e9); err != nil {
		t.Fatalf("system invalid: %v", err)
	}
	return sys
}

func TestSystemUtilization(t *testing.T) {
	sys := twoGraphSystem(t)
	// U = 10e6/(1e9*0.05) + 10e6/(1e9*0.1) = 0.2 + 0.1 = 0.3
	if got := sys.Utilization(1e9); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("Utilization = %v, want 0.3", got)
	}
}

func TestScaleToUtilization(t *testing.T) {
	sys := twoGraphSystem(t)
	factor := sys.ScaleToUtilization(0.7, 1e9)
	if math.Abs(sys.Utilization(1e9)-0.7) > 1e-9 {
		t.Fatalf("Utilization after scaling = %v, want 0.7", sys.Utilization(1e9))
	}
	if math.Abs(factor-0.7/0.3) > 1e-9 {
		t.Fatalf("factor = %v, want %v", factor, 0.7/0.3)
	}
}

func TestScaleToUtilizationEmptyIsNoop(t *testing.T) {
	sys := NewSystem()
	if f := sys.ScaleToUtilization(0.5, 1e9); f != 1 {
		t.Fatalf("factor = %v, want 1", f)
	}
}

func TestSystemValidateRejectsEmpty(t *testing.T) {
	sys := NewSystem()
	if err := sys.Validate(1e9); !errors.Is(err, ErrEmptySystem) {
		t.Fatalf("Validate = %v, want ErrEmptySystem", err)
	}
}

func TestSystemValidateRejectsDuplicateNames(t *testing.T) {
	g1 := NewGraph("T", 1)
	g1.AddNode("", 10)
	g2 := NewGraph("T", 1)
	g2.AddNode("", 10)
	sys := NewSystem(g1, g2)
	if err := sys.Validate(0); !errors.Is(err, ErrDuplicateGraph) {
		t.Fatalf("Validate = %v, want ErrDuplicateGraph", err)
	}
}

func TestSystemValidateRejectsOverload(t *testing.T) {
	g := NewGraph("T", 1)
	g.AddNode("", 2e9) // 2e9 cycles each second at fmax=1e9 => U=2
	sys := NewSystem(g)
	if err := sys.Validate(1e9); !errors.Is(err, ErrOverload) {
		t.Fatalf("Validate = %v, want ErrOverload", err)
	}
	// Without an fmax the utilisation check is skipped.
	if err := sys.Validate(0); err != nil {
		t.Fatalf("Validate without fmax = %v, want nil", err)
	}
}

func TestHyperperiod(t *testing.T) {
	sys := twoGraphSystem(t)
	if got := sys.Hyperperiod(); math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("Hyperperiod = %v, want 0.1", got)
	}
	g3 := NewGraph("T3", 0.04)
	g3.AddNode("", 1e6)
	sys.Add(g3)
	if got := sys.Hyperperiod(); math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("Hyperperiod = %v, want 0.2", got)
	}
}

func TestHyperperiodFallbackForIrrationalPeriods(t *testing.T) {
	g1 := NewGraph("T1", math.Pi*1e-7) // far below the 1 microsecond grid
	g1.AddNode("", 1)
	sys := NewSystem(g1)
	got := sys.Hyperperiod()
	if got <= 0 {
		t.Fatalf("Hyperperiod fallback = %v, want > 0", got)
	}
}

// MinPeriod returns the smallest period in the system (0 for an empty system).
func (s *System) MinPeriod() float64 {
	if len(s.Graphs) == 0 {
		return 0
	}
	m := s.Graphs[0].Period
	for _, g := range s.Graphs[1:] {
		if g.Period < m {
			m = g.Period
		}
	}
	return m
}

func TestMinMaxPeriod(t *testing.T) {
	sys := twoGraphSystem(t)
	if got := sys.MinPeriod(); got != 0.05 {
		t.Fatalf("MinPeriod = %v, want 0.05", got)
	}
	if got := sys.MaxPeriod(); got != 0.1 {
		t.Fatalf("MaxPeriod = %v, want 0.1", got)
	}
	empty := NewSystem()
	if got := empty.MinPeriod(); got != 0 {
		t.Fatalf("empty MinPeriod = %v, want 0", got)
	}
}

func TestSystemCloneIsDeep(t *testing.T) {
	sys := twoGraphSystem(t)
	c := sys.Clone()
	c.Graphs[0].Nodes[0].WCET = 1
	if sys.Graphs[0].Nodes[0].WCET == 1 {
		t.Fatal("clone shares storage with original")
	}
}

func TestSystemTotalNodesAndString(t *testing.T) {
	sys := twoGraphSystem(t)
	if got := sys.TotalNodes(); got != 3 {
		t.Fatalf("TotalNodes = %d, want 3", got)
	}
	if sys.String() == "" {
		t.Fatal("empty system string")
	}
}

func TestSystemJSONRoundTrip(t *testing.T) {
	sys := twoGraphSystem(t)
	var buf bytes.Buffer
	if err := sys.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	back, err := ReadJSON(&buf, 1e9)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if back.NumGraphs() != sys.NumGraphs() {
		t.Fatalf("graphs = %d, want %d", back.NumGraphs(), sys.NumGraphs())
	}
	if back.TotalNodes() != sys.TotalNodes() {
		t.Fatalf("nodes = %d, want %d", back.TotalNodes(), sys.TotalNodes())
	}
	if back.Graphs[0].Name != "T1" || back.Graphs[0].Period != 0.05 {
		t.Fatalf("graph 0 round-trip mismatch: %+v", back.Graphs[0])
	}
	if len(back.Graphs[0].Edges) != 1 || back.Graphs[0].Edges[0] != (Edge{From: 0, To: 1}) {
		t.Fatalf("edges round-trip mismatch: %+v", back.Graphs[0].Edges)
	}
	if math.Abs(back.Utilization(1e9)-sys.Utilization(1e9)) > 1e-12 {
		t.Fatalf("utilisation changed across round trip")
	}
}

// TestReadJSONRejectsInvalid pins what ReadJSON, the decoder of basched
// -workload files, rejects: malformed JSON, a structurally invalid graph,
// data after the system, a system without graphs, and a worst-case
// utilisation above 1 at f_max, which it checks only when fmax > 0.
func TestReadJSONRejectsInvalid(t *testing.T) {
	const fmax = 1e9
	valid := `{"graphs":[{"name":"A","period":0.1,"nodes":[{"wcet":1e6}]}]}`
	overloaded := `{"graphs":[{"period":0.1,"nodes":[{"wcet":2e8}]}]}` // U = 2 at fmax
	for _, c := range []struct {
		name, in string
		fmax     float64
		want     error // nil: any error
	}{
		{"malformed", "{not json", 0, nil},
		{"graph without nodes", `{"graphs":[{"period":1,"nodes":[]}]}`, 0, ErrEmptyGraph},
		{"trailing word", valid + " trailing", fmax, nil},
		{"second system", valid + valid, fmax, nil},
		{"no graphs", `{"graphs":[]}`, fmax, ErrEmptySystem},
		{"no graphs key", `{}`, fmax, ErrEmptySystem},
		{"utilisation 2 at fmax", overloaded, fmax, ErrOverload},
	} {
		_, err := ReadJSON(bytes.NewBufferString(c.in), c.fmax)
		if err == nil || (c.want != nil && !errors.Is(err, c.want)) {
			t.Errorf("%s: ReadJSON(%q) = %v, want an error (%v)", c.name, c.in, err, c.want)
		}
	}
	if _, err := ReadJSON(bytes.NewBufferString(valid+"\n"), fmax); err != nil {
		t.Errorf("valid system with a trailing newline: %v", err)
	}
	if _, err := ReadJSON(bytes.NewBufferString(overloaded), 0); err != nil {
		t.Errorf("fmax 0 checked the utilisation: %v", err)
	}
}

func TestGraphJSONRoundTrip(t *testing.T) {
	g := NewGraph("G", 2.5)
	g.AddNode("a", 100)
	g.AddNode("b", 200)
	g.AddEdge(0, 1)
	data, err := g.MarshalJSON()
	if err != nil {
		t.Fatalf("MarshalJSON: %v", err)
	}
	var back Graph
	if err := back.UnmarshalJSON(data); err != nil {
		t.Fatalf("UnmarshalJSON: %v", err)
	}
	if back.Name != "G" || back.Period != 2.5 || back.NumNodes() != 2 || len(back.Edges) != 1 {
		t.Fatalf("round trip mismatch: %+v", back)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped graph invalid: %v", err)
	}
}
