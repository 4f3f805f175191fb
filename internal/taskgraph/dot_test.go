package taskgraph

import (
	"bytes"
	"strings"
	"testing"
)

func TestWriteDOT(t *testing.T) {
	g := NewGraph("pipeline", 0.1)
	a := g.AddNode("decode", 100)
	b := g.AddNode("", 200)
	g.AddEdge(a, b)

	dot := func(g *Graph) string {
		var b strings.Builder
		if err := g.WriteDOT(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	out := dot(g)
	for _, want := range []string{"digraph", "decode", "n0 -> n1", "period 0.1", "wc=100", "wc=200"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
	// Unnamed graphs and nodes get fallback labels.
	anon := NewGraph("", 1)
	anon.AddNode("", 1)
	if !strings.Contains(dot(anon), "taskgraph") {
		t.Fatal("anonymous graph not labelled")
	}
}

func TestSystemWriteDOT(t *testing.T) {
	g1 := NewGraph("A", 1)
	g1.AddNode("x", 1)
	g2 := NewGraph("B", 2)
	g2.AddNode("y", 1)
	sys := NewSystem(g1, g2)
	var buf bytes.Buffer
	if err := sys.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "digraph") != 2 || !strings.Contains(out, `"A"`) || !strings.Contains(out, `"B"`) {
		t.Fatalf("system DOT output unexpected:\n%s", out)
	}
}
