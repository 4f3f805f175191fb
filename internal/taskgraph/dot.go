package taskgraph

import (
	"fmt"
	"io"
)

// WriteDOT writes the graph in Graphviz DOT format, one node per task
// annotated with its WCET, so generated workloads can be inspected visually
// (e.g. `dot -Tpng`).
func (g *Graph) WriteDOT(w io.Writer) error {
	name := g.Name
	if name == "" {
		name = "taskgraph"
	}
	if _, err := fmt.Fprintf(w, "digraph %q {\n  rankdir=TB;\n  node [shape=box];\n", name); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  label=%q;\n", fmt.Sprintf("%s (period %g s)", name, g.Period)); err != nil {
		return err
	}
	for _, n := range g.Nodes {
		label := n.Name
		if label == "" {
			label = fmt.Sprintf("n%d", int(n.ID))
		}
		if _, err := fmt.Fprintf(w, "  n%d [label=%q];\n", int(n.ID), fmt.Sprintf("%s\\nwc=%.3g", label, n.WCET)); err != nil {
			return err
		}
	}
	for _, e := range g.Edges {
		if _, err := fmt.Fprintf(w, "  n%d -> n%d;\n", int(e.From), int(e.To)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// WriteDOT writes every graph of the system as a separate digraph in one DOT
// stream.
func (s *System) WriteDOT(w io.Writer) error {
	for _, g := range s.Graphs {
		if err := g.WriteDOT(w); err != nil {
			return err
		}
	}
	return nil
}
