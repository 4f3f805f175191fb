package taskgraph

import (
	"encoding/json"
	"fmt"
	"io"
)

// jsonNode, jsonEdge, jsonGraph and jsonSystem are the on-disk representation
// used by the cmd/ tools (tgffgen writes them, basched reads them).

type jsonNode struct {
	Name string  `json:"name,omitempty"`
	WCET float64 `json:"wcet"`
}

type jsonEdge struct {
	From int `json:"from"`
	To   int `json:"to"`
}

type jsonGraph struct {
	Name   string     `json:"name,omitempty"`
	Period float64    `json:"period"`
	Nodes  []jsonNode `json:"nodes"`
	Edges  []jsonEdge `json:"edges,omitempty"`
}

type jsonSystem struct {
	Graphs []jsonGraph `json:"graphs"`
}

// MarshalJSON implements json.Marshaler for Graph.
func (g *Graph) MarshalJSON() ([]byte, error) {
	return json.Marshal(toJSONGraph(g))
}

// UnmarshalJSON implements json.Unmarshaler for Graph.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return err
	}
	fromJSONGraph(jg, g)
	return nil
}

// MarshalJSON implements json.Marshaler for System.
func (s *System) MarshalJSON() ([]byte, error) {
	js := jsonSystem{Graphs: make([]jsonGraph, len(s.Graphs))}
	for i, g := range s.Graphs {
		js.Graphs[i] = toJSONGraph(g)
	}
	return json.Marshal(js)
}

// UnmarshalJSON implements json.Unmarshaler for System.
func (s *System) UnmarshalJSON(data []byte) error {
	var js jsonSystem
	if err := json.Unmarshal(data, &js); err != nil {
		return err
	}
	s.Graphs = make([]*Graph, len(js.Graphs))
	for i, jg := range js.Graphs {
		g := &Graph{}
		fromJSONGraph(jg, g)
		s.Graphs[i] = g
	}
	return nil
}

// WriteJSON writes the system as indented JSON to w.
func (s *System) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadJSON decodes the one System r holds and validates it with
// Validate(fmax): at least one graph, every graph structurally sound, and
// with fmax > 0 a worst-case utilisation of at most 1 at fmax. Anything but
// white space after the system is an error.
func ReadJSON(r io.Reader, fmax float64) (*System, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("taskgraph: read system: %w", err)
	}
	var s System
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("taskgraph: decode system: %w", err)
	}
	if err := s.Validate(fmax); err != nil {
		return nil, err
	}
	return &s, nil
}

func toJSONGraph(g *Graph) jsonGraph {
	jg := jsonGraph{Name: g.Name, Period: g.Period}
	for _, n := range g.Nodes {
		jg.Nodes = append(jg.Nodes, jsonNode{Name: n.Name, WCET: n.WCET})
	}
	for _, e := range g.Edges {
		jg.Edges = append(jg.Edges, jsonEdge{From: int(e.From), To: int(e.To)})
	}
	return jg
}

func fromJSONGraph(jg jsonGraph, g *Graph) {
	g.Name = jg.Name
	g.Period = jg.Period
	g.Nodes = g.Nodes[:0]
	g.Edges = g.Edges[:0]
	for i, n := range jg.Nodes {
		g.Nodes = append(g.Nodes, Node{ID: NodeID(i), Name: n.Name, WCET: n.WCET})
	}
	for _, e := range jg.Edges {
		g.Edges = append(g.Edges, Edge{From: NodeID(e.From), To: NodeID(e.To)})
	}
	g.invalidate()
}
