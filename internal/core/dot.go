package core

import (
	"fmt"
	"io"
	"sort"

	"qbeep/internal/bitstring"
)

// WriteDOT renders the state graph in Graphviz DOT format: vertices are
// observed bit-strings labeled with their (current) counts, scaled by
// probability; edges carry the per-string model weight. Visualizing a
// graph before and after Step calls is the quickest way to see where
// counts flowed — the right panel of the paper's Fig. 5.
//
// maxEdges caps the rendered edges (heaviest first; 0 = no cap) so large
// graphs stay viewable.
func (g *StateGraph) WriteDOT(w io.Writer, maxEdges int) error {
	if _, err := fmt.Fprintf(w, "graph stategraph {\n  layout=neato;\n  node [shape=circle];\n"); err != nil {
		return err
	}
	total := g.total
	if total <= 0 {
		total = 1
	}
	for i, nd := range g.nodes {
		label := bitstring.Format(nd.value, g.n)
		size := 0.4 + 2*nd.count/total
		if _, err := fmt.Fprintf(w,
			"  n%d [label=\"%s\\n%.0f\", width=%.2f, fixedsize=true];\n",
			i, label, nd.count, size); err != nil {
			return err
		}
	}
	edges := append([]edge(nil), g.edges...)
	sort.Slice(edges, func(i, j int) bool { return edges[i].weight > edges[j].weight })
	if maxEdges > 0 && len(edges) > maxEdges {
		edges = edges[:maxEdges]
	}
	for _, e := range edges {
		if _, err := fmt.Fprintf(w, "  n%d -- n%d [label=\"%.2g\"];\n", e.a, e.b, e.weight); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// Stats summarizes a built state graph for logging and the CLI.
type Stats struct {
	Vertices int
	Edges    int
	// PrunedEdges counts candidate pairs inside the scan radius whose
	// weight fell below the ε threshold — the mass the scalability rule
	// dropped (ISSUE: graph size under ε = 0.05). The scan stops at the
	// effective radius (largest shell passing ε), so dead tail shells
	// beyond it are neither scanned nor counted here.
	PrunedEdges int
	// Radius is the effective radius: the largest Hamming distance an
	// edge can span after thresholding.
	Radius int
	Total  float64
}

// Stats returns the graph's summary statistics.
func (g *StateGraph) Stats() Stats {
	return Stats{
		Vertices:    len(g.nodes),
		Edges:       g.numEdges,
		PrunedEdges: g.pruned,
		Radius:      g.radius,
		Total:       g.total,
	}
}

// String implements fmt.Stringer for quick logging.
func (s Stats) String() string {
	return fmt.Sprintf("state graph: %d vertices, %d edges (%d pruned), radius %d, mass %.0f",
		s.Vertices, s.Edges, s.PrunedEdges, s.Radius, s.Total)
}
