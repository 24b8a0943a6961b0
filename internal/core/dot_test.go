package core

import (
	"context"
	"strings"
	"testing"

	"qbeep/internal/bitstring"
)

func dotGraph(t *testing.T) *StateGraph {
	t.Helper()
	d := bitstring.NewDist(3)
	d.Add(0b000, 80)
	d.Add(0b001, 12)
	d.Add(0b011, 8)
	g, err := BuildStateGraphCtx(context.Background(), d, PoissonEdges{Lambda: 1}, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestWriteDOT(t *testing.T) {
	g := dotGraph(t)
	var b strings.Builder
	if err := g.WriteDOT(&b, 0); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"graph stategraph", "000", "001", "011", "--", "}"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in DOT:\n%s", want, out)
		}
	}
	if strings.Count(out, "--") != g.NumEdges() {
		t.Errorf("edge lines %d want %d", strings.Count(out, "--"), g.NumEdges())
	}
}

func TestWriteDOTEdgeCap(t *testing.T) {
	g := dotGraph(t)
	var b strings.Builder
	if err := g.WriteDOT(&b, 1); err != nil {
		t.Fatal(err)
	}
	if strings.Count(b.String(), "--") != 1 {
		t.Errorf("cap ignored: %s", b.String())
	}
}

func TestStats(t *testing.T) {
	g := dotGraph(t)
	s := g.Stats()
	if s.Vertices != 3 || s.Edges != g.NumEdges() || s.Total != 100 {
		t.Errorf("stats %+v", s)
	}
	if !strings.Contains(s.String(), "3 vertices") {
		t.Errorf("String: %s", s)
	}
}
