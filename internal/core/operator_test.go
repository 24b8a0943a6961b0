package core

// Tests for the Hamming-kernel operator (operator.go): both forms against
// the three-pass stepOracle, the bitwise contract between Mitigate and
// BuildStateGraphCtx + Step, the transform-counted edge and pruned
// totals, the cost rule, and the decision attributes on the spans. The
// forms are forced through operatorHook (Mitigate) or the graph's op
// field (Step on a built graph).

import (
	"context"
	"fmt"
	"math"
	"testing"

	"qbeep/internal/bitstring"
	"qbeep/internal/obs"
)

// withOperator runs f with the cost rule overridden to form.
func withOperator(t *testing.T, form operatorForm, f func()) {
	t.Helper()
	operatorHook = form
	defer func() { operatorHook = opAuto }()
	f()
}

// forceForm switches a built graph's operator form, dropping any
// Walsh–Hadamard scratch so Step sizes it afresh.
func forceForm(g *StateGraph, form operatorForm) {
	g.op = form
	g.scratch.cube, g.scratch.spectrum = nil, nil
}

// normRelErr is ‖got − want‖₂ / ‖want‖₂ over the vertex counts.
func normRelErr(want, got *StateGraph) float64 {
	var num, den float64
	for i := range want.nodes {
		d := got.nodes[i].count - want.nodes[i].count
		num += d * d
		den += want.nodes[i].count * want.nodes[i].count
	}
	return math.Sqrt(num / den)
}

// operatorCases are the graphs the form-equivalence tests iterate: a
// dense BV-style corpus (the cost rule's Walsh–Hadamard regime), a
// sparse uniform corpus (the edge regime), and the HAMMER ablation
// weights, whose kernel has a hard cut-off instead of a Poisson tail.
func operatorCases() []struct {
	name string
	raw  *bitstring.Dist
	w    EdgeWeighter
} {
	return []struct {
		name string
		raw  *bitstring.Dist
		w    EdgeWeighter
	}{
		{"dense_n12_lambda2.6", poissonCounts(12, 0b101101011010, 2.6, 8192, 301), PoissonEdges{Lambda: 2.6}},
		{"sparse_n14_lambda1", uniformDist(14, 700, 302), PoissonEdges{Lambda: 1}},
		{"hammer_n10", poissonCounts(10, 0b1011010010, 1.5, 4000, 303), InverseDistanceEdges{}},
	}
}

// TestOperatorFormsMatchOracle runs 20 iterations of the retained
// three-pass Step and of Step under each operator form on identical
// graphs, under the paper's 1/i schedule and under a constant η = 1.6
// that makes the overflow cap (the third product) bind and the clamp
// fire. Each form must match the oracle's counts to 1e-12 relative
// (normwise), and its StepStats must track the oracle's.
func TestOperatorFormsMatchOracle(t *testing.T) {
	schedules := map[string]func(int) float64{
		"1/i":    func(i int) float64 { return 1 / float64(i) },
		"eta1.6": func(int) float64 { return 1.6 },
	}
	for _, c := range operatorCases() {
		for sname, eta := range schedules {
			build := func() *StateGraph {
				g, err := BuildStateGraphCtx(context.Background(), c.raw, c.w, 0.05, 0)
				if err != nil {
					t.Fatal(err)
				}
				return g
			}
			oracle := build()
			if oracle.NumEdges() == 0 {
				t.Fatalf("%s: want a non-trivial graph", c.name)
			}
			forms := map[operatorForm]*StateGraph{opEdges: build(), opWHT: build()}
			for form, g := range forms {
				forceForm(g, form)
			}
			clamped := false
			for i := 1; i <= 20; i++ {
				want := oracle.stepOracle(eta(i))
				for form, g := range forms {
					got := g.Step(eta(i))
					label := fmt.Sprintf("%s %s form=%s iter %d", c.name, sname, form, i)
					for _, f := range []struct {
						name      string
						got, want float64
					}{
						{"FlowMoved", got.FlowMoved, want.FlowMoved},
						{"L1Delta", got.L1Delta, want.L1Delta},
						{"Clamped", got.Clamped, want.Clamped},
					} {
						if math.Abs(f.got-f.want) > 1e-9*(1+math.Abs(f.want)) {
							t.Fatalf("%s: %s %v want %v", label, f.name, f.got, f.want)
						}
					}
				}
				if want.Clamped > 0 {
					clamped = true
				}
			}
			for form, g := range forms {
				e := normRelErr(oracle, g)
				t.Logf("%s %s form=%s: E=%d relative error %.3g", c.name, sname, form, g.NumEdges(), e)
				if e > 1e-12 {
					t.Errorf("%s %s form=%s: relative error %.3g after 20 iterations", c.name, sname, form, e)
				}
			}
			if sname == "eta1.6" && !clamped {
				t.Errorf("%s: η = 1.6 never reached the clamp", c.name)
			}
		}
	}
}

// TestMitigateBitwiseMatchesBuildAndStep pins the contract the
// benchmark's traced decomposition relies on: Mitigate (which may skip
// the edge scan) equals BuildStateGraphCtx followed by Step at η = 1/i,
// bit for bit, on a graph the cost rule sends to each form. It also
// checks that both report the same edge count.
func TestMitigateBitwiseMatchesBuildAndStep(t *testing.T) {
	cases := []struct {
		name   string
		raw    *bitstring.Dist
		lambda float64
		want   operatorForm
	}{
		{"dense", poissonCounts(12, 0b101101011010, 2.6, 8192, 311), 2.6, opWHT},
		{"sparse", uniformDist(14, 700, 312), 1, opEdges},
	}
	for _, c := range cases {
		opts := NewOptions()
		var edges []int
		opts.OnIteration = func(s IterationStats) { edges = append(edges, s.Edges) }
		got, err := MitigateCtx(context.Background(), c.raw, c.lambda, opts)
		if err != nil {
			t.Fatal(err)
		}
		g, err := BuildStateGraphCtx(context.Background(), c.raw, PoissonEdges{Lambda: c.lambda}, opts.Epsilon, 0)
		if err != nil {
			t.Fatal(err)
		}
		if g.op != c.want {
			t.Fatalf("%s: cost rule picked %s, want %s (E=%d)", c.name, g.op, c.want, g.NumEdges())
		}
		for i := 1; i <= opts.Iterations; i++ {
			g.Step(1 / float64(i))
		}
		sameDist(t, c.name, g.Dist().Normalized(c.raw.Total()), got)
		for i, e := range edges {
			if e != g.NumEdges() {
				t.Fatalf("%s: iteration %d reports %d edges, built graph has %d", c.name, i+1, e, g.NumEdges())
			}
		}
	}
}

// TestPairCountsMatchScan checks the transform-counted graph (no edge
// scan) against the scanned one: identical edge count, pruned count and
// radius, across widths, densities and both edge models.
func TestPairCountsMatchScan(t *testing.T) {
	cases := []struct {
		raw *bitstring.Dist
		w   EdgeWeighter
	}{
		{uniformDist(3, 5, 321), PoissonEdges{Lambda: 1}},
		{uniformDist(6, 40, 322), PoissonEdges{Lambda: 2}},
		{poissonCounts(9, 0b110010110, 1.2, 3000, 323), PoissonEdges{Lambda: 1.2}},
		{poissonCounts(12, 0b101101011010, 2.6, 8192, 324), PoissonEdges{Lambda: 2.6}},
		{uniformDist(16, 3000, 325), PoissonEdges{Lambda: 4}},
		{uniformDist(11, 900, 326), InverseDistanceEdges{MaxD: 3}},
	}
	withOperator(t, opWHT, func() {
		for i, c := range cases {
			scanned, err := BuildStateGraphCtx(context.Background(), c.raw, c.w, 0.05, 0)
			if err != nil {
				t.Fatal(err)
			}
			counted, err := buildStateGraphCtx(context.Background(), c.raw, c.w, 0.05, 0, scanAuto, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			if counted.op != opWHT || counted.edges != nil {
				t.Fatalf("case %d: want an edge-less Walsh–Hadamard graph, got op=%s with %d edges", i, counted.op, len(counted.edges))
			}
			if counted.NumEdges() != scanned.NumEdges() || counted.pruned != scanned.pruned || counted.Radius() != scanned.Radius() {
				t.Fatalf("case %d: transform E=%d pruned=%d radius=%d, scan E=%d pruned=%d radius=%d", i,
					counted.NumEdges(), counted.pruned, counted.Radius(), scanned.NumEdges(), scanned.pruned, scanned.Radius())
			}
		}
	})
}

// TestChooseOperator pins the cost rule's structural conditions and its
// calibrated crossover.
func TestChooseOperator(t *testing.T) {
	cases := []struct {
		name string
		n, e int
		topK bool
		want operatorForm
	}{
		{"bv-dense", 15, 2_500_000, false, opWHT},
		{"bv-dense top-k", 15, 2_500_000, true, opEdges},
		{"tiny circuit", 5, 105, false, opEdges},
		{"below the edge floor", 8, whtMinEdges - 1, false, opEdges},
		{"sparse n=16", 16, 89_527, false, opEdges},
		{"wide register", 26, 50_000_000, false, opEdges},
		{"V1e5 n=20", 20, 6_435_480, false, opEdges},
	}
	for _, c := range cases {
		if got := chooseOperator(c.n, c.e, c.topK); got != c.want {
			t.Errorf("%s: chooseOperator(%d, %d, %v) = %s, want %s", c.name, c.n, c.e, c.topK, got, c.want)
		}
	}
	// The rule is monotone in E: the upper bound may only over-approve.
	for n := 1; n <= whtMaxWidth; n++ {
		prev := opEdges
		for e := 0; e <= 1<<22; e += 1 << 12 {
			got := chooseOperator(n, e, false)
			if prev == opWHT && got != opWHT {
				t.Fatalf("n=%d: rule flips back to edges at E=%d", n, e)
			}
			prev = got
		}
	}
}

// TestDecisionAttrs checks that the result-changing decisions land on
// the spans: the operator form on core.graph.build and core.mitigate
// (with strategy "wht" when the scan was skipped) and the clamped mass
// on every core.mitigate.iter.
func TestDecisionAttrs(t *testing.T) {
	sink := &obs.CollectorSink{}
	obs.SetSpanSink(sink)
	defer obs.SetSpanSink(nil)
	raw := poissonCounts(12, 0b101101011010, 2.6, 8192, 331)
	if _, err := MitigateCtx(context.Background(), raw, 2.6, NewOptions()); err != nil {
		t.Fatal(err)
	}
	attr := func(e obs.SpanEvent, key string) (any, bool) {
		for _, a := range e.Attrs {
			if a.Key == key {
				return a.Value, true
			}
		}
		return nil, false
	}
	iters := 0
	for _, e := range sink.Events() {
		switch e.Name {
		case "core.graph.build":
			if op, _ := attr(e, "operator"); op != "wht" {
				t.Errorf("core.graph.build operator = %v, want wht", op)
			}
			if s, _ := attr(e, "strategy"); s != "wht" {
				t.Errorf("core.graph.build strategy = %v, want wht", s)
			}
		case "core.mitigate":
			if op, _ := attr(e, "operator"); op != "wht" {
				t.Errorf("core.mitigate operator = %v, want wht", op)
			}
		case "core.mitigate.iter":
			iters++
			if _, ok := attr(e, "clamped"); !ok {
				t.Errorf("core.mitigate.iter missing clamped attr: %+v", e.Attrs)
			}
		}
	}
	if iters == 0 {
		t.Fatal("no iteration spans recorded")
	}
}
