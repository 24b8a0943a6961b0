package core

// Tests for the million-vertex scaling features: the wide-register
// sphere path (presence bitmap + binary-search hit resolution past the
// LUT width), the Options.TopK approximate mode, and the
// Options.ConvergeTol adaptive iteration loop. The exact engine's
// determinism contract — bit-identical output for every strategy and
// worker count — extends to both new modes, pinned here against the
// brute oracle and across the worker matrix.

import (
	"context"
	"fmt"
	"testing"

	"qbeep/internal/bitstring"
)

// TestScanMatchesBruteOracleWide drives the wide-register sphere path
// (sphereLUTMaxWidth < n <= sphereMaxWidth, where confirmed bitmap hits
// resolve their vertex index by binary search instead of a direct
// table) against the brute oracle and the bucket scan, across the
// worker matrix.
func TestScanMatchesBruteOracleWide(t *testing.T) {
	cases := []struct {
		n       int
		support int
		lambda  float64
		seed    uint64
	}{
		{22, 500, 1.2, 201},
		{26, 300, 0.8, 202},
	}
	workers := workerMatrix(t)
	for _, c := range cases {
		dists := map[string]*bitstring.Dist{
			"clustered": poissonCounts(c.n, bitstring.BitString(0x2b5a7)&(1<<uint(c.n)-1), c.lambda, c.support*3, c.seed),
			"uniform":   uniformDist(c.n, c.support, c.seed+100),
		}
		for kind, raw := range dists {
			oracle, err := buildStateGraphBrute(raw, PoissonEdges{Lambda: c.lambda}, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			var ref *StateGraph
			for _, strat := range []scanStrategy{scanAuto, scanBucket, scanSphere} {
				for _, w := range workers {
					label := fmt.Sprintf("n=%d %s strat=%s workers=%d", c.n, kind, strat, w)
					g, err := buildStateGraphCtx(context.Background(), raw, PoissonEdges{Lambda: c.lambda}, 0.05, w, strat, 0, true)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					sameEdges(t, label+" vs oracle", oracle, g)
					if ref == nil {
						ref = g
					} else {
						sameGraph(t, label+" vs ref", ref, g)
					}
				}
			}
		}
	}
}

// TestTopKGraphStructure pins the approximation contract of sparsifyTopK:
// the filtered edge list is a subset of the exact one in canonical
// order, every vertex keeps at least min(k, exact degree) edges (the
// symmetric union can only add), and the result is bit-identical across
// strategies and worker counts.
func TestTopKGraphStructure(t *testing.T) {
	raw := uniformDist(12, 500, 77)
	const lambda, eps, k = 1.5, 0.05, 4
	exact, err := BuildStateGraphCtx(context.Background(), raw, PoissonEdges{Lambda: lambda}, eps, 0)
	if err != nil {
		t.Fatal(err)
	}
	maxDeg := 0
	for i := 0; i < exact.NumVertices(); i++ {
		if d := exact.Degree(i); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg <= k {
		t.Fatalf("corpus too sparse to exercise top-k: max degree %d <= k %d", maxDeg, k)
	}

	var ref *StateGraph
	for _, strat := range []scanStrategy{scanAuto, scanBucket, scanSphere} {
		for _, w := range workerMatrix(t) {
			label := fmt.Sprintf("topk strat=%s workers=%d", strat, w)
			g, err := buildStateGraphCtx(context.Background(), raw, PoissonEdges{Lambda: lambda}, eps, w, strat, k, true)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if ref == nil {
				ref = g
			} else {
				sameGraph(t, label+" vs ref", ref, g)
			}
		}
	}
	if ref.NumEdges() >= exact.NumEdges() {
		t.Fatalf("top-k dropped nothing: %d edges vs exact %d", ref.NumEdges(), exact.NumEdges())
	}
	// Subset in canonical order: walk both ascending edge lists in step.
	ei := 0
	for _, ae := range ref.edges {
		for ei < len(exact.edges) && (exact.edges[ei].a != ae.a || exact.edges[ei].b != ae.b) {
			ei++
		}
		if ei == len(exact.edges) {
			t.Fatalf("approx edge (%d,%d) not in exact edge list (or out of order)", ae.a, ae.b)
		}
		if exact.edges[ei].weight != ae.weight {
			t.Fatalf("approx edge (%d,%d) weight %v differs from exact %v", ae.a, ae.b, ae.weight, exact.edges[ei].weight)
		}
		ei++
	}
	for i := 0; i < exact.NumVertices(); i++ {
		want := exact.Degree(i)
		if want > k {
			want = k
		}
		if got := ref.Degree(i); got < want {
			t.Fatalf("vertex %d: top-k degree %d < min(k, exact degree) = %d", i, got, want)
		}
	}
}

// TestTopKAdaptiveIdenticalAcrossWorkers extends the end-to-end
// determinism guarantee to the approximate and adaptive paths combined:
// with TopK and ConvergeTol both active, the mitigated distribution is
// bit-for-bit identical for every worker count.
func TestTopKAdaptiveIdenticalAcrossWorkers(t *testing.T) {
	raw := poissonCounts(14, bitstring.BitString(0x2cd3), 1.5, 4000, 91)
	opts := NewOptions()
	opts.TopK = 6
	opts.ConvergeTol = 1e-3
	var ref *bitstring.Dist
	for _, w := range workerMatrix(t) {
		opts.BuildWorkers = w
		out, err := MitigateCtx(context.Background(), raw, 1.5, opts)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = out
		} else {
			sameDist(t, fmt.Sprintf("topk+adaptive workers=%d", w), ref, out)
		}
	}
}

// TestTopKHellingerBound is the randomized acceptance test of the
// approximate mode: across seeds, the TopK-mitigated distribution stays
// within a small Hellinger distance of the exact engine's output on
// corpora where the cut actually bites.
func TestTopKHellingerBound(t *testing.T) {
	const n, lambda, k = 12, 1.5, 8
	for _, seed := range []uint64{301, 302, 303, 304, 305} {
		raw := poissonCounts(n, bitstring.BitString(0xb52)&(1<<uint(n)-1), lambda, 6000, seed)
		g, err := BuildStateGraphCtx(context.Background(), raw, PoissonEdges{Lambda: lambda}, 0.05, 0)
		if err != nil {
			t.Fatal(err)
		}
		maxDeg := 0
		for i := 0; i < g.NumVertices(); i++ {
			if d := g.Degree(i); d > maxDeg {
				maxDeg = d
			}
		}
		if maxDeg <= k {
			t.Fatalf("seed %d: corpus too sparse (max degree %d) for a meaningful top-%d cut", seed, maxDeg, k)
		}
		exact, err := MitigateCtx(context.Background(), raw, lambda, NewOptions())
		if err != nil {
			t.Fatal(err)
		}
		opts := NewOptions()
		opts.TopK = k
		got, err := MitigateCtx(context.Background(), raw, lambda, opts)
		if err != nil {
			t.Fatal(err)
		}
		// Measured ≈ 0.12 across seeds on this corpus; 0.2 is the
		// contract bound with headroom against rng drift.
		if h := bitstring.Hellinger(exact, got); h > 0.2 {
			t.Errorf("seed %d: Hellinger(exact, top-%d) = %v exceeds bound 0.2", seed, k, h)
		}
	}
}

// TestConvergeTolZeroBitwise pins the contract that a zero tolerance is
// the fixed schedule: all Iterations rounds run and the output matches
// the default configuration bitwise.
func TestConvergeTolZeroBitwise(t *testing.T) {
	raw := poissonCounts(10, bitstring.BitString(0x2b5), 1.2, 3000, 61)
	base, err := MitigateCtx(context.Background(), raw, 1.2, NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := NewOptions()
	opts.ConvergeTol = 0
	iters := 0
	opts.OnIteration = func(IterationStats) { iters++ }
	got, err := MitigateCtx(context.Background(), raw, 1.2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if iters != opts.Iterations {
		t.Fatalf("tolerance 0 ran %d iterations, want the fixed %d", iters, opts.Iterations)
	}
	sameDist(t, "converge-tol=0", base, got)
}

// TestConvergeTolEarlyExit checks the adaptive loop: a loose tolerance
// stops before the fixed schedule, the triggering iteration's step
// delta is at or below the tolerance, and the early-exited output is
// deterministic across the worker matrix.
func TestConvergeTolEarlyExit(t *testing.T) {
	raw := poissonCounts(10, bitstring.BitString(0x1a6), 1.2, 3000, 62)
	opts := NewOptions()
	opts.ConvergeTol = 0.01
	var stats []IterationStats
	opts.OnIteration = func(s IterationStats) { stats = append(stats, s) }
	ref, err := MitigateCtx(context.Background(), raw, 1.2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) == 0 || len(stats) >= opts.Iterations {
		t.Fatalf("expected an early exit, ran %d of %d iterations", len(stats), opts.Iterations)
	}
	last := stats[len(stats)-1]
	if last.StepHellinger > opts.ConvergeTol {
		t.Fatalf("exited with step Hellinger %v above tolerance %v", last.StepHellinger, opts.ConvergeTol)
	}
	for _, s := range stats[:len(stats)-1] {
		if s.StepHellinger <= opts.ConvergeTol {
			t.Fatalf("iteration %d already met the tolerance (%v) but the loop continued", s.Iteration, s.StepHellinger)
		}
	}
	opts.OnIteration = nil
	for _, w := range workerMatrix(t) {
		opts.BuildWorkers = w
		out, err := MitigateCtx(context.Background(), raw, 1.2, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameDist(t, fmt.Sprintf("adaptive workers=%d", w), ref, out)
	}
}

// TestStepHellingerMatchesSnapshot validates the in-loop Hellinger
// accumulation against the definitionally-correct two-snapshot form.
func TestStepHellingerMatchesSnapshot(t *testing.T) {
	raw := poissonCounts(8, 0b10110100, 1.5, 3000, 71)
	g, err := BuildStateGraphCtx(context.Background(), raw, PoissonEdges{Lambda: 1.5}, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		before := g.Dist()
		st := g.Step(1 / float64(i))
		want := bitstring.Hellinger(before, g.Dist())
		if !approx(st.Hellinger, want, 1e-9) {
			t.Fatalf("iteration %d: StepStats.Hellinger %v vs snapshot %v", i, st.Hellinger, want)
		}
	}
}
