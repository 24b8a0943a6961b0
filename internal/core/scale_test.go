package core

// Tests for the million-vertex scaling features: the wide-register
// discovery paths (the sphere walk's presence bitmap with binary-search
// hit resolution past the LUT width, the split-half run index, and the
// cost rule between them) and the Options.ConvergeTol adaptive
// iteration loop. The
// exact engine's determinism contract — bit-identical output for every
// strategy and worker count — extends to both, pinned here against the
// brute oracle and across the worker matrix.

import (
	"context"
	"fmt"
	"testing"

	"qbeep/internal/bitstring"
	"qbeep/internal/obs"
)

// TestScanMatchesBruteOracleWide drives the wide-register paths against
// the brute oracle and the bucket scan, across the worker matrix: the
// sphere walk past the LUT width (sphereLUTMaxWidth < n <=
// sphereMaxWidth, where confirmed bitmap hits resolve their vertex index
// by binary search instead of a direct table) and the split-half scan,
// which alone runs past sphereMaxWidth (n = 34, 40; the sphere walk
// falls back to the bucket scan there). The n = 34 and 40 clusters sit
// on a centre with bits set in both halves, and their radii (4 and 5)
// give the low-half pass a nonzero radius.
func TestScanMatchesBruteOracleWide(t *testing.T) {
	cases := []struct {
		n       int
		support int
		lambda  float64
		seed    uint64
		centre  bitstring.BitString
	}{
		{22, 500, 1.2, 201, 0x2b5a7},
		{26, 300, 0.8, 202, 0x2b5a7},
		{26, 400, 1.0, 203, 0x2b5a7},
		{34, 400, 2.0, 204, 0x3c1d9_2b5a7},
		{40, 300, 2.5, 205, 0x3c1d9_2b5a7},
	}
	workers := workerMatrix(t)
	for _, c := range cases {
		dists := map[string]*bitstring.Dist{
			"clustered": poissonCounts(c.n, c.centre&(1<<uint(c.n)-1), c.lambda, c.support*3, c.seed),
			"uniform":   uniformDist(c.n, c.support, c.seed+100),
		}
		for kind, raw := range dists {
			oracle, err := buildStateGraphBrute(raw, PoissonEdges{Lambda: c.lambda}, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			if kind == "clustered" && oracle.NumEdges() == 0 {
				t.Fatalf("n=%d clustered: the oracle found no edges, so the comparison would be vacuous", c.n)
			}
			var ref *StateGraph
			for _, strat := range []scanStrategy{scanAuto, scanBucket, scanSphere, scanSplit} {
				for _, w := range workers {
					label := fmt.Sprintf("n=%d %s strat=%s workers=%d", c.n, kind, strat, w)
					g, err := buildStateGraphCtx(context.Background(), raw, PoissonEdges{Lambda: c.lambda}, 0.05, w, strat, true)
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

// autoStrategy returns the discovery strategy scanAuto resolves to for
// raw under the production edge model, without running the scan.
func autoStrategy(raw *bitstring.Dist, lambda float64) scanStrategy {
	w := PoissonEdges{Lambda: lambda}
	g, vals := initStateGraph(raw, w, 0.05)
	tab := newWeightTable(w, 0.05, g.n, g.radius)
	return newEdgeScanner(vals, g.n, tab.effectiveRadius(), tab).choose(scanAuto)
}

// TestScanCostRule pins the strategy choice on the shapes it was
// calibrated on: the sparse-wide benchmark corpus (10⁵ uniform strings
// over 26 qubits at λ = 1, radius 3) takes the split scan, the
// million-vertex corpus (10⁶ over 26 qubits at λ = 0.8, radius 2) keeps
// the sphere walk, and no register of 20 qubits or fewer takes the
// split scan.
func TestScanCostRule(t *testing.T) {
	if got := autoStrategy(benchScaleDist(26, 1e5), 1); got != scanSplit {
		t.Errorf("sparse-wide shape (n=26, V=1e5, λ=1): strategy %s, want split", got)
	}
	if got := autoStrategy(benchScaleDist(26, 1e6), 0.8); got != scanSphere {
		t.Errorf("V1e6 shape (n=26, V=1e6, λ=0.8): strategy %s, want sphere", got)
	}
	for _, n := range []int{8, 12, 16, 20} {
		for _, lambda := range []float64{0.5, 1, 2, 3} {
			for _, raw := range []*bitstring.Dist{
				uniformDist(n, min(1<<uint(n)/2, 20000), uint64(n)),
				poissonCounts(n, bitstring.BitString(0x2b5a7)&(1<<uint(n)-1), lambda, 20000, uint64(n)+1),
			} {
				if got := autoStrategy(raw, lambda); got == scanSplit {
					t.Errorf("n=%d λ=%g V=%d: strategy split on a register within sphereLUTMaxWidth", n, lambda, raw.Support())
				}
			}
		}
	}
}

// TestSplitScanObservability checks that a build the cost rule sends to
// the split scan says so: the core.graph.build span's strategy reads
// "split" and the core.graph.scan_split counter advances by one.
func TestSplitScanObservability(t *testing.T) {
	sink := &obs.CollectorSink{}
	obs.SetSpanSink(sink)
	defer obs.SetSpanSink(nil)
	raw := uniformDist(26, 3000, 301)
	if got := autoStrategy(raw, 1); got != scanSplit {
		t.Fatalf("corpus takes strategy %s, want split", got)
	}
	before := metGraphScanSplit.Value()
	if _, err := BuildStateGraphCtx(context.Background(), raw, PoissonEdges{Lambda: 1}, 0.05, 0); err != nil {
		t.Fatal(err)
	}
	if got := metGraphScanSplit.Value() - before; got != 1 {
		t.Errorf("core.graph.scan_split advanced by %d, want 1", got)
	}
	var strategies []any
	for _, e := range sink.Events() {
		for _, a := range e.Attrs {
			if e.Name == "core.graph.build" && a.Key == "strategy" {
				strategies = append(strategies, a.Value)
			}
		}
	}
	if len(strategies) != 1 || strategies[0] != "split" {
		t.Fatalf("core.graph.build strategy attributes %v, want [split]", strategies)
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
