package core

import (
	"context"
	"fmt"
	"testing"

	"qbeep/internal/bitstring"
	"qbeep/internal/mathx"
)

// benchGraphConfigs spans the regimes the figure corpus hits: moderate
// and large vertex counts, tight and loose Poisson radii.
var benchGraphConfigs = []struct {
	v      int
	lambda float64
}{
	{512, 1},
	{4096, 1},
	{4096, 2},
}

// benchGraphDist draws v distinct outcomes uniformly over 16 qubits —
// the widest weight spread, i.e. the least favorable case for the
// popcount-bucket window.
func benchGraphDist(v int) *bitstring.Dist {
	const n = 16
	rng := mathx.NewRNG(97)
	d := bitstring.NewDist(n)
	for d.Support() < v {
		d.Add(bitstring.BitString(rng.Intn(1<<n)), float64(rng.Intn(20)+1))
	}
	return d
}

// BenchmarkBuildStateGraph measures the shipped edge-discovery engine
// (bucketed / ball-walk / split-half, see edgescan.go). Compare with
// BenchmarkBuildStateGraphBrute for the speedup over the seed's O(V²)
// scan.
func BenchmarkBuildStateGraph(b *testing.B) {
	for _, c := range benchGraphConfigs {
		b.Run(fmt.Sprintf("V%d/lambda%g", c.v, c.lambda), func(b *testing.B) {
			benchBuild(b, benchGraphDist(c.v), c.lambda, scanAuto)
		})
	}
	// The million-vertex track: V=10⁵ and V=10⁶ corpora through the
	// partition-sharded discovery engine (the ROADMAP scaling row).
	for _, c := range benchScaleConfigs {
		b.Run(c.name, func(b *testing.B) {
			benchBuild(b, benchScaleDist(c.n, c.v), c.lambda, scanAuto)
		})
	}
	// The sparse-wide benchmark job's corpus shape (10⁵ uniform strings
	// over 26 qubits, λ = 1): the strategy the cost rule picks (split)
	// and the sphere walk it replaced, whose quotient is the
	// build_split_speedup_sparse_wide ratio bench-gate tracks.
	sparseWide := benchScaleDist(26, 1e5)
	b.Run("sparse_wide", func(b *testing.B) { benchBuild(b, sparseWide, 1, scanAuto) })
	b.Run("sparse_wide_sphere", func(b *testing.B) { benchBuild(b, sparseWide, 1, scanSphere) })
}

func benchBuild(b *testing.B, raw *bitstring.Dist, lambda float64, strat scanStrategy) {
	b.ReportAllocs()
	b.ResetTimer()
	var edges int
	for i := 0; i < b.N; i++ {
		g, err := buildStateGraphCtx(context.Background(), raw, PoissonEdges{Lambda: lambda}, 0.05, 0, strat, true)
		if err != nil {
			b.Fatal(err)
		}
		edges = g.NumEdges()
	}
	b.ReportMetric(float64(edges), "edges")
}

// BenchmarkBuildStateGraphBrute is the seed's serial O(V²) pairwise scan
// (bruteScanEdges), the reference the acceptance criterion compares
// against.
func BenchmarkBuildStateGraphBrute(b *testing.B) {
	for _, c := range benchGraphConfigs {
		b.Run(fmt.Sprintf("V%d/lambda%g", c.v, c.lambda), func(b *testing.B) {
			raw := benchGraphDist(c.v)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := buildStateGraphBrute(raw, PoissonEdges{Lambda: c.lambda}, 0.05); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchScaleConfigs are the million-vertex-track corpora: register
// widths chosen so the requested support fits with realistic density
// (V=10⁵ at n=20 is ~10% of the value space, V=10⁶ at n=26 ~1.5%), λ
// chosen so the effective radius stays in sphere-walk territory.
var benchScaleConfigs = []struct {
	name   string
	n, v   int
	lambda float64
}{
	{"V1e5", 20, 1e5, 1},
	{"V1e6", 26, 1e6, 0.8},
}

// benchScaleDist draws v distinct outcomes uniformly over n qubits.
func benchScaleDist(n, v int) *bitstring.Dist {
	rng := mathx.NewRNG(97)
	d := bitstring.NewDistCap(n, v)
	for d.Support() < v {
		d.Add(bitstring.BitString(rng.Uint64()&(1<<uint(n)-1)), float64(rng.Intn(20)+1))
	}
	return d
}

// BenchmarkMitigate is the end-to-end row (graph build + 20 flow
// iterations + snapshot) at a million vertices, gated as an absolute
// wall-clock budget (mitigate_v1e6_seconds) — the "mitigable in
// seconds" acceptance criterion.
func BenchmarkMitigate(b *testing.B) {
	b.Run("V1e6", func(b *testing.B) {
		raw := benchScaleDist(26, 1e6)
		opts := NewOptions()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := MitigateCtx(context.Background(), raw, 0.8, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStateGraphStep measures one reclassification iteration on a
// warm graph; allocs/op must report 0 (scratch reuse, pinned by
// TestStepAllocationFree). The V* rows are sparse uniform corpora, where
// the cost rule keeps the edge form. The dense rows run a BV-style
// corpus — one secret string under Poisson bit-flip noise at the rate of
// BV-14 on istanbul, 32768 shots, E ≈ 1.9M — through the form the cost
// rule picks (Walsh–Hadamard) and through the edge form on the same
// graph; their quotient is the step_wht_speedup_dense ratio bench-gate
// tracks.
func BenchmarkStateGraphStep(b *testing.B) {
	for _, c := range benchGraphConfigs {
		b.Run(fmt.Sprintf("V%d/lambda%g", c.v, c.lambda), func(b *testing.B) {
			benchStep(b, benchGraphDist(c.v), c.lambda, opAuto)
		})
	}
	dense := poissonCounts(15, 0b101101001110101, 2.6, 32768, 99)
	b.Run("dense_n15_lambda2.6", func(b *testing.B) { benchStep(b, dense, 2.6, opAuto) })
	b.Run("dense_n15_lambda2.6_edges", func(b *testing.B) { benchStep(b, dense, 2.6, opEdges) })
}

func benchStep(b *testing.B, raw *bitstring.Dist, lambda float64, form operatorForm) {
	g, err := BuildStateGraphCtx(context.Background(), raw, PoissonEdges{Lambda: lambda}, 0.05, 0)
	if err != nil {
		b.Fatal(err)
	}
	if form != opAuto {
		forceForm(g, form)
	}
	g.Step(1) // warm the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Step(0.5)
	}
	b.ReportMetric(float64(g.NumEdges()), "edges")
}
