package statevector

import (
	"context"
	"testing"

	"qbeep/internal/circuit"
	"qbeep/internal/mathx"
)

// qaoaCircuit builds a QAOA-style benchmark circuit on a ring: the
// Hadamard layer, then per round a ZZ cost layer (CX·RZ·CX per edge) and
// an RX mixer layer — the gate mix of the paper's Fig. 8 workload.
func qaoaCircuit(n, rounds int) *circuit.Circuit {
	c := circuit.New("qaoa-bench", n)
	for q := 0; q < n; q++ {
		c.H(q)
	}
	rng := mathx.NewRNG(1)
	for r := 0; r < rounds; r++ {
		for q := 0; q < n; q++ {
			nq := (q + 1) % n
			c.CX(q, nq)
			c.RZ(rng.Uniform(0, 3), nq)
			c.CX(q, nq)
		}
		for q := 0; q < n; q++ {
			c.RX(rng.Uniform(0, 3), q)
		}
	}
	return c
}

// BenchmarkRun is the acceptance benchmark: the fused kernel engine on a
// 14-qubit QAOA-style circuit (compare against BenchmarkNaiveRun; the
// recorded baseline lives in BENCH_sim.json).
func BenchmarkRun(b *testing.B) {
	c := qaoaCircuit(14, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunConfiguredCtx(context.Background(), c, 0, RunConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunProgram is the replay hot path: the same circuit compiled
// once and replayed onto a pooled state — what one trajectory shot costs
// without its per-call compile. Its allocs/op is the
// run_program_allocs_steady benchparse ceiling.
func BenchmarkRunProgram(b *testing.B) {
	c := qaoaCircuit(14, 3)
	p, err := Compile(c, RunConfig{})
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewBasis(context.Background(), c.N, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Reset(0); err != nil {
			b.Fatal(err)
		}
		if err := s.RunProgram(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunUnfused isolates the pair-stride kernels from fusion.
func BenchmarkRunUnfused(b *testing.B) {
	c := qaoaCircuit(14, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunConfiguredCtx(context.Background(), c, 0, RunConfig{NoFuse: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNaiveRun is the retained full-scan oracle on the same circuit:
// the before side of the before/after in BENCH_sim.json.
func BenchmarkNaiveRun(b *testing.B) {
	c := qaoaCircuit(14, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewBasis(context.Background(), c.N, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, g := range c.Gates {
			if err := s.naiveApply(g); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkProbabilitiesInto measures the zero-copy probability path.
func BenchmarkProbabilitiesInto(b *testing.B) {
	c := qaoaCircuit(14, 1)
	s, err := RunConfiguredCtx(context.Background(), c, 0, RunConfig{})
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]float64, 1<<14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = s.ProbabilitiesInto(buf)
	}
}
