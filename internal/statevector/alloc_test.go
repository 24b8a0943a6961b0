package statevector

import (
	"context"
	"testing"

	"qbeep/internal/mathx"
)

// TestRunProgramAllocationFree pins the compiled-replay contract the
// gcfacts gate certifies statically (//qbeep:allocfree on RunProgram and
// the kernel range functions): replaying a compiled program onto a
// single-shard state performs zero heap allocations. The static fact is
// per-frame; this test is the end-to-end runtime witness across the
// whole replay call tree.
func TestRunProgramAllocationFree(t *testing.T) {
	rng := mathx.NewRNG(99)
	c := randomCircuit(8, 60, rng)
	p, err := Compile(c, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewBasis(context.Background(), 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.SetWorkers(1)
	if err := s.RunProgram(p); err != nil { // warm-up: nothing to warm, but mirror Step's shape
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		if err := s.RunProgram(p); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("RunProgram allocates %v per replay", n)
	}
}

// TestApplyCompiledAllocationFree pins the per-gate replay primitive the
// trajectory sampler leans on for Pauli injections.
func TestApplyCompiledAllocationFree(t *testing.T) {
	s, err := NewBasis(context.Background(), 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.SetWorkers(1)
	tbl := NewPauliOps(6)
	if n := testing.AllocsPerRun(100, func() {
		for q := 0; q < 6; q++ {
			s.ApplyCompiled(tbl[q][0])
			s.ApplyCompiled(tbl[q][1])
			s.ApplyCompiled(tbl[q][2])
		}
	}); n != 0 {
		t.Fatalf("ApplyCompiled allocates %v per 18-gate burst", n)
	}
}
