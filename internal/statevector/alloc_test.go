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
