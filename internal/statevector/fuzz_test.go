package statevector

import (
	"context"
	"math/cmplx"
	"testing"

	"qbeep/internal/bitstring"
	"qbeep/internal/mathx"
)

// FuzzCompileReplay drives the Compile → RunProgram pipeline against the
// retained naiveApply oracle over fuzzer-chosen circuit shapes. The
// contract it checks is the one the test suite pins at fixed seeds
// (TestKernelMatchesOracleBitwise and friends), opened to a random walk:
//
//   - with fusion disabled the replay is bit-for-bit identical to the
//     oracle — the kernels enumerate exactly the same complex arithmetic;
//   - with fusion enabled amplitudes agree to 1e-12 — fusing reorders
//     floating-point operations but must not change the unitary.
func FuzzCompileReplay(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(30), false)
	f.Add(uint64(2), uint8(4), uint8(30), true)
	f.Add(uint64(3), uint8(1), uint8(10), false)
	f.Add(uint64(4), uint8(9), uint8(80), true)
	f.Add(uint64(5), uint8(6), uint8(1), false)
	f.Fuzz(func(t *testing.T, seed uint64, width, length uint8, noFuse bool) {
		n := 1 + int(width)%9 // 1..9 qubits: oracle is O(length * 2^n)
		gates := 1 + int(length)%90
		rng := mathx.NewRNG(seed)
		c := randomCircuit(n, gates, rng)
		init := bitstring.BitString(rng.Uint64() & (1<<uint(n) - 1))

		p, err := Compile(c, RunConfig{NoFuse: noFuse})
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewBasis(context.Background(), n, init)
		if err != nil {
			t.Fatal(err)
		}
		got.SetWorkers(1)
		if err := got.RunProgram(p); err != nil {
			t.Fatal(err)
		}
		want := naiveRunFrom(t, c, init)

		for i := range want.amp {
			w, g := want.amp[i], got.amp[i]
			if noFuse {
				if w != g {
					t.Fatalf("seed %d n=%d gates=%d: amp[%d] = %v, oracle %v (unfused replay must be bitwise)",
						seed, n, gates, i, g, w)
				}
				continue
			}
			if cmplx.Abs(w-g) > 1e-12 {
				t.Fatalf("seed %d n=%d gates=%d: amp[%d] = %v, oracle %v (|Δ| = %g > 1e-12)",
					seed, n, gates, i, g, w, cmplx.Abs(w-g))
			}
		}
	})
}
