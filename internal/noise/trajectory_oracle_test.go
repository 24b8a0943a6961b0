package noise

import (
	"context"
	"testing"

	"qbeep/internal/bitstring"
	"qbeep/internal/circuit"
	"qbeep/internal/mathx"
	"qbeep/internal/statevector"
)

// samplePerGateOracle is the retained reference implementation of the
// trajectory sampler: per-gate Apply with a freshly built Gate per Pauli
// injection, exactly as the pre-replay code path worked. It consumes the
// caller's generator and per-shot streams in the same order as
// TrajectorySampler.runShots, so SampleCtx must reproduce its counts
// bit-for-bit — the equivalence bar for the compiled-replay rewrite.
// It is also the slow side of the trajectory_replay_speedup benchparse
// ratio (BenchmarkTrajectoryPerGate).
func samplePerGateOracle(ts *TrajectorySampler, c *circuit.Circuit, init bitstring.BitString, shots int, rng *mathx.RNG) (*bitstring.Dist, error) {
	if err := ts.checkRequest(c, init, shots); err != nil {
		return nil, err
	}
	base := rng.Uint64()
	counts := bitstring.NewDist(c.N)
	st, err := statevector.New(context.Background(), c.N)
	if err != nil {
		return nil, err
	}
	st.SetWorkers(1)
	var probs []float64
	for s := 0; s < shots; s++ {
		srng := mathx.NewStream(base, uint64(s))
		if err := st.Reset(init); err != nil {
			return nil, err
		}
		for _, g := range c.Gates {
			if err := st.Apply(g); err != nil {
				return nil, err
			}
			if !g.Kind.IsUnitary() {
				continue
			}
			p := ts.err1q
			if len(g.Qubits) >= 2 {
				p = ts.err2q
			}
			if srng.Float64() < p {
				q := g.Qubits[srng.Intn(len(g.Qubits))]
				inj := circuit.Gate{Kind: pauliKinds[srng.Intn(3)], Qubits: []int{q}}
				if err := st.Apply(inj); err != nil {
					return nil, err
				}
			}
		}
		probs = st.ProbabilitiesInto(probs)
		out := sampleProbs(probs, srng)
		for q := 0; q < c.N; q++ {
			if srng.Float64() < ts.readout {
				out = out.FlipBit(q)
			}
		}
		counts.Add(out, 1)
	}
	return counts, nil
}

// oracleCircuits builds a spread of circuits for the replay-equivalence
// sweep: randomized widths 1-12 exercising every kernel, plus the
// structured circuit the determinism tests use.
func oracleCircuits() []*circuit.Circuit {
	var cs []*circuit.Circuit
	for n := 1; n <= 12; n += 3 {
		cs = append(cs, randomTrajCircuit(n, 15+2*n, mathx.NewRNG(uint64(100+n))))
	}
	cs = append(cs, circuit.New("struct", 5).H(0).CX(0, 1).RZ(0.7, 1).CX(1, 2).T(2).CX(2, 3).RX(0.3, 4).MeasureAll())
	return cs
}

// randomTrajCircuit draws length gates over a kernel-diverse kind set
// (measurement appended so the readout path runs).
func randomTrajCircuit(n, length int, rng *mathx.RNG) *circuit.Circuit {
	kinds := []circuit.Kind{
		circuit.X, circuit.Y, circuit.Z, circuit.H, circuit.S, circuit.T,
		circuit.SX, circuit.RX, circuit.RY, circuit.RZ, circuit.U3,
		circuit.CX, circuit.CZ, circuit.SWAP, circuit.CCX,
	}
	c := circuit.New("randtraj", n)
	for len(c.Gates) < length {
		k := kinds[rng.Intn(len(kinds))]
		a := k.Arity()
		if a > n {
			continue
		}
		qs := rng.Perm(n)[:a]
		var params []float64
		for p := 0; p < k.ParamCount(); p++ {
			params = append(params, rng.Uniform(-3, 3))
		}
		c.Append(circuit.Gate{Kind: k, Qubits: qs, Params: params})
	}
	return c.MeasureAll()
}

// requireSameDist fails unless the two distributions are bit-for-bit
// identical (same outcomes, same counts).
func requireSameDist(t *testing.T, label string, got, want *bitstring.Dist) {
	t.Helper()
	wantOut := want.Outcomes()
	if gotN, wantN := len(got.Outcomes()), len(wantOut); gotN != wantN {
		t.Fatalf("%s: %d outcomes, want %d", label, gotN, wantN)
	}
	for _, v := range wantOut {
		if got.Count(v) != want.Count(v) {
			t.Fatalf("%s: count[%v] = %v, want %v", label, v, got.Count(v), want.Count(v))
		}
	}
}

// TestTrajectoryMatchesPerGateOracle pins the compiled-replay rewrite to
// the retained per-gate reference implementation: identical counts for
// every circuit, seed and worker count — the replay engine changed the
// execution strategy, not one realized draw.
func TestTrajectoryMatchesPerGateOracle(t *testing.T) {
	b := testBackend(t)
	ts, err := NewTrajectorySampler(b)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewTrajectorySampler(b)
	if err != nil {
		t.Fatal(err)
	}
	const shots = 200
	for ci, c := range oracleCircuits() {
		want, err := samplePerGateOracle(ref, c, 0, shots, mathx.NewRNG(uint64(50+ci)))
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range trajWorkerMatrix(t) {
			ts.SetWorkers(w)
			got, err := ts.SampleCtx(context.Background(), c, 0, shots, mathx.NewRNG(uint64(50+ci)))
			if err != nil {
				t.Fatalf("circuit %d workers=%d: %v", ci, w, err)
			}
			requireSameDist(t, c.Name, got, want)
		}
	}
}
