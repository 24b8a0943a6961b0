package statevector

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"qbeep/internal/bitstring"
	"qbeep/internal/circuit"
	"qbeep/internal/mathx"
)

// workerMatrix returns the worker counts the equivalence tests sweep:
// {1, 2, 4, GOMAXPROCS} plus any extras from QBEEP_TEST_WORKERS (a
// comma-separated list, set by the Makefile race target) — deduplicated.
func workerMatrix(t *testing.T) []int {
	t.Helper()
	counts := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	if env := os.Getenv("QBEEP_TEST_WORKERS"); env != "" {
		for _, f := range strings.Split(env, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || v < 1 {
				t.Fatalf("QBEEP_TEST_WORKERS entry %q: %v", f, err)
			}
			counts = append(counts, v)
		}
	}
	seen := map[int]bool{}
	out := counts[:0]
	for _, w := range counts {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// allKinds is every unitary gate kind the simulator supports, used to
// build randomized circuits that exercise every kernel.
var allKinds = []circuit.Kind{
	circuit.I, circuit.X, circuit.Y, circuit.Z, circuit.H,
	circuit.S, circuit.Sdg, circuit.T, circuit.Tdg, circuit.SX,
	circuit.RX, circuit.RY, circuit.RZ, circuit.U3,
	circuit.CX, circuit.CZ, circuit.SWAP, circuit.CCX, circuit.CSWAP,
}

// randomCircuit draws `length` gates uniformly over the kinds that fit
// width n, with uniform rotation parameters and distinct random qubits.
func randomCircuit(n, length int, rng *mathx.RNG) *circuit.Circuit {
	c := circuit.New(fmt.Sprintf("rand%d", n), n)
	for len(c.Gates) < length {
		k := allKinds[rng.Intn(len(allKinds))]
		a := k.Arity()
		if a > n {
			continue
		}
		qs := rng.Perm(n)[:a]
		var params []float64
		for p := 0; p < k.ParamCount(); p++ {
			params = append(params, rng.Uniform(-2*math.Pi, 2*math.Pi))
		}
		c.Append(circuit.Gate{Kind: k, Qubits: qs, Params: params})
	}
	return c
}

// naiveRunFrom evolves the circuit through the retained full-scan oracle.
func naiveRunFrom(t *testing.T, c *circuit.Circuit, init bitstring.BitString) *State {
	t.Helper()
	s, err := NewBasis(context.Background(), c.N, init)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range c.Gates {
		if err := s.naiveApply(g); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestKernelMatchesOracleBitwise pins the tentpole contract: the unfused
// kernel engine is bit-for-bit identical to the naiveApply oracle for
// every gate kind, width 1-12, and any worker count.
func TestKernelMatchesOracleBitwise(t *testing.T) {
	workers := workerMatrix(t)
	for n := 1; n <= 12; n++ {
		for trial := 0; trial < 3; trial++ {
			rng := mathx.NewRNG(uint64(1000*n + trial))
			c := randomCircuit(n, 30+3*n, rng)
			init := bitstring.BitString(rng.Uint64() & (1<<uint(n) - 1))
			want := naiveRunFrom(t, c, init)
			for _, w := range workers {
				got, err := RunConfiguredCtx(context.Background(), c, init, RunConfig{Workers: w, NoFuse: true})
				if err != nil {
					t.Fatalf("n=%d trial=%d workers=%d: %v", n, trial, w, err)
				}
				for i := range want.amp {
					if got.amp[i] != want.amp[i] {
						t.Fatalf("n=%d trial=%d workers=%d amp[%d]: kernel %v oracle %v",
							n, trial, w, i, got.amp[i], want.amp[i])
					}
				}
			}
		}
	}
}

// TestApplyMatchesOracleBitwise covers the public single-gate path (used
// by the trajectory sampler) against the oracle for each kind in
// isolation, from a random superposition so no amplitude is trivially 0.
func TestApplyMatchesOracleBitwise(t *testing.T) {
	const n = 5
	rng := mathx.NewRNG(77)
	prep := randomCircuit(n, 25, rng)
	for _, k := range allKinds {
		qs := rng.Perm(n)[:k.Arity()]
		var params []float64
		for p := 0; p < k.ParamCount(); p++ {
			params = append(params, rng.Uniform(-3, 3))
		}
		g := circuit.Gate{Kind: k, Qubits: qs, Params: params}
		want := naiveRunFrom(t, prep, 0)
		if err := want.naiveApply(g); err != nil {
			t.Fatal(err)
		}
		got := naiveRunFrom(t, prep, 0)
		if err := got.Apply(g); err != nil {
			t.Fatal(err)
		}
		for i := range want.amp {
			if got.amp[i] != want.amp[i] {
				t.Fatalf("%s amp[%d]: kernel %v oracle %v", g, i, got.amp[i], want.amp[i])
			}
		}
	}
}

// TestFusedMatchesOracleTolerance pins the fusion contract: the fused
// engine agrees with the oracle within 1e-12 per amplitude for random
// circuits across widths and worker counts.
func TestFusedMatchesOracleTolerance(t *testing.T) {
	workers := workerMatrix(t)
	for n := 1; n <= 12; n++ {
		for trial := 0; trial < 3; trial++ {
			rng := mathx.NewRNG(uint64(9000*n + trial))
			c := randomCircuit(n, 40+3*n, rng)
			want := naiveRunFrom(t, c, 0)
			for _, w := range workers {
				got, err := RunConfiguredCtx(context.Background(), c, 0, RunConfig{Workers: w})
				if err != nil {
					t.Fatalf("n=%d trial=%d workers=%d: %v", n, trial, w, err)
				}
				for i := range want.amp {
					dr := real(got.amp[i]) - real(want.amp[i])
					di := imag(got.amp[i]) - imag(want.amp[i])
					if math.Abs(dr) > 1e-12 || math.Abs(di) > 1e-12 {
						t.Fatalf("n=%d trial=%d workers=%d amp[%d]: fused %v oracle %v",
							n, trial, w, i, got.amp[i], want.amp[i])
					}
				}
			}
		}
	}
}

// TestFusionCollapsesRuns inspects the compiled program: a run of dense
// single-qubit gates on one qubit becomes one op, a purely diagonal run
// becomes one diagonal op, and gates on other qubits don't fence fusion.
func TestFusionCollapsesRuns(t *testing.T) {
	c := circuit.New("fuse", 3).
		H(0).T(0).H(0). // dense run on qubit 0...
		X(1).           // ...interleaved with a disjoint gate
		Z(2).S(2).T(2). // diagonal run on qubit 2
		CX(0, 1)        // fences qubits 0 and 1
	ops, err := compileOps(3, c.Gates, true)
	if err != nil {
		t.Fatal(err)
	}
	// Expect: fused dense q0, flip q1, CX, fused diag q2 (flushed at end).
	var kinds []opKind
	for _, o := range ops {
		kinds = append(kinds, o.kind)
	}
	want := []opKind{opDense1, opFlip, opCX, opDiag1}
	if len(kinds) != len(want) {
		t.Fatalf("ops %v want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("op[%d] = %v want %v (all: %v)", i, kinds[i], want[i], kinds)
		}
	}
	// Unfused compilation keeps one op per non-identity gate.
	unfused, err := compileOps(3, c.Gates, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(unfused) != len(c.Gates) {
		t.Fatalf("unfused ops %d want %d", len(unfused), len(c.Gates))
	}
}

// TestQAOAFusionMatchesOracle drives the deep-fusion pipeline end to end
// on the benchmark workload shape: CX·RZ·CX sandwiches collapse to
// two-qubit diagonals, those group into table-driven diagonal passes
// with mixer gates hoisted across them, and the result still agrees with
// the gate-by-gate oracle within 1e-12 for every worker count.
func TestQAOAFusionMatchesOracle(t *testing.T) {
	workers := workerMatrix(t)
	for _, n := range []int{4, 9, 12} {
		c := qaoaCircuit(n, 2)
		want := naiveRunFrom(t, c, 0)
		for _, w := range workers {
			got, err := RunConfiguredCtx(context.Background(), c, 0, RunConfig{Workers: w})
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, w, err)
			}
			for i := range want.amp {
				dr := real(got.amp[i]) - real(want.amp[i])
				di := imag(got.amp[i]) - imag(want.amp[i])
				if math.Abs(dr) > 1e-12 || math.Abs(di) > 1e-12 {
					t.Fatalf("n=%d workers=%d amp[%d]: fused %v oracle %v",
						n, w, i, got.amp[i], want.amp[i])
				}
			}
		}
	}
}

// TestDiagRunFusionCollapsesCostLayer inspects the compiled benchmark
// program: every CX·RZ·CX sandwich is absorbed — no CX, ZZ, or stray
// diagonal ops survive — and each round's 14-edge cost layer compiles to
// exactly two table-driven diagonal passes.
func TestDiagRunFusionCollapsesCostLayer(t *testing.T) {
	c := qaoaCircuit(14, 3)
	ops, err := compileOps(c.N, c.Gates, true)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[opKind]int{}
	for _, o := range ops {
		counts[o.kind]++
	}
	if counts[opCX] != 0 || counts[opZZ] != 0 || counts[opDiag1] != 0 {
		t.Fatalf("cost layer not fully fused: %d CX, %d ZZ, %d diag ops remain",
			counts[opCX], counts[opZZ], counts[opDiag1])
	}
	if counts[opDiagN] != 6 {
		t.Fatalf("diagonal groups = %d, want 2 per round × 3 rounds", counts[opDiagN])
	}
	if counts[opDense1] != 56 {
		t.Fatalf("dense ops = %d, want 14 H + 42 RX", counts[opDense1])
	}
}

// TestRunConfiguredMatchesRun pins that the default Run is the fused
// auto-worker configuration.
func TestRunConfiguredMatchesRun(t *testing.T) {
	rng := mathx.NewRNG(5)
	c := randomCircuit(6, 50, rng)
	a, err := RunConfiguredCtx(context.Background(), c, 0, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunConfiguredCtx(context.Background(), c, 0, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.amp {
		if a.amp[i] != b.amp[i] {
			t.Fatalf("amp[%d]: %v vs %v", i, a.amp[i], b.amp[i])
		}
	}
}

// TestReset pins in-place reinitialization: after evolving, Reset returns
// the buffer to an exact basis state without reallocating.
func TestReset(t *testing.T) {
	s := mustRun(t, circuit.New("h", 3).H(0).CX(0, 1).T(2))
	buf := &s.amp[0]
	if err := s.Reset(0b101); err != nil {
		t.Fatal(err)
	}
	if &s.amp[0] != buf {
		t.Error("Reset reallocated the amplitude buffer")
	}
	for i := range s.amp {
		want := complex128(0)
		if i == 0b101 {
			want = 1
		}
		if s.amp[i] != want {
			t.Fatalf("amp[%d] = %v after Reset", i, s.amp[i])
		}
	}
	if err := s.Reset(8); err == nil {
		t.Error("out-of-range Reset should error")
	}
}

// TestProbabilitiesInto pins the zero-copy contract: a big-enough dst is
// reused, a short one is replaced, and values match Probabilities.
func TestProbabilitiesInto(t *testing.T) {
	s := mustRun(t, circuit.New("bell", 2).H(0).CX(0, 1))
	want := s.Probabilities()
	scratch := make([]float64, 4)
	got := s.ProbabilitiesInto(scratch)
	if &got[0] != &scratch[0] {
		t.Error("sufficient dst was not reused")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("p[%d] = %v want %v", i, got[i], want[i])
		}
	}
	if short := s.ProbabilitiesInto(make([]float64, 1)); len(short) != 4 {
		t.Fatalf("short dst: len %d want 4", len(short))
	}
}

// TestDistPreSized pins that the pre-sized Dist matches the probability
// vector (same support, same mass).
func TestDistPreSized(t *testing.T) {
	rng := mathx.NewRNG(11)
	s := mustRun(t, randomCircuit(8, 60, rng))
	d := s.Dist()
	support := 0
	for i, p := range s.Probabilities() {
		if p > 1e-12 {
			support++
			if d.Count(bitstring.BitString(i)) != p {
				t.Fatalf("dist[%d] = %v want %v", i, d.Count(bitstring.BitString(i)), p)
			}
		}
	}
	if d.Support() != support {
		t.Fatalf("support %d want %d", d.Support(), support)
	}
}
