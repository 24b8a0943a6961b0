package algorithms

import (
	"context"
	"math"
	"testing"

	"qbeep/internal/bitstring"
	"qbeep/internal/circuit"
	"qbeep/internal/mathx"
	"qbeep/internal/statevector"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestBernsteinVaziraniRecoversSecret(t *testing.T) {
	for _, n := range []int{3, 5, 8, 12} {
		rng := mathx.NewRNG(uint64(n))
		secret := RandomSecret(n, rng)
		w, err := BernsteinVazirani(n, secret)
		if err != nil {
			t.Fatal(err)
		}
		if !w.Deterministic || w.Expected != secret {
			t.Fatalf("n=%d: workload metadata wrong", n)
		}
		ideal, err := w.IdealDistCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !approx(ideal.Prob(secret), 1, 1e-9) {
			t.Errorf("n=%d: P(secret) = %v", n, ideal.Prob(secret))
		}
	}
}

func TestBernsteinVaziraniValidation(t *testing.T) {
	if _, err := BernsteinVazirani(0, 0); err == nil {
		t.Error("zero width should error")
	}
	if _, err := BernsteinVazirani(3, 0b1111); err == nil {
		t.Error("oversized secret should error")
	}
}

func TestRandomSecretNonZero(t *testing.T) {
	rng := mathx.NewRNG(1)
	for i := 0; i < 100; i++ {
		s := RandomSecret(6, rng)
		if s == 0 || uint64(s) >= 64 {
			t.Fatalf("secret %d out of range", s)
		}
	}
}

func TestRandomizedBenchmarkingIdentity(t *testing.T) {
	rng := mathx.NewRNG(44)
	for _, layers := range []int{1, 4, 8} {
		w, err := RandomizedBenchmarking(5, layers, rng)
		if err != nil {
			t.Fatal(err)
		}
		ideal, err := w.IdealDistCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !approx(ideal.Prob(w.Expected), 1, 1e-9) {
			t.Errorf("layers=%d: P(expected) = %v", layers, ideal.Prob(w.Expected))
		}
	}
}

func TestSuiteAllBuildAndSimulate(t *testing.T) {
	for _, e := range Suite() {
		w, err := e.Build()
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if w.Circuit.Err() != nil {
			t.Fatalf("%s: circuit error %v", e.Name, w.Circuit.Err())
		}
		ideal, err := w.IdealDistCtx(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if ideal.Support() == 0 {
			t.Fatalf("%s: empty ideal distribution", e.Name)
		}
		var sum float64
		ideal.Each(func(_ bitstring.BitString, c float64) { sum += c })
		if !approx(sum, 1, 1e-9) {
			t.Errorf("%s: ideal mass %v", e.Name, sum)
		}
		if !w.Circuit.HasMeasurement() {
			t.Errorf("%s: no measurements", e.Name)
		}
	}
}

func TestSuiteNamesSortedUnique(t *testing.T) {
	entries := Suite()
	if len(entries) < 12 {
		t.Fatalf("suite has %d entries, want >= 12 (the paper uses 12-14)", len(entries))
	}
	for i := 1; i < len(entries); i++ {
		if entries[i-1].Name >= entries[i].Name {
			t.Errorf("suite not sorted at %d: %s >= %s", i, entries[i-1].Name, entries[i].Name)
		}
	}
}

func TestBySuiteName(t *testing.T) {
	w, err := BySuiteName("adder_n4")
	if err != nil {
		t.Fatal(err)
	}
	if w.Circuit.Name != "adder-n4" {
		t.Errorf("got %q", w.Circuit.Name)
	}
	if _, err := BySuiteName("nope"); err == nil {
		t.Error("unknown name should error")
	}
}

func TestDeterministicBenchmarks(t *testing.T) {
	for _, name := range []string{"adder_n4", "toffoli_n3", "fredkin_n3", "hs4_n4"} {
		w, err := BySuiteName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !w.Deterministic {
			t.Errorf("%s should be deterministic", name)
		}
		ideal, _ := w.IdealDistCtx(context.Background())
		if !approx(ideal.Prob(w.Expected), 1, 1e-9) {
			t.Errorf("%s: P(expected)=%v", name, ideal.Prob(w.Expected))
		}
	}
}

func TestToffoliOutput(t *testing.T) {
	w, _ := Toffoli()
	if w.Expected != 0b111 {
		t.Errorf("toffoli expected %03b want 111", w.Expected)
	}
}

func TestFredkinSwaps(t *testing.T) {
	w, _ := Fredkin()
	// control q0=1, q1=1, q2=0 -> swap q1,q2 -> q0=1,q1=0,q2=1 = 101.
	if w.Expected != 0b101 {
		t.Errorf("fredkin expected %03b want 101", w.Expected)
	}
}

func TestAdderComputesSum(t *testing.T) {
	w, _ := Adder()
	// a=1, b=1, cin=0: sum=0, cout=1. Layout: q0=sum, q1=a, q2=b, q3=cout.
	// q1 restored to 1, q2 restored to 1, q0 = 0, q3 = 1 -> 1110.
	if w.Expected != 0b1110 {
		t.Errorf("adder expected %04b want 1110", w.Expected)
	}
}

func TestWStateUniformWeightOne(t *testing.T) {
	w, err := WState()
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := w.IdealDistCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ideal.Support() != 3 {
		t.Fatalf("W state support %d: %v", ideal.Support(), ideal.StringCounts())
	}
	for _, o := range ideal.Outcomes() {
		if o.Weight() != 1 {
			t.Errorf("outcome %03b has weight %d", o, o.Weight())
		}
		if !approx(ideal.Prob(o), 1.0/3, 1e-9) {
			t.Errorf("P(%03b) = %v", o, ideal.Prob(o))
		}
	}
}

func TestQRNGMaxEntropy(t *testing.T) {
	w, _ := QRNG()
	ideal, _ := w.IdealDistCtx(context.Background())
	if !approx(ideal.Entropy(), 4, 1e-9) {
		t.Errorf("qrng entropy %v want 4", ideal.Entropy())
	}
}

func TestQFTMaxEntropy(t *testing.T) {
	w, err := QFT()
	if err != nil {
		t.Fatal(err)
	}
	ideal, _ := w.IdealDistCtx(context.Background())
	if !approx(ideal.Entropy(), 4, 1e-6) {
		t.Errorf("qft entropy %v want 4", ideal.Entropy())
	}
}

func TestCatStateEntropyOne(t *testing.T) {
	w, _ := CatState()
	ideal, _ := w.IdealDistCtx(context.Background())
	if !approx(ideal.Entropy(), 1, 1e-9) {
		t.Errorf("cat entropy %v want 1", ideal.Entropy())
	}
	if !approx(ideal.Prob(0), 0.5, 1e-9) || !approx(ideal.Prob(0b1111), 0.5, 1e-9) {
		t.Errorf("cat outcomes: %v", ideal.StringCounts())
	}
}

func TestEntropySpreadAcrossSuite(t *testing.T) {
	// Fig. 11 depends on the suite spanning low to high entropy.
	var lo, hi float64 = math.Inf(1), math.Inf(-1)
	for _, e := range Suite() {
		w, err := e.Build()
		if err != nil {
			t.Fatal(err)
		}
		ideal, err := w.IdealDistCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		h := ideal.Entropy()
		if h < lo {
			lo = h
		}
		if h > hi {
			hi = h
		}
	}
	if lo > 1e-9 {
		t.Errorf("no zero-entropy benchmark (min %v)", lo)
	}
	if hi < 3 {
		t.Errorf("no high-entropy benchmark (max %v)", hi)
	}
}

func TestControlledPhaseDecomposition(t *testing.T) {
	// cp(π) must equal CZ, phases included: probe with a superposition.
	a := circuit.New("cp", 2)
	cp(a, math.Pi, 0, 1)
	b := circuit.New("cz", 2).CZ(0, 1)
	pa := circuit.New("pa", 2).H(0).T(1).H(1)
	for _, g := range a.Gates {
		pa.Append(g)
	}
	pb := circuit.New("pb", 2).H(0).T(1).H(1)
	for _, g := range b.Gates {
		pb.Append(g)
	}
	sa, err := statevector.RunConfiguredCtx(context.Background(), pa, 0, statevector.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := statevector.RunConfiguredCtx(context.Background(), pb, 0, statevector.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := sa.FidelityWith(sb)
	if !approx(f, 1, 1e-9) {
		t.Fatalf("cp(π) != CZ: fidelity %v", f)
	}
}

func TestMarginalCounts(t *testing.T) {
	w, _ := BernsteinVazirani(3, 0b101)
	full := bitstring.NewDist(4)
	full.Add(0b0101, 10) // ancilla 0, data 101
	full.Add(0b1101, 20) // ancilla 1, data 101
	m, err := w.MarginalCounts(full)
	if err != nil {
		t.Fatal(err)
	}
	if m.Count(0b101) != 30 {
		t.Errorf("marginal counts %v", m.StringCounts())
	}
}

func BenchmarkBuildSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, e := range Suite() {
			if _, err := e.Build(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
