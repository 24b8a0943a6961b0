package algorithms

import (
	"context"
	"math"
	"testing"

	"qbeep/internal/bitstring"
	"qbeep/internal/circuit"
	"qbeep/internal/statevector"
)

func TestMCXTruthTable(t *testing.T) {
	// 4 controls, 2 ancillas: target flips iff all controls set, ancillas
	// return to zero.
	const nc = 4
	ctrls := []int{0, 1, 2, 3}
	target := 4
	ancillas := []int{5, 6}
	for in := 0; in < 1<<nc; in++ {
		c := circuit.New("mcx", 7)
		for q := 0; q < nc; q++ {
			if in&(1<<q) != 0 {
				c.X(q)
			}
		}
		if err := mcx(c, ctrls, target, ancillas); err != nil {
			t.Fatal(err)
		}
		s, err := statevector.RunConfiguredCtx(context.Background(), c, 0, statevector.RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		want := bitstring.BitString(in)
		if in == (1<<nc)-1 {
			want |= 1 << uint(target)
		}
		if math.Abs(s.Prob(want)-1) > 1e-9 {
			t.Fatalf("controls %04b: expected %07b, probs elsewhere", in, want)
		}
	}
}

func TestMCXSmallArities(t *testing.T) {
	// 0 controls: plain X.
	c := circuit.New("x", 1)
	if err := mcx(c, nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	s, _ := statevector.RunConfiguredCtx(context.Background(), c, 0, statevector.RunConfig{})
	if s.Prob(1) != 1 {
		t.Error("0-control mcx should be X")
	}
	// Insufficient ancillas.
	c = circuit.New("bad", 5)
	if err := mcx(c, []int{0, 1, 2}, 3, nil); err == nil {
		t.Error("missing ancillas should error")
	}
}

func TestGroverFindsMarkedState(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5} {
		marked := bitstring.BitString((1 << uint(n)) - 2) // 1..10
		w, err := Grover(n, marked)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		ideal, err := w.IdealDistCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		p := ideal.Prob(marked)
		// Grover's success probability at the optimal iteration count is
		// > 0.8 for n >= 2 (exactly 1.0 at n = 2).
		if p < 0.8 {
			t.Errorf("n=%d: P(marked) = %v", n, p)
		}
		top, _ := ideal.Top()
		if top != marked {
			t.Errorf("n=%d: top outcome %b != marked %b", n, top, marked)
		}
	}
}

func TestGroverValidation(t *testing.T) {
	if _, err := Grover(1, 0); err == nil {
		t.Error("n=1 should error")
	}
	if _, err := Grover(11, 0); err == nil {
		t.Error("n=11 should error")
	}
	if _, err := Grover(3, 0b11111); err == nil {
		t.Error("oversized marked state should error")
	}
}

func TestGroverAncillasReturnToZero(t *testing.T) {
	w, err := Grover(5, 0b10101)
	if err != nil {
		t.Fatal(err)
	}
	full, err := statevector.IdealDistCtx(context.Background(), w.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	// All probability mass must have zero ancilla bits (qubits 5..7).
	for _, o := range full.Outcomes() {
		if uint64(o)>>5 != 0 {
			t.Fatalf("ancilla excited in outcome %b (p=%v)", o, full.Prob(o))
		}
	}
}

func TestQPEExactPhase(t *testing.T) {
	// φ = 3/8 is exactly representable with 3 bits: answer 011.
	w, err := QPE(3, 3.0/8)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Deterministic || w.Expected != 3 {
		t.Fatalf("metadata: deterministic=%v expected=%b", w.Deterministic, w.Expected)
	}
	ideal, err := w.IdealDistCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ideal.Prob(3)-1) > 1e-9 {
		t.Errorf("P(011) = %v", ideal.Prob(3))
	}
}

func TestQPEInexactPhasePeaks(t *testing.T) {
	// φ = 0.3 with 4 bits: peak at round(0.3·16) = 5.
	w, err := QPE(4, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if w.Deterministic {
		t.Error("inexact phase should not be deterministic")
	}
	ideal, err := w.IdealDistCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	top, _ := ideal.Top()
	if top != 5 {
		t.Errorf("top outcome %d want 5", top)
	}
	if ideal.Prob(5) < 0.4 {
		t.Errorf("peak mass %v too low", ideal.Prob(5))
	}
}

func TestQPEValidation(t *testing.T) {
	if _, err := QPE(0, 0.5); err == nil {
		t.Error("zero bits should error")
	}
	if _, err := QPE(3, 1.0); err == nil {
		t.Error("phase >= 1 should error")
	}
	if _, err := QPE(3, -0.1); err == nil {
		t.Error("negative phase should error")
	}
}

func TestQPEAllExactPhases(t *testing.T) {
	const bits = 3
	for k := 0; k < 8; k++ {
		w, err := QPE(bits, float64(k)/8)
		if err != nil {
			t.Fatal(err)
		}
		ideal, err := w.IdealDistCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ideal.Prob(bitstring.BitString(k))-1) > 1e-9 {
			t.Errorf("k=%d: P = %v", k, ideal.Prob(bitstring.BitString(k)))
		}
	}
}
