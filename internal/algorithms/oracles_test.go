package algorithms

import (
	"context"
	"math"
	"testing"

	"qbeep/internal/bitstring"
)

func TestDeutschJozsaConstant(t *testing.T) {
	w, err := DeutschJozsa(5, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := w.IdealDistCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ideal.Prob(0)-1) > 1e-9 {
		t.Errorf("constant oracle should output zeros: %v", ideal.StringCounts())
	}
}

func TestDeutschJozsaBalanced(t *testing.T) {
	for _, mask := range []bitstring.BitString{0b1, 0b101, 0b1111} {
		w, err := DeutschJozsa(4, false, mask)
		if err != nil {
			t.Fatal(err)
		}
		ideal, err := w.IdealDistCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ideal.Prob(mask)-1) > 1e-9 {
			t.Errorf("mask %b: P = %v", mask, ideal.Prob(mask))
		}
		if !w.Deterministic || w.Expected != mask {
			t.Errorf("mask %b: metadata wrong", mask)
		}
	}
}

func TestDeutschJozsaValidation(t *testing.T) {
	if _, err := DeutschJozsa(0, true, 0); err == nil {
		t.Error("zero width should error")
	}
	if _, err := DeutschJozsa(3, false, 0); err == nil {
		t.Error("balanced with zero mask should error")
	}
	if _, err := DeutschJozsa(3, false, 0b11111); err == nil {
		t.Error("oversized mask should error")
	}
}

func TestSimonOutputsOrthogonalToPeriod(t *testing.T) {
	for _, tc := range []struct {
		n int
		s bitstring.BitString
	}{
		{3, 0b101}, {4, 0b0110}, {5, 0b10001}, {4, 0b1000},
	} {
		w, err := Simon(tc.n, tc.s)
		if err != nil {
			t.Fatalf("n=%d s=%b: %v", tc.n, tc.s, err)
		}
		ideal, err := w.IdealDistCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		// Every outcome satisfies y·s = 0 and the support is exactly the
		// orthogonal subspace (2^(n-1) strings, uniform).
		want := 1 << uint(tc.n-1)
		if ideal.Support() != want {
			t.Errorf("n=%d s=%b: support %d want %d", tc.n, tc.s, ideal.Support(), want)
		}
		for _, y := range ideal.Outcomes() {
			if !SimonConsistent(y, tc.s) {
				t.Errorf("n=%d s=%b: outcome %b violates the promise", tc.n, tc.s, y)
			}
			if math.Abs(ideal.Prob(y)-1/float64(want)) > 1e-9 {
				t.Errorf("n=%d s=%b: P(%b) = %v not uniform", tc.n, tc.s, y, ideal.Prob(y))
			}
		}
	}
}

func TestSimonEntropyBetweenBVAndQRNG(t *testing.T) {
	w, err := Simon(4, 0b0101)
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := w.IdealDistCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	h := ideal.Entropy()
	if math.Abs(h-3) > 1e-9 { // 2^(4-1) = 8 outcomes → 3 bits
		t.Errorf("simon entropy %v want 3", h)
	}
}

func TestSimonValidation(t *testing.T) {
	if _, err := Simon(1, 1); err == nil {
		t.Error("n=1 should error")
	}
	if _, err := Simon(3, 0); err == nil {
		t.Error("zero period should error")
	}
	if _, err := Simon(3, 0b1111); err == nil {
		t.Error("oversized period should error")
	}
}

func TestSimonConsistent(t *testing.T) {
	if !SimonConsistent(0b110, 0b101) { // overlap 100 → weight 1? 110&101=100 weight 1 → odd
		// recompute: 0b110 & 0b101 = 0b100, weight 1 → inconsistent.
		t.Log("0b110·0b101 is odd — verifying the negative case below")
	}
	if SimonConsistent(0b110, 0b101) {
		t.Error("0b110 should be inconsistent with 0b101")
	}
	if !SimonConsistent(0b011, 0b101) { // 011&101 = 001, weight 1 → odd → inconsistent!
		t.Log("also odd")
	}
	if SimonConsistent(0b011, 0b101) {
		t.Error("0b011 should be inconsistent with 0b101")
	}
	if !SimonConsistent(0b101, 0b101) { // overlap weight 2 → even
		t.Error("0b101 should be consistent with itself")
	}
	if !SimonConsistent(0, 0b101) {
		t.Error("zero is consistent with everything")
	}
}

func TestExtendedSuite(t *testing.T) {
	ext := ExtendedSuite()
	if len(ext) != len(Suite())+4 {
		t.Fatalf("extended suite size %d", len(ext))
	}
	for _, e := range ext {
		w, err := e.Build()
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if _, err := w.IdealDistCtx(context.Background()); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
	}
	if _, err := BySuiteName("grover_n4"); err != nil {
		t.Errorf("extended entry not resolvable: %v", err)
	}
}
