package clifford

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"qbeep/internal/bitstring"
	"qbeep/internal/circuit"
	"qbeep/internal/mathx"
	"qbeep/internal/statevector"
)

func TestIdentityTableau(t *testing.T) {
	tab, err := NewTableau(3)
	if err != nil {
		t.Fatal(err)
	}
	if !tab.IsIdentity() {
		t.Error("fresh tableau should be identity")
	}
	if tab.N() != 3 {
		t.Errorf("N = %d", tab.N())
	}
	if _, err := NewTableau(0); err == nil {
		t.Error("zero width should error")
	}
}

func TestSingleGateNonIdentity(t *testing.T) {
	for _, k := range []circuit.Kind{circuit.H, circuit.S, circuit.X, circuit.Z, circuit.SX} {
		tab, _ := NewTableau(2)
		if err := tab.Apply(circuit.Gate{Kind: k, Qubits: []int{0}}); err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if tab.IsIdentity() {
			t.Errorf("%s should not be identity", k)
		}
	}
}

func TestSelfInverseGates(t *testing.T) {
	for _, k := range []circuit.Kind{circuit.H, circuit.X, circuit.Y, circuit.Z} {
		tab, _ := NewTableau(2)
		g := circuit.Gate{Kind: k, Qubits: []int{0}}
		tab.Apply(g)
		tab.Apply(g)
		if !tab.IsIdentity() {
			t.Errorf("%s² should be identity", k)
		}
	}
	for _, k := range []circuit.Kind{circuit.CX, circuit.CZ, circuit.SWAP} {
		tab, _ := NewTableau(2)
		g := circuit.Gate{Kind: k, Qubits: []int{0, 1}}
		tab.Apply(g)
		tab.Apply(g)
		if !tab.IsIdentity() {
			t.Errorf("%s² should be identity", k)
		}
	}
}

func TestSOrderFour(t *testing.T) {
	tab, _ := NewTableau(1)
	g := circuit.Gate{Kind: circuit.S, Qubits: []int{0}}
	for i := 0; i < 4; i++ {
		if tab.IsIdentity() != (i == 0) {
			t.Errorf("S^%d identity = %v", i, tab.IsIdentity())
		}
		tab.Apply(g)
	}
	if !tab.IsIdentity() {
		t.Error("S⁴ should be identity")
	}
}

func TestSdgInvertsS(t *testing.T) {
	tab, _ := NewTableau(1)
	tab.Apply(circuit.Gate{Kind: circuit.S, Qubits: []int{0}})
	tab.Apply(circuit.Gate{Kind: circuit.Sdg, Qubits: []int{0}})
	if !tab.IsIdentity() {
		t.Error("S·Sdg should be identity")
	}
}

func TestSXviaHSH(t *testing.T) {
	// SX applied twice is X (up to global phase); tableau should agree:
	// SX·SX·X = identity.
	tab, _ := NewTableau(1)
	tab.Apply(circuit.Gate{Kind: circuit.SX, Qubits: []int{0}})
	tab.Apply(circuit.Gate{Kind: circuit.SX, Qubits: []int{0}})
	tab.Apply(circuit.Gate{Kind: circuit.X, Qubits: []int{0}})
	if !tab.IsIdentity() {
		t.Error("SX²·X should be identity")
	}
}

func TestApplyRejectsNonClifford(t *testing.T) {
	tab, _ := NewTableau(1)
	if err := tab.Apply(circuit.Gate{Kind: circuit.T, Qubits: []int{0}}); err == nil {
		t.Error("T should be rejected")
	}
	if err := tab.Apply(circuit.Gate{Kind: circuit.RZ, Qubits: []int{0}, Params: []float64{1}}); err == nil {
		t.Error("RZ should be rejected")
	}
	if err := tab.Apply(circuit.Gate{Kind: circuit.H, Qubits: []int{5}}); err == nil {
		t.Error("out-of-range qubit should be rejected")
	}
}

func TestApplyCircuitWidthMismatch(t *testing.T) {
	tab, _ := NewTableau(2)
	if err := tab.ApplyCircuit(circuit.New("w", 3).H(0)); err == nil {
		t.Error("width mismatch should error")
	}
	if err := tab.ApplyCircuit(circuit.New("bad", 2).H(9)); err == nil {
		t.Error("broken circuit should error")
	}
}

func TestApplyCircuitSkipsMeasure(t *testing.T) {
	tab, _ := NewTableau(1)
	c := circuit.New("m", 1).H(0).H(0).Measure(0)
	if err := tab.ApplyCircuit(c); err != nil {
		t.Fatal(err)
	}
	if !tab.IsIdentity() {
		t.Error("HH with measurement should be tableau identity")
	}
}

func TestInvertGateUnsupported(t *testing.T) {
	if _, err := InvertGate(circuit.Gate{Kind: circuit.T, Qubits: []int{0}}); err == nil {
		t.Error("inverting T should error")
	}
}

func TestInvertSequenceRandom(t *testing.T) {
	// Property: seq + InvertSequence(seq) is the identity on the tableau.
	f := func(seed uint32, layersRaw uint8) bool {
		rng := mathx.NewRNG(uint64(seed))
		layers := int(layersRaw%5) + 1
		seq := RandomCliffordSequence(4, layers, rng)
		inv, err := InvertSequence(seq)
		if err != nil {
			return false
		}
		tab, _ := NewTableau(4)
		for _, g := range append(append([]circuit.Gate{}, seq...), inv...) {
			if err := tab.Apply(g); err != nil {
				return false
			}
		}
		return tab.IsIdentity()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTableauAgreesWithStatevector(t *testing.T) {
	// A random Clifford sequence that the tableau says is identity must fix
	// every basis state in the statevector simulator (up to global phase).
	rng := mathx.NewRNG(99)
	for trial := 0; trial < 10; trial++ {
		c, err := RBCircuit("rb", 4, 3, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, init := range []bitstring.BitString{0, 0b1010, 0b1111} {
			s, err := statevector.RunConfiguredCtx(context.Background(), c, init, statevector.RunConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if p := s.Prob(init); math.Abs(p-1) > 1e-9 {
				t.Fatalf("trial %d init %04b: P = %v, want 1", trial, init, p)
			}
		}
	}
}

func TestRBCircuitErrors(t *testing.T) {
	rng := mathx.NewRNG(1)
	if _, err := RBCircuit("bad", 0, 1, rng); err == nil {
		t.Error("zero width should error")
	}
	if _, err := RBCircuit("bad", 3, -1, rng); err == nil {
		t.Error("negative layers should error")
	}
}

func TestRBCircuitGateCountGrowsWithLayers(t *testing.T) {
	rng := mathx.NewRNG(5)
	c1, err := RBCircuit("rb1", 5, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := RBCircuit("rb2", 5, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	if c2.GateCount() <= c1.GateCount() {
		t.Errorf("gate count did not grow: %d vs %d", c1.GateCount(), c2.GateCount())
	}
}

func TestRBCircuitZeroLayers(t *testing.T) {
	c, err := RBCircuit("rb0", 3, 0, mathx.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if c.GateCount() != 0 {
		t.Errorf("zero layers should have zero unitaries, got %d", c.GateCount())
	}
}

func TestCloneIndependence(t *testing.T) {
	tab, _ := NewTableau(2)
	c := tab.Clone()
	c.Apply(circuit.Gate{Kind: circuit.H, Qubits: []int{0}})
	if !tab.IsIdentity() {
		t.Error("clone shares state")
	}
	if c.IsIdentity() {
		t.Error("clone did not apply")
	}
}

func TestRandomLayerShape(t *testing.T) {
	rng := mathx.NewRNG(2)
	gates := RandomLayer(nil, 6, rng)
	oneQ, twoQ := 0, 0
	for _, g := range gates {
		switch len(g.Qubits) {
		case 1:
			oneQ++
		case 2:
			twoQ++
		}
	}
	if oneQ != 6 {
		t.Errorf("one-qubit gates %d want 6", oneQ)
	}
	if twoQ != 3 {
		t.Errorf("two-qubit gates %d want 3", twoQ)
	}
}

func BenchmarkRBCircuit12Q(b *testing.B) {
	rng := mathx.NewRNG(1)
	for i := 0; i < b.N; i++ {
		if _, err := RBCircuit("rb", 12, 8, rng); err != nil {
			b.Fatal(err)
		}
	}
}
