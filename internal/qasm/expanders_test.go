package qasm

import (
	"context"
	"math"
	"testing"

	"qbeep/internal/circuit"
	"qbeep/internal/statevector"
)

// equivalentSrc asserts two programs implement the same unitary up to
// global phase, using a superposition probe to expose phases.
func equivalentSrc(t *testing.T, srcA, srcB string) {
	t.Helper()
	a, err := Parse(srcA)
	if err != nil {
		t.Fatalf("A: %v", err)
	}
	b, err := Parse(srcB)
	if err != nil {
		t.Fatalf("B: %v", err)
	}
	if a.N != b.N {
		t.Fatalf("width %d vs %d", a.N, b.N)
	}
	pre := circuit.New("probe", a.N)
	for q := 0; q < a.N; q++ {
		pre.H(q)
		pre.T(q)
	}
	pa := pre.Clone()
	for _, g := range a.Gates {
		pa.Append(g)
	}
	pb := pre.Clone()
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
	if math.Abs(f-1) > 1e-9 {
		t.Fatalf("programs differ: fidelity %v\nA: %s\nB: %s", f, srcA, srcB)
	}
}

func TestU1AliasIsRZ(t *testing.T) {
	equivalentSrc(t,
		"qreg q[1];\nu1(pi/4) q[0];",
		"qreg q[1];\nrz(pi/4) q[0];")
	equivalentSrc(t,
		"qreg q[1];\np(0.7) q[0];",
		"qreg q[1];\nrz(0.7) q[0];")
}

func TestU2Alias(t *testing.T) {
	// u2(0, π) = H up to global phase.
	equivalentSrc(t,
		"qreg q[1];\nu2(0,pi) q[0];",
		"qreg q[1];\nh q[0];")
}

func TestUAliasIsU3(t *testing.T) {
	equivalentSrc(t,
		"qreg q[1];\nu(0.3,0.4,0.5) q[0];",
		"qreg q[1];\nu3(0.3,0.4,0.5) q[0];")
}

func TestCU1IsControlledPhase(t *testing.T) {
	// cu1(π) = CZ.
	equivalentSrc(t,
		"qreg q[2];\ncu1(pi) q[0],q[1];",
		"qreg q[2];\ncz q[0],q[1];")
}

func TestRZZExpansion(t *testing.T) {
	equivalentSrc(t,
		"qreg q[2];\nrzz(0.8) q[0],q[1];",
		"qreg q[2];\ncx q[0],q[1];\nrz(0.8) q[1];\ncx q[0],q[1];")
}

func TestExpanderArityErrors(t *testing.T) {
	cases := []string{
		"qreg q[2];\nu1(pi) q[0],q[1];",
		"qreg q[1];\nu1() q[0];",
		"qreg q[1];\nu2(pi) q[0];",
		"qreg q[1];\nu(0.1,0.2) q[0];",
		"qreg q[2];\ncu1(pi) q[0];",
		"qreg q[1];\nrzz(0.1) q[0];",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("should reject %q", src)
		}
	}
}

func TestQASMBenchStyleProgram(t *testing.T) {
	// A fragment in the idiom QASMBench files actually use.
	src := `OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
u2(0,pi) q[0];
u1(pi/8) q[1];
cu1(pi/4) q[0],q[1];
u(0.1,0.2,0.3) q[2];
rzz(0.5) q[1],q[2];
measure q[0] -> c[0];
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.GateCount() == 0 || !c.HasMeasurement() {
		t.Errorf("parsed shape wrong: %s", c)
	}
	// Everything expands into the native IR, so it re-serializes.
	if _, err := Write(c); err != nil {
		t.Fatal(err)
	}
}
