package noise

import (
	"context"
	"math"
	"testing"

	"qbeep/internal/bitstring"
	"qbeep/internal/circuit"
	"qbeep/internal/device"
	"qbeep/internal/mathx"
)

func TestDensityExecutorValidation(t *testing.T) {
	if _, err := NewDensityExecutor(nil); err == nil {
		t.Error("nil backend should error")
	}
	b := testBackend(t)
	e, err := NewDensityExecutor(b)
	if err != nil {
		t.Fatal(err)
	}
	wide := circuit.New("wide", 12).H(0)
	if _, _, err := e.ExecuteExactCtx(context.Background(), wide, 0, nil); err == nil {
		t.Error("over-wide circuit should error")
	}
	c := circuit.New("ok", 2).H(0)
	if _, _, err := e.ExecuteExactCtx(context.Background(), c, -1, nil); err == nil {
		t.Error("negative shots should error")
	}
	if _, _, err := e.ExecuteExactCtx(context.Background(), c, 10, nil); err == nil {
		t.Error("shots without RNG should error")
	}
	if _, _, err := e.ExecuteExactCtx(context.Background(), circuit.New("bad", 1).H(9), 0, nil); err == nil {
		t.Error("broken circuit should error")
	}
}

func TestDensityExecutorExactMass(t *testing.T) {
	b := testBackend(t)
	e, _ := NewDensityExecutor(b)
	exact, _, err := e.ExecuteExactCtx(context.Background(), ghz(4), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact.Total()-1) > 1e-9 {
		t.Errorf("exact distribution mass %v", exact.Total())
	}
	// GHZ pair still dominant under realistic noise.
	if exact.Prob(0)+exact.Prob(0b1111) < 0.7 {
		t.Errorf("GHZ mass %v", exact.Prob(0)+exact.Prob(0b1111))
	}
	// But strictly below 1: noise leaks mass.
	if exact.Prob(0)+exact.Prob(0b1111) > 0.999999 {
		t.Error("no noise leaked — channels not applied?")
	}
}

func TestDensityExecutorSampling(t *testing.T) {
	b := testBackend(t)
	e, _ := NewDensityExecutor(b)
	exact, sampled, err := e.ExecuteExactCtx(context.Background(), ghz(3), 8000, mathx.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	if sampled.Total() != 8000 {
		t.Fatalf("sampled total %v", sampled.Total())
	}
	// Sampled distribution converges on the exact one.
	if d := bitstring.TVD(exact, sampled.Normalized(1)); d > 0.03 {
		t.Errorf("TVD between exact and sampled: %v", d)
	}
}

func TestDensityAgainstFastExecutorDirection(t *testing.T) {
	// Both executors should agree on the coarse structure: same top
	// outcome and comparable total error mass for a BV-like circuit.
	b := testBackend(t)
	fast, _ := NewExecutor(b, MarkovianModel())
	exact, _ := NewDensityExecutor(b)

	c := circuit.New("point", 5)
	for q := 0; q < 5; q++ {
		c.X(q)
	}
	c.MeasureAll()

	fr, err := fast.ExecuteCtx(context.Background(), c, 8000, mathx.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	ex, _, err := exact.ExecuteExactCtx(context.Background(), c, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	topFast, _ := fr.Counts.Top()
	topExact, _ := ex.Top()
	if topFast != topExact {
		t.Errorf("top outcomes disagree: fast %b exact %b", topFast, topExact)
	}
	ones := bitstring.BitString(0b11111)
	pf := fr.Counts.Prob(ones)
	pe := ex.Prob(ones)
	if math.Abs(pf-pe) > 0.15 {
		t.Errorf("success probabilities diverge: fast %v exact %v", pf, pe)
	}
}

// Timings of dampedBackend: γ = 1 − e^(−t/T1) and λ = 1 − e^(−t/T2) are
// 0.095 and 0.18 on a one-qubit gate and 0.26 and 0.45 on a two-qubit
// gate, so every damping channel moves the populations well past 1e-12.
const (
	dampT1    = 1e-6
	dampT2    = 5e-7
	dampDur1q = 1e-7
	dampDur2q = 3e-7
)

// dampedBackend is uniformBackend with T1, T2 and gate durations set so
// the amplitude- and phase-damping channels are far from the identity.
func dampedBackend(t *testing.T, n int, err1q, err2q, readout float64) *device.Backend {
	t.Helper()
	b := uniformBackend(t, n, err1q, err2q, readout)
	cal := b.Calibration
	for q := range cal.Qubits {
		cal.Qubits[q].T1, cal.Qubits[q].T2 = dampT1, dampT2
		cal.Gates1Q[q].Duration = dampDur1q
	}
	for e, g := range cal.Gates2Q {
		g.Duration = dampDur2q
		cal.Gates2Q[e] = g
	}
	return b
}

// TestDensityExecutorClosedForm is DensityExecutor's named oracle: exact
// populations against hand-derived closed forms of its channel sequence
// (per gate and involved qubit: depolarizing with total Pauli
// probability p — each of X, Y, Z with p/3 — then amplitude damping γ,
// then phase damping λ; a readout bit flip r at the end). Depolarizing
// shrinks the Bloch vector by s = 1 − 4p/3, so a basis state flips with
// probability 2p/3. The circuits between them expose every channel:
// X(0) the depolarizing weight, damping and readout; X(0)·CX(0,1) the
// even split of the two-qubit error and the two-qubit duration; H(0)·H(0)
// T2, through the coherence the second H turns back into population.
func TestDensityExecutorClosedForm(t *testing.T) {
	const p1, p2, r = 0.03, 0.08, 0.02
	gamma := func(dur float64) float64 { return 1 - math.Exp(-dur/dampT1) }
	lambda := func(dur float64) float64 { return 1 - math.Exp(-dur/dampT2) }
	readout := func(p float64) float64 { return r + (1-2*r)*p }
	g1, l1, g2 := gamma(dampDur1q), lambda(dampDur1q), gamma(dampDur2q)

	// X(0): P(1) = r + (1−2r)(1−2p/3)(1−γ).
	px := readout((1 - 2*p1/3) * (1 - g1))

	// X(0)·CX(0,1): the state stays diagonal, so each qubit is a classical
	// bit. CX copies q0 into q1; then each qubit flips with probability
	// 2(p2/2)/3 and decays with γ2, independently.
	a := (1 - 2*p1/3) * (1 - g1) // P(q0 = 1) before the CX
	f := p2 / 3
	one := func(b int) float64 { // P(qubit reads 1 | it held b after the CX)
		if b == 1 {
			return readout((1 - f) * (1 - g2))
		}
		return readout(f * (1 - g2))
	}
	pr := func(x, b int) float64 {
		if x == 1 {
			return one(b)
		}
		return 1 - one(b)
	}
	cx := make([]float64, 4)
	for v := 0; v < 4; v++ {
		q0, q1 := v&1, v>>1&1
		cx[v] = (1-a)*pr(q0, 0)*pr(q1, 0) + a*pr(q0, 1)*pr(q1, 1)
	}

	// H(0)·H(0) in the Bloch picture: H swaps x and z; depolarizing scales
	// by s; amplitude damping sends (x, z) to (√(1−γ)x, (1−γ)z + γ); phase
	// damping scales x by √(1−λ). The first gate leaves
	// (x, z) = (s√((1−γ)(1−λ)), γ); the second H, depolarizing and damping
	// leave z = (1−γ)s²√((1−γ)(1−λ)) + γ, and P(1) = (1 − z)/2.
	s := 1 - 4*p1/3
	z := (1-g1)*s*s*math.Sqrt((1-g1)*(1-l1)) + g1
	hh := readout((1 - z) / 2)

	cases := []struct {
		c    *circuit.Circuit
		want []float64
	}{
		{circuit.New("x", 1).X(0), []float64{1 - px, px}},
		{circuit.New("x-cx", 2).X(0).CX(0, 1), cx},
		{circuit.New("h-h", 1).H(0).H(0), []float64{1 - hh, hh}},
	}
	for _, tc := range cases {
		e, err := NewDensityExecutor(dampedBackend(t, tc.c.N, p1, p2, r))
		if err != nil {
			t.Fatal(err)
		}
		exact, _, err := e.ExecuteExactCtx(context.Background(), tc.c, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for v, want := range tc.want {
			if got := exact.Prob(bitstring.BitString(v)); math.Abs(got-want) > 1e-12 {
				t.Errorf("%s: P(%0*b) = %.15g, want %.15g", tc.c.Name, tc.c.N, v, got, want)
			}
		}
	}
}
