package noise

import (
	"context"
	"math"
	"testing"

	"qbeep/internal/bitstring"
	"qbeep/internal/circuit"
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
