package noise

import (
	"context"
	"math"
	"testing"

	"qbeep/internal/bitstring"
	"qbeep/internal/circuit"
	"qbeep/internal/device"
	"qbeep/internal/mathx"
	"qbeep/internal/transpile"
)

func testBackend(t testing.TB) *device.Backend {
	t.Helper()
	b, err := device.ByName("eldorado")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func ghz(n int) *circuit.Circuit {
	c := circuit.New("ghz", n).H(0)
	for q := 0; q+1 < n; q++ {
		c.CX(q, q+1)
	}
	return c.MeasureAll()
}

func TestNewExecutorValidation(t *testing.T) {
	if _, err := NewExecutor(nil, DefaultModel()); err == nil {
		t.Error("nil backend should error")
	}
	b := testBackend(t)
	if _, err := NewExecutor(b, DefaultModel()); err != nil {
		t.Fatal(err)
	}
}

func TestExecuteArgs(t *testing.T) {
	b := testBackend(t)
	e, _ := NewExecutor(b, DefaultModel())
	if _, err := e.ExecuteCtx(context.Background(), ghz(3), 0, mathx.NewRNG(1)); err == nil {
		t.Error("zero shots should error")
	}
	wide := circuit.New("wide", 30).H(0)
	if _, err := e.ExecuteCtx(context.Background(), wide, 10, mathx.NewRNG(1)); err == nil {
		t.Error("over-wide circuit should error")
	}
}

// TestExecuteTranspiledArgs pins the input checks of the one sampling
// body: every malformed request returns an error instead of a bogus Run
// or a panic.
func TestExecuteTranspiledArgs(t *testing.T) {
	b := testBackend(t)
	e, _ := NewExecutor(b, DefaultModel())
	res3, err := transpile.TranspileCtx(context.Background(), ghz(3), b, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		c     *circuit.Circuit
		res   *transpile.Result
		shots int
	}{
		{"negative shots", ghz(3), res3, -5},
		{"zero shots", ghz(3), res3, 0},
		{"over-wide circuit", circuit.New("wide", 30).H(0), res3, 10},
		{"nil result", ghz(3), nil, 10},
		{"result without circuit", ghz(3), &transpile.Result{Final: res3.Final}, 10},
		{"result narrower than circuit", ghz(5), res3, 10},
	}
	for _, tc := range cases {
		if run, err := e.ExecuteTranspiledCtx(context.Background(), tc.c, tc.res, tc.shots, mathx.NewRNG(1)); err == nil {
			t.Errorf("%s: got run with %d shots, want error", tc.name, run.Shots)
		}
	}
}

func TestNoiselessModelIsIdeal(t *testing.T) {
	b := testBackend(t)
	e, _ := NewExecutor(b, Model{}) // all channels off
	run, err := e.ExecuteCtx(context.Background(), ghz(4), 4000, mathx.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	// Only 0000 and 1111 can appear.
	for _, o := range run.Counts.Outcomes() {
		if o != 0 && o != 0b1111 {
			t.Errorf("noiseless run produced %04b", o)
		}
	}
	if math.Abs(run.Counts.Prob(0)-0.5) > 0.05 {
		t.Errorf("prob(0000) = %v", run.Counts.Prob(0))
	}
	if run.Rates.TotalLambda() != 0 {
		t.Errorf("noiseless λ = %v", run.Rates.TotalLambda())
	}
}

func TestDefaultModelInjectsErrors(t *testing.T) {
	b := testBackend(t)
	e, _ := NewExecutor(b, DefaultModel())
	run, err := e.ExecuteCtx(context.Background(), ghz(5), 4096, mathx.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if run.Counts.Support() <= 2 {
		t.Errorf("support %d: expected error strings beyond the GHZ pair", run.Counts.Support())
	}
	if run.Rates.TotalLambda() <= 0 {
		t.Error("λ should be positive")
	}
	fid := bitstring.Fidelity(run.Ideal, run.Counts.Normalized(1))
	if fid >= 1 || fid <= 0 {
		t.Errorf("fidelity %v outside (0,1)", fid)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	b := testBackend(t)
	e, _ := NewExecutor(b, DefaultModel())
	r1, err := e.ExecuteCtx(context.Background(), ghz(4), 512, mathx.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := e.ExecuteCtx(context.Background(), ghz(4), 512, mathx.NewRNG(7))
	if bitstring.TVD(r1.Counts, r2.Counts) != 0 {
		t.Error("same seed produced different counts")
	}
}

func TestRatesComposition(t *testing.T) {
	b := testBackend(t)
	c := ghz(4)
	res, err := transpile.TranspileCtx(context.Background(), c, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Rates(res, b, DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	if full.Gate <= 0 || full.T1 <= 0 || full.T2 <= 0 || full.Readout <= 0 || full.Burst <= 0 {
		t.Errorf("all channels should contribute: %+v", full)
	}
	gatesOnly, _ := Rates(res, b, Model{GateErrors: true})
	if gatesOnly.T1 != 0 || gatesOnly.Readout != 0 || gatesOnly.Burst != 0 {
		t.Error("disabled channels should not contribute")
	}
	if math.Abs(gatesOnly.Gate-full.Gate) > 1e-15 {
		t.Error("gate rate should not depend on other channels")
	}
	if _, err := Rates(nil, b, DefaultModel()); err == nil {
		t.Error("nil result should error")
	}
}

func TestLambdaGrowsWithCircuitSize(t *testing.T) {
	b := testBackend(t)
	e, _ := NewExecutor(b, DefaultModel())
	small, err := e.ExecuteCtx(context.Background(), ghz(3), 64, mathx.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	// A much deeper circuit: repeat entangling layers.
	deep := circuit.New("deep", 3)
	for rep := 0; rep < 10; rep++ {
		deep.H(0).CX(0, 1).CX(1, 2).CX(0, 1)
	}
	deep.MeasureAll()
	big, err := e.ExecuteCtx(context.Background(), deep, 64, mathx.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if big.Rates.TotalLambda() <= small.Rates.TotalLambda() {
		t.Errorf("λ should grow with depth: %v vs %v",
			big.Rates.TotalLambda(), small.Rates.TotalLambda())
	}
}

func TestEHDGrowsWithGateCountUnderBursts(t *testing.T) {
	// The core phenomenon: expected Hamming distance of errors increases
	// with circuit complexity under the burst model.
	b := testBackend(t)
	e, _ := NewExecutor(b, DefaultModel())
	rng := mathx.NewRNG(11)

	ehdAtDepth := func(reps int) float64 {
		c := circuit.New("x-chain", 6)
		// Identity-equivalent payload: pairs of X cancel logically but the
		// transpiler keeps them if separated by barriers.
		for r := 0; r < reps; r++ {
			for q := 0; q < 6; q++ {
				c.X(q)
			}
			c.Barrier()
			for q := 0; q < 6; q++ {
				c.X(q)
			}
			c.Barrier()
		}
		c.MeasureAll()
		run, err := e.ExecuteCtx(context.Background(), c, 2048, rng)
		if err != nil {
			t.Fatal(err)
		}
		return run.Counts.ExpectedHamming(0) // ideal output is 000000
	}
	shallow := ehdAtDepth(2)
	deep := ehdAtDepth(60)
	if deep <= shallow {
		t.Errorf("EHD should grow with depth: shallow=%v deep=%v", shallow, deep)
	}
}

func TestMarkovianStaysLocal(t *testing.T) {
	// Negative control: without bursts, errors stay near the true output
	// even for deep circuits (EHD well below the burst model's).
	b := testBackend(t)
	rng := mathx.NewRNG(13)
	deep := circuit.New("deep", 6)
	for r := 0; r < 40; r++ {
		for q := 0; q < 6; q++ {
			deep.X(q)
		}
		deep.Barrier()
		for q := 0; q < 6; q++ {
			deep.X(q)
		}
		deep.Barrier()
	}
	deep.MeasureAll()

	markov, _ := NewExecutor(b, MarkovianModel())
	burst, _ := NewExecutor(b, DefaultModel())
	rm, err := markov.ExecuteCtx(context.Background(), deep, 2048, rng)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := burst.ExecuteCtx(context.Background(), deep, 2048, rng)
	if err != nil {
		t.Fatal(err)
	}
	if rm.Counts.ExpectedHamming(0) >= rb.Counts.ExpectedHamming(0) {
		t.Errorf("markovian EHD %v should be below burst EHD %v",
			rm.Counts.ExpectedHamming(0), rb.Counts.ExpectedHamming(0))
	}
}

func TestT1DecayIsDirectional(t *testing.T) {
	// Prepare |111111⟩ on a decoherence-only model with an artificially
	// long schedule: decayed bits only go 1 -> 0.
	b := testBackend(t)
	e, _ := NewExecutor(b, Model{Decoherence: true})
	c := circuit.New("ones", 6)
	for q := 0; q < 6; q++ {
		c.X(q)
	}
	// Pad depth to accumulate schedule time.
	for r := 0; r < 50; r++ {
		for q := 0; q < 6; q++ {
			c.RZ(0.1, q)
		}
		c.Barrier()
	}
	c.MeasureAll()
	run, err := e.ExecuteCtx(context.Background(), c, 4096, mathx.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	ones := bitstring.BitString(0b111111)
	if run.Counts.Prob(ones) > 0.9999 {
		t.Skip("schedule too short to observe decay")
	}
	// Weight of observed outcomes should never exceed 6 and trend down;
	// outcomes heavier than the ideal can only come from dephasing flips,
	// which move mass both ways — but pure decay cannot add weight.
	for _, o := range run.Counts.Outcomes() {
		if o.Weight() > 6 {
			t.Fatalf("impossible outcome %b", o)
		}
	}
	var meanW float64
	run.Counts.Each(func(v bitstring.BitString, cnt float64) {
		meanW += float64(v.Weight()) * cnt
	})
	meanW /= run.Counts.Total()
	if meanW >= 6 {
		t.Errorf("mean weight %v should drop below 6 under decay", meanW)
	}
}

func TestTrajectorySampler(t *testing.T) {
	b := testBackend(t)
	ts, err := NewTrajectorySampler(b)
	if err != nil {
		t.Fatal(err)
	}
	c := ghz(4)
	d, err := ts.SampleCtx(context.Background(), c, 0, 400, mathx.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	if d.Total() != 400 {
		t.Fatalf("total %v", d.Total())
	}
	// Dominant mass on the GHZ pair.
	if d.Prob(0)+d.Prob(0b1111) < 0.7 {
		t.Errorf("GHZ mass %v too low", d.Prob(0)+d.Prob(0b1111))
	}
	if _, err := ts.SampleCtx(context.Background(), c, 0, 0, mathx.NewRNG(1)); err == nil {
		t.Error("zero shots should error")
	}
	if _, err := ts.SampleCtx(context.Background(), circuit.New("wide", 15).H(0), 0, 10, mathx.NewRNG(1)); err == nil {
		t.Error("over-wide should error")
	}
	if _, err := NewTrajectorySampler(nil); err == nil {
		t.Error("nil backend should error")
	}
}

func TestActiveTwoQubitGraph(t *testing.T) {
	c := circuit.New("g", 4).CX(0, 1).CX(1, 2).CX(0, 1).CCX(0, 2, 3)
	adj := activeTwoQubitGraph(c)
	if len(adj[0]) != 3 { // 1 (cx), 2 and 3 (ccx)
		t.Errorf("adj[0] = %v", adj[0])
	}
	if len(adj[1]) != 2 { // 0 and 2
		t.Errorf("adj[1] = %v", adj[1])
	}
}

func TestBurstScaleRaisesEHD(t *testing.T) {
	b := testBackend(t)
	rng := mathx.NewRNG(21)
	// Deterministic ideal output |111111⟩ so the EHD is purely error mass.
	c := circuit.New("ones", 6)
	for q := 0; q < 6; q++ {
		c.X(q)
	}
	for r := 0; r < 20; r++ {
		c.Barrier()
		c.CX(0, 1).CX(0, 1)
	}
	c.MeasureAll()
	lo, _ := NewExecutor(b, Model{BurstScale: 0.2, BurstWalk: true})
	hi, _ := NewExecutor(b, Model{BurstScale: 8, BurstWalk: true})
	rl, err := lo.ExecuteCtx(context.Background(), c, 2048, rng)
	if err != nil {
		t.Fatal(err)
	}
	rh, err := hi.ExecuteCtx(context.Background(), c, 2048, rng)
	if err != nil {
		t.Fatal(err)
	}
	ones := bitstring.BitString(0b111111)
	if rh.Counts.ExpectedHamming(ones) <= rl.Counts.ExpectedHamming(ones) {
		t.Errorf("higher burst scale should raise EHD: hi=%v lo=%v",
			rh.Counts.ExpectedHamming(ones), rl.Counts.ExpectedHamming(ones))
	}
}

func BenchmarkExecuteGHZ8(b *testing.B) {
	bk := testBackend(b)
	e, _ := NewExecutor(bk, DefaultModel())
	c := ghz(8)
	rng := mathx.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ExecuteCtx(context.Background(), c, 1024, rng); err != nil {
			b.Fatal(err)
		}
	}
}
