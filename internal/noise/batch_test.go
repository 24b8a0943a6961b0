package noise

import (
	"context"
	"testing"

	"qbeep/internal/bitstring"
	"qbeep/internal/circuit"
	"qbeep/internal/mathx"
)

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

// TestSampleBatchMatchesSerial pins the batch contract: SampleBatch
// results are bit-for-bit identical to serial Sample calls with
// mathx.NewRNG(req.Seed), per request, at every worker count.
func TestSampleBatchMatchesSerial(t *testing.T) {
	b := testBackend(t)
	bs, err := NewBatchSampler(b)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := NewTrajectorySampler(b)
	if err != nil {
		t.Fatal(err)
	}
	serial.SetWorkers(1)

	cs := oracleCircuits()
	var reqs []BatchRequest
	for i, c := range cs {
		reqs = append(reqs, BatchRequest{
			Circuit: c,
			Init:    0,
			Shots:   120 + 35*i, // uneven sizes: blocks straddle request edges
			Seed:    uint64(900 + i),
		})
	}
	want := make([]*bitstring.Dist, len(reqs))
	for i, req := range reqs {
		want[i], err = serial.SampleCtx(context.Background(), req.Circuit, req.Init, req.Shots, mathx.NewRNG(req.Seed))
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range trajWorkerMatrix(t) {
		bs.SetWorkers(w)
		got, err := bs.SampleBatch(context.Background(), reqs)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i := range reqs {
			requireSameDist(t, reqs[i].Circuit.Name, got[i], want[i])
		}
	}
}

// TestSampleBatchRejectsBadInput pins the validation paths.
func TestSampleBatchRejectsBadInput(t *testing.T) {
	bs, err := NewBatchSampler(testBackend(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bs.SampleBatch(context.Background(), nil); err == nil {
		t.Fatal("SampleBatch accepted an empty batch")
	}
	reqs := []BatchRequest{{Circuit: nil, Shots: 10}}
	if _, err := bs.SampleBatch(context.Background(), reqs); err == nil {
		t.Fatal("SampleBatch accepted a nil circuit")
	}
	reqs = []BatchRequest{{Circuit: circuit.New("z", 2).H(0), Shots: 0}}
	if _, err := bs.SampleBatch(context.Background(), reqs); err == nil {
		t.Fatal("SampleBatch accepted zero shots")
	}
}

// TestExecuteBatchDeterministicAcrossBlocks pins the executor batch
// path: for a fixed (seed, blocks) the counts are identical across
// repeated runs and across worker counts (GOMAXPROCS is fixed in-test,
// but the block-keyed streams make worker scheduling irrelevant by
// construction), and blocks<=1 reproduces the serial path exactly.
func TestExecuteBatchDeterministicAcrossBlocks(t *testing.T) {
	b := testBackend(t)
	exec, err := NewExecutor(b, DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New("batchdet", 4).H(0).CX(0, 1).CX(1, 2).CX(2, 3).MeasureAll()
	const shots = 600

	serial, err := exec.ExecuteCtx(context.Background(), c, shots, mathx.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	viaOne, err := exec.ExecuteBatchCtx(context.Background(), c, shots, 1, mathx.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	requireSameDist(t, "blocks=1", viaOne.Counts, serial.Counts)

	first, err := exec.ExecuteBatchCtx(context.Background(), c, shots, 7, mathx.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	if first.Counts.Total() != serial.Counts.Total() {
		t.Fatalf("batch total %v, want %v", first.Counts.Total(), serial.Counts.Total())
	}
	again, err := exec.ExecuteBatchCtx(context.Background(), c, shots, 7, mathx.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	requireSameDist(t, "blocks=7 rerun", again.Counts, first.Counts)
}
