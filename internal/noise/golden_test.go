package noise

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"qbeep/internal/bitstring"
	"qbeep/internal/circuit"
	"qbeep/internal/device"
	"qbeep/internal/mathx"
)

// goldenCircuit is the fixed workload every golden pin samples.
func goldenCircuit() *circuit.Circuit {
	return circuit.New("golden", 3).H(0).CX(0, 1).RZ(0.4, 1).CX(1, 2).MeasureAll()
}

// requireGolden fails unless got holds exactly the pinned counts.
func requireGolden(t *testing.T, label string, got *bitstring.Dist, want map[string]float64) {
	t.Helper()
	have := got.StringCounts()
	if len(have) != len(want) {
		t.Fatalf("%s: counts %v, want %v", label, have, want)
	}
	for k, v := range want {
		if have[k] != v {
			t.Fatalf("%s: counts %v, want %v", label, have, want)
		}
	}
}

// executeBlocks runs the golden circuit through the failure-event
// executor split into the given number of shot blocks.
func executeBlocks(b *device.Backend, blocks, shots int, seed uint64) (*bitstring.Dist, error) {
	m := DefaultModel()
	m.Blocks = blocks
	exec, err := NewExecutor(b, m)
	if err != nil {
		return nil, err
	}
	run, err := exec.ExecuteCtx(context.Background(), goldenCircuit(), shots, mathx.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	return run.Counts, nil
}

// TestExecutorGoldenCounts pins the realized failure-event streams: the
// serial stream (blocks = 1) and the block-keyed stream family (blocks
// > 1) each produce these exact counts, independent of GOMAXPROCS. A
// change to any draw site — the ideal sample, the pooled gate-error
// qubit, the block seeding or the block merge — moves them.
func TestExecutorGoldenCounts(t *testing.T) {
	b := testBackend(t)
	golden := []struct {
		blocks int
		want   map[string]float64
	}{
		{1, map[string]float64{"000": 168, "001": 25, "010": 23, "011": 29, "100": 21, "101": 26, "110": 22, "111": 186}},
		{2, map[string]float64{"000": 193, "001": 16, "010": 19, "011": 33, "100": 25, "101": 22, "110": 18, "111": 174}},
		{7, map[string]float64{"000": 216, "001": 17, "010": 12, "011": 25, "100": 23, "101": 31, "110": 15, "111": 161}},
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, g := range golden {
			got, err := executeBlocks(b, g.blocks, 500, 42)
			if err != nil {
				runtime.GOMAXPROCS(prev)
				t.Fatal(err)
			}
			requireGolden(t, fmt.Sprintf("GOMAXPROCS=%d blocks=%d", procs, g.blocks), got, g.want)
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestDensityExecutorGoldenSample pins the density executor's sampled
// counts: the cumulative draw over the exact distribution.
func TestDensityExecutorGoldenSample(t *testing.T) {
	de, err := NewDensityExecutor(testBackend(t))
	if err != nil {
		t.Fatal(err)
	}
	_, sampled, err := de.ExecuteExactCtx(context.Background(), goldenCircuit(), 500, mathx.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	requireGolden(t, "density", sampled, map[string]float64{
		"000": 227, "001": 8, "010": 13, "011": 8, "100": 9, "101": 10, "110": 7, "111": 218,
	})
}

// TestExecuteBatchDeterministicAcrossBlocks pins the executor's blocked
// path (Model.Blocks > 1): for a fixed (seed, blocks) the counts are
// identical across repeated runs and across worker counts (GOMAXPROCS is
// fixed in-test, but the block-keyed streams make worker scheduling
// irrelevant by construction), and blocks<=1 reproduces the serial path
// exactly.
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
	m := DefaultModel()
	m.Blocks = 1
	viaOne, err := NewExecutor(b, m)
	if err != nil {
		t.Fatal(err)
	}
	one, err := viaOne.ExecuteCtx(context.Background(), c, shots, mathx.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	requireSameDist(t, "blocks=1", one.Counts, serial.Counts)

	m.Blocks = 7
	blocked, err := NewExecutor(b, m)
	if err != nil {
		t.Fatal(err)
	}
	first, err := blocked.ExecuteCtx(context.Background(), c, shots, mathx.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	if first.Counts.Total() != serial.Counts.Total() {
		t.Fatalf("batch total %v, want %v", first.Counts.Total(), serial.Counts.Total())
	}
	again, err := blocked.ExecuteCtx(context.Background(), c, shots, mathx.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	requireSameDist(t, "blocks=7 rerun", again.Counts, first.Counts)
}
