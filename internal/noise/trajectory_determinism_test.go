package noise

import (
	"context"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"qbeep/internal/bitstring"
	"qbeep/internal/circuit"
	"qbeep/internal/mathx"
)

// trajWorkerMatrix mirrors the statevector equivalence matrix: {1, 2, 4,
// GOMAXPROCS} plus QBEEP_TEST_WORKERS entries, deduplicated.
func trajWorkerMatrix(t *testing.T) []int {
	t.Helper()
	counts := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	if env := os.Getenv("QBEEP_TEST_WORKERS"); env != "" {
		for _, f := range strings.Split(env, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || v < 1 {
				t.Fatalf("QBEEP_TEST_WORKERS entry %q: %v", f, err)
			}
			counts = append(counts, v)
		}
	}
	seen := map[int]bool{}
	out := counts[:0]
	for _, w := range counts {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// TestTrajectoryDeterministicAcrossWorkers pins the per-shot RNG stream
// contract: for a fixed seed the sampled counts are identical for every
// worker count, because each shot derives its own stream from the base
// draw and its shot index rather than sharing a serial generator.
func TestTrajectoryDeterministicAcrossWorkers(t *testing.T) {
	b := testBackend(t)
	ts, err := NewTrajectorySampler(b)
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New("det", 5).H(0).CX(0, 1).RZ(0.7, 1).CX(1, 2).T(2).CX(2, 3).RX(0.3, 4).MeasureAll()
	const shots = 400
	var want map[bitstring.BitString]float64
	for _, w := range trajWorkerMatrix(t) {
		ts.SetWorkers(w)
		d, err := ts.SampleCtx(context.Background(), c, 0, shots, mathx.NewRNG(1234))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		got := map[bitstring.BitString]float64{}
		for _, v := range d.Outcomes() {
			got[v] = d.Count(v)
		}
		if want == nil {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d outcomes, want %d", w, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("workers=%d: count[%v] = %v, want %v", w, k, got[k], v)
			}
		}
	}
}

// TestTrajectorySeedStability pins that the same seed reproduces the same
// distribution across two independent Sample calls (the caller's
// generator advances identically: one Uint64 per call).
func TestTrajectorySeedStability(t *testing.T) {
	b := testBackend(t)
	ts, err := NewTrajectorySampler(b)
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New("seed", 4).H(0).CX(0, 1).CX(1, 2).CX(2, 3).MeasureAll()
	d1, err := ts.SampleCtx(context.Background(), c, 0, 300, mathx.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := ts.SampleCtx(context.Background(), c, 0, 300, mathx.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range d1.Outcomes() {
		if d1.Count(v) != d2.Count(v) {
			t.Fatalf("count[%v] = %v vs %v for identical seeds", v, d1.Count(v), d2.Count(v))
		}
	}
}
