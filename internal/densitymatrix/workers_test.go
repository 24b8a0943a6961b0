package densitymatrix

import (
	"context"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"qbeep/internal/circuit"
	"qbeep/internal/mathx"
)

// dmWorkerMatrix mirrors the statevector equivalence matrix: {1, 2, 4,
// GOMAXPROCS} plus QBEEP_TEST_WORKERS entries, deduplicated.
func dmWorkerMatrix(t *testing.T) []int {
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

// TestDensityDeterministicAcrossWorkers pins that row-pair sharding is
// bitwise invariant in the worker count: the same circuit plus noise
// channels yields an identical ρ for every fan-out width, because shards
// are whole row pairs and the per-element Kraus accumulation order never
// changes.
func TestDensityDeterministicAcrossWorkers(t *testing.T) {
	rng := mathx.NewRNG(31)
	build := func(workers int) *Density {
		d, err := NewBasis(context.Background(), 6, 0)
		if err != nil {
			t.Fatal(err)
		}
		d.SetWorkers(workers)
		c := circuit.New("mix", 6).
			H(0).CX(0, 1).RZ(0.4, 1).CX(1, 2).T(2).
			RY(1.1, 3).CZ(2, 3).SWAP(3, 4).CCX(0, 1, 5).RX(0.9, 5)
		for _, g := range c.Gates {
			if err := d.Apply(g); err != nil {
				t.Fatal(err)
			}
		}
		for q := 0; q < 6; q++ {
			if err := d.Channel(q, Depolarizing(0.02+0.01*float64(q))); err != nil {
				t.Fatal(err)
			}
			if err := d.Channel(q, AmplitudeDamping(rng.Uniform(0.01, 0.05))); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
	// The channel parameters must match across builds: re-seed per build.
	var want *Density
	for _, w := range dmWorkerMatrix(t) {
		rng = mathx.NewRNG(31)
		got := build(w)
		if want == nil {
			want = got
			continue
		}
		for i := range want.rho {
			if got.rho[i] != want.rho[i] {
				t.Fatalf("workers=%d rho[%d]: %v vs %v", w, i, got.rho[i], want.rho[i])
			}
		}
	}
}
