// Package qvolume implements the Quantum Volume protocol (Cross et al.,
// "Validating quantum computers using randomized model circuits"): square
// random model circuits, heavy-output probability (HOP) scoring, and the
// pass rule HOP > 2/3 at two-sigma confidence. It rounds out the device
// benchmarking substrate — and, paired with Q-BEEP, quantifies how much
// post-processing mitigation raises a machine's effective volume.
package qvolume

import (
	"context"
	"fmt"
	"math"
	"sort"

	"qbeep/internal/bitstring"
	"qbeep/internal/circuit"
	"qbeep/internal/mathx"
	"qbeep/internal/statevector"
)

// ModelCircuit builds one width-n, depth-n QV model circuit: each layer
// applies a random qubit permutation then a random two-qubit block on
// each adjacent pair. Blocks are built from the universal 3-CX sandwich
// with Haar-ish random U3 rotations — not exactly Haar on SU(4), but
// scrambling enough for heavy-output statistics.
func ModelCircuit(n int, rng *mathx.RNG) (*circuit.Circuit, error) {
	if n < 2 || n > 12 {
		return nil, fmt.Errorf("qvolume: width %d outside [2,12]", n)
	}
	c := circuit.New(fmt.Sprintf("qv-%d", n), n)
	randU3 := func(q int) {
		c.U3(rng.Uniform(0, math.Pi), rng.Uniform(0, 2*math.Pi), rng.Uniform(0, 2*math.Pi), q)
	}
	block := func(a, b int) {
		randU3(a)
		randU3(b)
		c.CX(a, b)
		randU3(a)
		randU3(b)
		c.CX(b, a)
		randU3(a)
		randU3(b)
		c.CX(a, b)
		randU3(a)
		randU3(b)
	}
	for layer := 0; layer < n; layer++ {
		perm := rng.Perm(n)
		for i := 0; i+1 < n; i += 2 {
			block(perm[i], perm[i+1])
		}
		c.Barrier()
	}
	c.MeasureAll()
	return c.Finalize()
}

// HeavySet returns the heavy outputs of a circuit: the basis states whose
// ideal probability exceeds the median ideal probability. The
// simulation's "sim.run" span parents under ctx.
func HeavySet(ctx context.Context, c *circuit.Circuit) (map[bitstring.BitString]bool, error) {
	s, err := statevector.RunConfiguredCtx(ctx, c, 0, statevector.RunConfig{})
	if err != nil {
		return nil, err
	}
	probs := s.Probabilities()
	sorted := append([]float64(nil), probs...)
	sort.Float64s(sorted)
	median := sorted[len(sorted)/2]
	if len(sorted)%2 == 0 {
		median = (sorted[len(sorted)/2-1] + sorted[len(sorted)/2]) / 2
	}
	heavy := make(map[bitstring.BitString]bool)
	for i, p := range probs {
		if p > median {
			heavy[bitstring.BitString(i)] = true
		}
	}
	return heavy, nil
}

// HOP returns the heavy-output probability of a measured distribution.
func HOP(counts *bitstring.Dist, heavy map[bitstring.BitString]bool) (float64, error) {
	if counts == nil || counts.Total() == 0 {
		return 0, fmt.Errorf("qvolume: empty counts")
	}
	var mass float64
	counts.Each(func(v bitstring.BitString, c float64) {
		if heavy[v] {
			mass += c
		}
	})
	return mass / counts.Total(), nil
}

// Result is the outcome of a QV trial at one width.
type Result struct {
	Width    int
	Circuits int
	MeanHOP  float64
	// Lower is the two-sigma lower confidence bound on the mean HOP used
	// by the pass rule.
	Lower float64
	Pass  bool
}

// Judge evaluates the pass rule at one width from the per-circuit HOPs:
// mean - 2·σ/√k > 2/3.
func Judge(width int, hops []float64) (Result, error) {
	if len(hops) < 2 {
		return Result{}, fmt.Errorf("qvolume: need >= 2 circuits, got %d", len(hops))
	}
	mean := mathx.Mean(hops)
	var variance float64
	for _, h := range hops {
		d := h - mean
		variance += d * d
	}
	variance /= float64(len(hops) - 1)
	lower := mean - 2*math.Sqrt(variance/float64(len(hops)))
	return Result{
		Width:    width,
		Circuits: len(hops),
		MeanHOP:  mean,
		Lower:    lower,
		Pass:     lower > 2.0/3,
	}, nil
}

// Volume converts the largest passing width into the quantum volume 2^w
// (0 if no width passed).
func Volume(results []Result) int {
	best := 0
	for _, r := range results {
		if r.Pass && r.Width > best {
			best = r.Width
		}
	}
	if best == 0 {
		return 0
	}
	return 1 << uint(best)
}
