package transpile

import (
	"context"
	"fmt"
	"math"

	"qbeep/internal/circuit"
	"qbeep/internal/device"
	"qbeep/internal/mathx"
)

// SearchLayout transpiles the circuit under several candidate layouts —
// the greedy placement plus trials random placements — and returns the
// result with the lowest noise exposure, scored by the same quantities
// Eq. 2's λ sums: per-gate calibrated error plus decoherence pressure
// over the scheduled duration. Lowering the transpiled λ helps twice:
// the induction is cleaner, and Q-BEEP's Poisson model gets a tighter
// rate.
//
// The search is deterministic given seed. trials = 0 degrades to plain
// greedy transpilation.
func SearchLayout(ctx context.Context, c *circuit.Circuit, b *device.Backend, trials int, seed uint64) (*Result, error) {
	if trials < 0 {
		return nil, fmt.Errorf("transpile: negative trials %d", trials)
	}
	best, err := TranspileCtx(ctx, c, b, nil)
	if err != nil {
		return nil, err
	}
	bestScore, err := exposure(best, b)
	if err != nil {
		return nil, err
	}
	rng := mathx.NewRNG(seed)
	dec, err := Decompose(c)
	if err != nil {
		return nil, err
	}
	for t := 0; t < trials; t++ {
		layout := randomLayout(dec.N, b.N(), rng)
		res, err := TranspileCtx(ctx, c, b, layout)
		if err != nil {
			// Some random placements can be unroutable on sparse
			// topologies; skip them rather than fail the search.
			continue
		}
		score, err := exposure(res, b)
		if err != nil {
			continue
		}
		if score < bestScore {
			best, bestScore = res, score
		}
	}
	return best, nil
}

// randomLayout places n logical qubits on distinct random physical qubits.
func randomLayout(n, nPhys int, rng *mathx.RNG) Layout {
	perm := rng.Perm(nPhys)
	return Layout(perm[:n])
}

// exposure scores a transpiled circuit by its Eq. 2-style noise budget:
// Σ gate errors + Σ_q (1-e^(-t/T1_q)) + (1-e^(-t/T2_q)) over the data
// qubits.
func exposure(res *Result, b *device.Backend) (float64, error) {
	if res == nil || res.Circuit == nil {
		return 0, fmt.Errorf("transpile: nil result")
	}
	var s float64
	for _, g := range res.Circuit.Gates {
		if !g.Kind.IsUnitary() {
			continue
		}
		switch len(g.Qubits) {
		case 1:
			q := g.Qubits[0]
			if q < len(b.Calibration.Gates1Q) {
				s += b.Calibration.Gates1Q[q].Error
			}
		case 2:
			if gc, ok := b.Calibration.Gate2Q(g.Qubits[0], g.Qubits[1]); ok {
				s += gc.Error
			}
		}
	}
	for _, p := range res.Final {
		q := b.Calibration.Qubits[p]
		s += 1 - math.Exp(-res.Time/q.T1)
		s += 1 - math.Exp(-res.Time/q.T2)
	}
	return s, nil
}
