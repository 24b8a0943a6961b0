package qbeep

import (
	"context"
	"fmt"

	"qbeep/internal/bitstring"
	"qbeep/internal/core"
	"qbeep/internal/readout"
)

// CorrectReadout inverts per-qubit measurement (SPAM) errors on raw
// counts: flips[i] is the flip probability of qubit i (all must be below
// 0.5). Readout correction composes with Q-BEEP (paper §3.5): correct the
// classifier first, then mitigate the circuit-level Hamming structure.
func CorrectReadout(counts Counts, flips []float64) (Counts, error) {
	m, err := readout.NewFromRates(flips)
	if err != nil {
		return nil, err
	}
	d, err := bitstring.FromStringCounts(counts)
	if err != nil {
		return nil, err
	}
	out, err := m.Apply(d)
	if err != nil {
		return nil, err
	}
	return out.StringCounts(), nil
}

// BackendReadoutRates returns the calibrated per-qubit readout flip rates
// of a named backend's first n qubits — the flips argument for
// CorrectReadout when the layout is trivial.
func BackendReadoutRates(backend string, n int) ([]float64, error) {
	b, err := backendByAnyName(backend)
	if err != nil {
		return nil, err
	}
	if n <= 0 || n > b.N() {
		return nil, fmt.Errorf("qbeep: %d qubits outside backend %s (%d)", n, backend, b.N())
	}
	rates := make([]float64, n)
	for i := 0; i < n; i++ {
		rates[i] = b.Calibration.Qubits[i].ReadoutError
	}
	return rates, nil
}

// EnsembleRun is one induction of the same logical circuit for ensemble
// mitigation — its counts and its own pre-induction λ.
type EnsembleRun struct {
	Counts Counts
	Lambda float64
}

// MitigateEnsemble mitigates each run with Q-BEEP and merges the results
// weighted by predicted quality (e^-λ) — the Quancorde-style composition
// the paper sketches in §3.5. All runs must share one register width; the
// output totals the mean run total.
func MitigateEnsemble(runs []EnsembleRun, opts Options) (Counts, error) {
	members := make([]core.EnsembleMember, len(runs))
	for i, r := range runs {
		d, err := bitstring.FromStringCounts(r.Counts)
		if err != nil {
			return nil, fmt.Errorf("qbeep: run %d: %w", i, err)
		}
		members[i] = core.EnsembleMember{Counts: d, Lambda: r.Lambda}
	}
	out, err := core.MitigateEnsembleCtx(context.Background(), members, core.Options{
		Iterations: opts.Iterations,
		Epsilon:    opts.Epsilon,
	})
	if err != nil {
		return nil, err
	}
	return out.StringCounts(), nil
}
