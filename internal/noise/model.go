// Package noise executes transpiled circuits under a hardware-style error
// model and produces measurement count distributions.
//
// Two executors are provided, each with one sampling entry point:
//
//   - Executor (the default) implements the generative process the paper
//     observes on real hardware (§3.1): circuit execution accumulates
//     independent failure events whose count per shot is Poisson with a
//     rate set by gate errors, decoherence over the scheduled duration,
//     readout, and a topology-correlated burst channel. This reproduces
//     the non-local Hamming clustering (EHD growing with gate count,
//     IoD ≈ 1) that Q-BEEP exploits. ExecuteTranspiledCtx is its one
//     sampling body; Model.Blocks selects the serial or blocked shot loop.
//
//   - DensityExecutor evolves the exact density matrix under calibrated
//     Kraus channels: the conventional Markovian per-gate model, which
//     (as the paper notes) does NOT produce non-local clustering, and the
//     small-register reference the fast executor is checked against.
package noise

import (
	"fmt"
	"math"

	"qbeep/internal/circuit"
	"qbeep/internal/device"
	"qbeep/internal/transpile"
)

// Model configures the fast failure-event executor. The zero value is all
// channels off (noiseless); DefaultModel returns the calibrated default.
type Model struct {
	// GateErrors applies one bit-flip event per gate with the gate's
	// calibrated error probability.
	GateErrors bool
	// Decoherence applies T1 decay (1→0) and T2 dephasing-induced flips
	// accumulated over the scheduled circuit duration.
	Decoherence bool
	// Readout applies the calibrated per-qubit readout flip.
	Readout bool
	// BurstScale sets the rate of the correlated burst channel as a
	// multiple of the decoherence pressure t_circuit/T2. Zero disables
	// bursts; ~1.5 matches the dispersion seen in the paper's corpora.
	BurstScale float64
	// BurstWalk spreads each burst along a random walk on the coupling
	// graph (correlated positions); false scatters burst flips uniformly.
	BurstWalk bool
	// RateJitter is the log-normal sigma of per-shot drift in the burst
	// rate, modeling the slow non-Markovian fluctuation of device
	// conditions across a shot batch (paper §3.1). The jitter is
	// mean-normalized, so the expected rate is unchanged; the resulting
	// compound-Poisson over-dispersion offsets the finite-register
	// compression of the Hamming spectrum, keeping the observed IoD near
	// 1 the way hardware does. Zero disables drift.
	RateJitter float64
	// Blocks, when > 1, splits the shot loop into that many blocks fanned
	// across the shared worker pool, each drawing from its own stream
	// keyed by (seed, block index). Counts are deterministic for a given
	// (seed, Blocks) at any worker count but differ from the serial
	// stream; 0 or 1 is the serial shot loop.
	Blocks int
}

// DefaultModel is the full hardware-like model used by the experiment
// runners.
func DefaultModel() Model {
	return Model{
		GateErrors:  true,
		Decoherence: true,
		Readout:     true,
		BurstScale:  1.2,
		BurstWalk:   true,
		RateJitter:  0.8,
	}
}

// MarkovianModel is gate errors + decoherence + readout with no burst
// channel: a conventional local noise model.
func MarkovianModel() Model {
	return Model{GateErrors: true, Decoherence: true, Readout: true}
}

// EventRates summarizes the per-shot failure-event intensities of a
// transpiled circuit on a backend under a model. The sum TotalLambda is the
// mean number of flip events per shot — the ground-truth counterpart of
// Q-BEEP's estimated λ.
type EventRates struct {
	Gate      float64 // expected flip events from gate infidelity
	T1        float64 // expected decay events
	T2        float64 // expected dephasing flip events
	Burst     float64 // expected correlated burst flips
	Readout   float64 // expected readout flips
	Duration  float64 // scheduled circuit time (seconds)
	DataQubit []int   // physical qubits carrying logical data (by logical index)
}

// TotalLambda returns the summed event intensity.
func (r EventRates) TotalLambda() float64 {
	return r.Gate + r.T1 + r.T2 + r.Burst + r.Readout
}

// Rates computes the event intensities for a transpiled circuit. The
// logical register is res.Initial's domain; decoherence and readout are
// charged on the physical qubits the logical data ends on.
func Rates(res *transpile.Result, b *device.Backend, m Model) (EventRates, error) {
	if res == nil || res.Circuit == nil {
		return EventRates{}, fmt.Errorf("noise: nil transpile result")
	}
	r := EventRates{Duration: res.Time, DataQubit: append([]int(nil), res.Final...)}
	if m.GateErrors {
		for _, g := range res.Circuit.Gates {
			if !g.Kind.IsUnitary() {
				continue
			}
			switch len(g.Qubits) {
			case 1:
				q := g.Qubits[0]
				if q < len(b.Calibration.Gates1Q) {
					r.Gate += b.Calibration.Gates1Q[q].Error
				}
			case 2:
				if gc, ok := b.Calibration.Gate2Q(g.Qubits[0], g.Qubits[1]); ok {
					r.Gate += gc.Error
				}
			}
		}
	}
	if m.Decoherence {
		for _, p := range r.DataQubit {
			q := b.Calibration.Qubits[p]
			r.T1 += 1 - math.Exp(-res.Time/q.T1)
			// A dephasing event randomizes the phase; it materializes as a
			// measured flip roughly half the time.
			r.T2 += 0.5 * (1 - math.Exp(-res.Time/q.T2))
		}
	}
	if m.Readout {
		for _, p := range r.DataQubit {
			r.Readout += b.Calibration.Qubits[p].ReadoutError
		}
	}
	if m.BurstScale > 0 {
		var pressure float64
		for _, p := range r.DataQubit {
			pressure += res.Time / b.Calibration.Qubits[p].T2
		}
		// Saturate: once the register is fully scrambled more bursts do not
		// add information; cap at n/2 expected flips (the maximally-mixed
		// EHD).
		burst := m.BurstScale * pressure
		if limit := float64(len(r.DataQubit)) / 4; burst > limit {
			burst = limit
		}
		r.Burst = burst
	}
	return r, nil
}

// activeTwoQubitGraph returns, for each logical qubit index, the logical
// neighbors it interacts with in the original circuit — the walk graph for
// correlated bursts when BurstWalk is set.
func activeTwoQubitGraph(c *circuit.Circuit) [][]int {
	adj := make([][]int, c.N)
	seen := make(map[[2]int]bool)
	for _, g := range c.Gates {
		if !g.Kind.IsUnitary() || len(g.Qubits) < 2 {
			continue
		}
		for i := 0; i < len(g.Qubits); i++ {
			for j := i + 1; j < len(g.Qubits); j++ {
				a, b := g.Qubits[i], g.Qubits[j]
				if a > b {
					a, b = b, a
				}
				if !seen[[2]int{a, b}] {
					seen[[2]int{a, b}] = true
					adj[a] = append(adj[a], b)
					adj[b] = append(adj[b], a)
				}
			}
		}
	}
	return adj
}
