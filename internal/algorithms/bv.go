// Package algorithms builds the benchmark circuit families the paper
// evaluates on: Bernstein-Vazirani, the QASMBench-style suite (adder, qft,
// cat state, wstate, toffoli, fredkin, qec encoder, qrng, lpn, basis
// change, basis trotter, variational, linear solver, hidden shift) and
// randomized benchmarking over the Clifford group.
//
// Each builder returns the logical circuit plus enough metadata to score
// results: the data-qubit list (ancillas excluded) and, where the
// algorithm has one, the expected output string.
package algorithms

import (
	"context"
	"fmt"

	"qbeep/internal/bitstring"
	"qbeep/internal/circuit"
	"qbeep/internal/clifford"
	"qbeep/internal/mathx"
	"qbeep/internal/statevector"
)

// Workload is a benchmark circuit with scoring metadata.
type Workload struct {
	Circuit *circuit.Circuit
	// DataQubits lists the qubits carrying the algorithm's answer;
	// measurement distributions are marginalized onto them in this order.
	DataQubits []int
	// Expected is the unique correct output over DataQubits for
	// single-answer algorithms; Deterministic reports whether it is set.
	Expected      bitstring.BitString
	Deterministic bool
}

// IdealDistCtx returns the exact output distribution over the data
// qubits; the simulation's "sim.run" span parents under ctx.
func (w *Workload) IdealDistCtx(ctx context.Context) (*bitstring.Dist, error) {
	full, err := statevector.IdealDistCtx(ctx, w.Circuit)
	if err != nil {
		return nil, err
	}
	return full.Marginal(w.DataQubits)
}

// MarginalCounts projects a full-register measurement distribution onto
// the workload's data qubits.
func (w *Workload) MarginalCounts(full *bitstring.Dist) (*bitstring.Dist, error) {
	return full.Marginal(w.DataQubits)
}

// BernsteinVazirani builds the n-qubit BV circuit for the hidden string
// secret, using the standard phase-kickback construction with one ancilla
// (qubit n): X·H on the ancilla, H on data, CX(data_i → ancilla) for each
// set secret bit, H on data, measure. The data register yields the secret
// deterministically on a perfect machine.
func BernsteinVazirani(n int, secret bitstring.BitString) (*Workload, error) {
	if n <= 0 {
		return nil, fmt.Errorf("algorithms: BV width %d must be positive", n)
	}
	if uint64(secret) >= uint64(1)<<uint(n) {
		return nil, fmt.Errorf("algorithms: secret %d outside %d-bit register", secret, n)
	}
	c := circuit.New(fmt.Sprintf("bv-%d-%s", n, bitstring.Format(secret, n)), n+1)
	c.X(n).H(n)
	for q := 0; q < n; q++ {
		c.H(q)
	}
	c.Barrier()
	for q := 0; q < n; q++ {
		if secret.Bit(q) == 1 {
			c.CX(q, n)
		}
	}
	c.Barrier()
	for q := 0; q < n; q++ {
		c.H(q)
	}
	c.MeasureAll()
	if err := c.Err(); err != nil {
		return nil, err
	}
	data := make([]int, n)
	for i := range data {
		data[i] = i
	}
	return &Workload{
		Circuit:       c,
		DataQubits:    data,
		Expected:      secret,
		Deterministic: true,
	}, nil
}

// RandomSecret draws a uniformly random non-zero n-bit secret.
func RandomSecret(n int, rng *mathx.RNG) bitstring.BitString {
	if n <= 0 {
		return 0
	}
	for {
		s := bitstring.BitString(rng.Uint64() & ((1 << uint(n)) - 1))
		if s != 0 || n == 0 {
			return s
		}
	}
}

// RandomizedBenchmarking builds an RB workload: prepare a random basis
// state (X gates), apply layers random Clifford layers plus the exact
// inverse, measure. The expected output is the prepared state, so every
// other observation is an error with a well-defined Hamming distance.
func RandomizedBenchmarking(n, layers int, rng *mathx.RNG) (*Workload, error) {
	body, err := clifford.RBCircuit(fmt.Sprintf("rb-%d-%d", n, layers), n, layers, rng)
	if err != nil {
		return nil, err
	}
	// Random non-trivial initial basis state: the all-zeros state is the
	// natural decay target, which would understate T1 errors (paper §3.1).
	init := bitstring.BitString(rng.Uint64() & ((1 << uint(n)) - 1))
	c := circuit.New(body.Name, n)
	for q := 0; q < n; q++ {
		if init.Bit(q) == 1 {
			c.X(q)
		}
	}
	c.Barrier()
	for _, g := range body.Gates {
		c.Append(g)
	}
	c.MeasureAll()
	if err := c.Err(); err != nil {
		return nil, err
	}
	data := make([]int, n)
	for i := range data {
		data[i] = i
	}
	return &Workload{
		Circuit:       c,
		DataQubits:    data,
		Expected:      init,
		Deterministic: true,
	}, nil
}
