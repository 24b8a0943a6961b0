package algorithms

import (
	"fmt"
	"math"
	"sort"

	"qbeep/internal/bitstring"
	"qbeep/internal/circuit"
)

// cp appends a controlled-phase CP(θ) on (a, b): diag(1,1,1,e^{iθ}),
// via the standard RZ/CX decomposition (global phase discarded).
func cp(c *circuit.Circuit, theta float64, a, b int) {
	c.RZ(theta/2, a)
	c.RZ(theta/2, b)
	c.CX(a, b)
	c.RZ(-theta/2, b)
	c.CX(a, b)
}

func allQubits(n int) []int {
	qs := make([]int, n)
	for i := range qs {
		qs[i] = i
	}
	return qs
}

// Adder builds the QASMBench-style 4-qubit 1-bit full adder
// (adder_n4): inputs a=1, b=1, cin=0 prepared with X gates, Toffoli/CX
// cascade computing sum and carry. Expected output is deterministic.
func Adder() (*Workload, error) {
	// q0=cin, q1=a, q2=b, q3=cout.
	c := circuit.New("adder-n4", 4)
	c.X(1).X(2) // a=1, b=1
	c.Barrier()
	c.CCX(1, 2, 3) // cout ^= a·b
	c.CX(1, 2)     // b ^= a
	c.CCX(0, 2, 3) // cout ^= cin·(a^b)
	c.CX(2, 0)     // sum = cin ^ a ^ b (into q0)
	c.CX(1, 2)     // restore b
	c.MeasureAll()
	return deterministicWorkload(c, 0b1110) // q0=sum=0, q1=a, q2=b, q3=cout=1
}

// Toffoli is the 3-qubit Toffoli demonstration (toffoli_n3): both
// controls set, so the target flips: output 111.
func Toffoli() (*Workload, error) {
	c := circuit.New("toffoli-n3", 3)
	c.X(0).X(1).Barrier().CCX(0, 1, 2).MeasureAll()
	return deterministicWorkload(c, 0b111)
}

// Fredkin is the 3-qubit controlled-swap demonstration (fredkin_n3):
// control set and one payload bit set, so the payloads exchange.
func Fredkin() (*Workload, error) {
	c := circuit.New("fredkin-n3", 3)
	c.X(0).X(1).Barrier().CSWAP(0, 1, 2).MeasureAll()
	return deterministicWorkload(c, 0b101)
}

// HS4 is the 4-qubit hidden-shift circuit (hs4_n4): H layer, a
// Z/CZ-pattern oracle, H layer. The output is the shift string
// deterministically.
func HS4() (*Workload, error) {
	c := circuit.New("hs4-n4", 4)
	for q := 0; q < 4; q++ {
		c.H(q)
	}
	c.Barrier()
	// Shift pattern 1011 realized as Z on shifted qubits plus an
	// entangling CZ pair.
	c.Z(0).Z(1).Z(3)
	c.CZ(0, 1).CZ(2, 3)
	c.CZ(0, 1).CZ(2, 3) // cancel entangling phases: pure shift remains
	c.Barrier()
	for q := 0; q < 4; q++ {
		c.H(q)
	}
	c.MeasureAll()
	return deterministicWorkload(c, 0b1011)
}

// CatState is the 4-qubit GHZ/cat preparation (cat_state_n4): entropy
// exactly 1 bit (two equiprobable outcomes).
func CatState() (*Workload, error) {
	c := circuit.New("cat-state-n4", 4)
	c.H(0).CX(0, 1).CX(1, 2).CX(2, 3).MeasureAll()
	return workload(c)
}

// WState prepares the 3-qubit W state (wstate_n3): equal superposition of
// 001, 010, 100 — entropy log2(3).
func WState() (*Workload, error) {
	c := circuit.New("wstate-n3", 3)
	// Split 1/3 of the amplitude onto q0 = 1 (the |001⟩ term).
	theta0 := 2 * math.Acos(math.Sqrt(2.0/3))
	c.RY(theta0, 0)
	// On the q0 = 0 branch, split the remaining 2/3 evenly onto q1:
	// X-conjugated controlled-RY(π/2), with CRY(θ) = RY(θ/2)·CX·RY(-θ/2)·CX.
	c.X(0)
	c.RY(math.Pi/4, 1)
	c.CX(0, 1)
	c.RY(-math.Pi/4, 1)
	c.CX(0, 1)
	c.X(0)
	// q2 = 1 iff q0 = 0 and q1 = 0 (the |100⟩ term).
	c.X(0).X(1)
	c.CCX(0, 1, 2)
	c.X(0).X(1)
	c.MeasureAll()
	return workload(c)
}

// QFT is the 4-qubit quantum Fourier transform applied to |0101⟩
// (qft_n4): the measured output is uniform over all 16 strings — maximum
// entropy, the case where Q-BEEP finds no structure to exploit.
func QFT() (*Workload, error) {
	c := circuit.New("qft-n4", 4)
	c.X(0).X(2)
	c.Barrier()
	n := 4
	for i := n - 1; i >= 0; i-- {
		c.H(i)
		for j := i - 1; j >= 0; j-- {
			cp(c, math.Pi/math.Pow(2, float64(i-j)), j, i)
		}
	}
	for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
		c.SWAP(i, j)
	}
	c.MeasureAll()
	return workload(c)
}

// QRNG is the 4-qubit quantum random number generator (qrng_n4): H on
// every qubit; uniform output, maximum entropy.
func QRNG() (*Workload, error) {
	c := circuit.New("qrng-n4", 4)
	for q := 0; q < 4; q++ {
		c.H(q)
	}
	c.MeasureAll()
	return workload(c)
}

// QECEncoder is the 5-qubit repetition-code encoder with syndrome
// extraction (qec_en_n5): logical |+⟩ encoded over qubits 0-2, ancillas
// 3-4 read the (trivially zero) syndrome. Two equiprobable outcomes.
func QECEncoder() (*Workload, error) {
	c := circuit.New("qec-en-n5", 5)
	c.H(0)
	c.CX(0, 1).CX(0, 2) // encode
	c.Barrier()
	c.CX(0, 3).CX(1, 3) // syndrome bit 0 = q0 ^ q1
	c.CX(1, 4).CX(2, 4) // syndrome bit 1 = q1 ^ q2
	c.MeasureAll()
	return workload(c)
}

// LPN is the 5-qubit learning-parity-with-noise instance (lpn_n5): a
// BV-style parity oracle over 4 data qubits with ancilla, secret 1101.
func LPN() (*Workload, error) {
	w, err := BernsteinVazirani(4, 0b1101)
	if err != nil {
		return nil, err
	}
	w.Circuit.Name = "lpn-n5"
	return w, nil
}

// BasisChange is a 3-qubit single-particle basis rotation network
// (basis_change_n3 in QASMBench, from quantum-chemistry orbital
// rotations): Givens rotations between adjacent modes. Output is a skewed
// low-entropy distribution.
func BasisChange() (*Workload, error) {
	c := circuit.New("basis-change-n3", 3)
	c.X(0) // one particle in mode 0
	c.Barrier()
	givens := func(theta float64, a, b int) {
		// Number-conserving rotation between modes a and b.
		c.CX(b, a)
		c.RY(theta, b)
		c.CX(a, b)
		c.RY(-theta, b)
		c.CX(a, b)
		c.CX(b, a)
	}
	givens(0.6, 0, 1)
	givens(0.4, 1, 2)
	givens(0.2, 0, 1)
	c.MeasureAll()
	return workload(c)
}

// BasisTrotter is a 4-qubit Trotterized ZZ-chain evolution
// (basis_trotter_n4 stand-in): layers of CX·RZ·CX conjugated by partial
// rotations. Moderate entropy.
func BasisTrotter() (*Workload, error) {
	c := circuit.New("basis-trotter-n4", 4)
	for q := 0; q < 4; q++ {
		c.RY(0.3, q)
	}
	for step := 0; step < 2; step++ {
		for q := 0; q+1 < 4; q++ {
			c.CX(q, q+1)
			c.RZ(0.5, q+1)
			c.CX(q, q+1)
		}
		for q := 0; q < 4; q++ {
			c.RX(0.4, q)
		}
	}
	c.MeasureAll()
	return workload(c)
}

// Variational is a 4-qubit hardware-efficient ansatz at fixed angles
// (variational_n4): RY + entangling CX layers. Low-moderate entropy.
func Variational() (*Workload, error) {
	c := circuit.New("variational-n4", 4)
	angles := []float64{0.35, -0.2, 0.15, 0.4, -0.3, 0.25, 0.1, -0.15}
	for q := 0; q < 4; q++ {
		c.RY(angles[q], q)
	}
	for q := 0; q+1 < 4; q++ {
		c.CX(q, q+1)
	}
	for q := 0; q < 4; q++ {
		c.RY(angles[4+q], q)
	}
	c.MeasureAll()
	return workload(c)
}

// LinearSolver is a 3-qubit toy HHL-style linear-system solver
// (linearsolver_n3): phase estimation-flavored rotations on an ancilla.
// Skewed output distribution.
func LinearSolver() (*Workload, error) {
	c := circuit.New("linearsolver-n3", 3)
	c.H(0)
	c.RY(math.Pi/4, 1)
	c.CX(0, 1)
	c.RY(-math.Pi/8, 1)
	c.CX(0, 1)
	c.RY(math.Pi/8, 1)
	c.H(0)
	c.CX(1, 2)
	c.RY(math.Pi/6, 2)
	c.MeasureAll()
	return workload(c)
}

// workload wraps a finished circuit with all qubits as data.
func workload(c *circuit.Circuit) (*Workload, error) {
	if err := c.Err(); err != nil {
		return nil, err
	}
	return &Workload{Circuit: c, DataQubits: allQubits(c.N)}, nil
}

// deterministicWorkload is workload plus the circuit's single ideal
// output, recorded as Expected (TestDeterministicBenchmarks checks it
// against the simulator).
func deterministicWorkload(c *circuit.Circuit, expected bitstring.BitString) (*Workload, error) {
	w, err := workload(c)
	if err != nil {
		return nil, err
	}
	w.Expected = expected
	w.Deterministic = true
	return w, nil
}

// SuiteEntry names one QASMBench-style benchmark and its builder.
type SuiteEntry struct {
	Name  string // QASMBench-style label, e.g. "adder_n4"
	Build func() (*Workload, error)
}

// Suite returns the QASMBench-style benchmark set used by Figs. 8, 9 and
// 11, sorted by name.
func Suite() []SuiteEntry {
	entries := []SuiteEntry{
		{"adder_n4", Adder},
		{"basis_change_n3", BasisChange},
		{"basis_trotter_n4", BasisTrotter},
		{"cat_state_n4", CatState},
		{"fredkin_n3", Fredkin},
		{"hs4_n4", HS4},
		{"linearsolver_n3", LinearSolver},
		{"lpn_n5", LPN},
		{"qec_en_n5", QECEncoder},
		{"qft_n4", QFT},
		{"qrng_n4", QRNG},
		{"toffoli_n3", Toffoli},
		{"variational_n4", Variational},
		{"wstate_n3", WState},
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	return entries
}

// ExtendedSuite is Suite plus the algorithm families beyond the paper's
// QASMBench set: Grover search, phase estimation, Deutsch-Jozsa and
// Simon's problem — spanning the entropy spectrum from point-mass to
// subspace-uniform outputs.
func ExtendedSuite() []SuiteEntry {
	entries := append(Suite(),
		SuiteEntry{"dj_n5", func() (*Workload, error) { return DeutschJozsa(4, false, 0b1011) }},
		SuiteEntry{"grover_n4", func() (*Workload, error) { return Grover(4, 0b1010) }},
		SuiteEntry{"qpe_n4", func() (*Workload, error) { return QPE(3, 3.0/8) }},
		SuiteEntry{"simon_n8", func() (*Workload, error) { return Simon(4, 0b0110) }},
	)
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	return entries
}

// BySuiteName builds the named entry from the extended suite.
func BySuiteName(name string) (*Workload, error) {
	for _, e := range ExtendedSuite() {
		if e.Name == name {
			return e.Build()
		}
	}
	return nil, fmt.Errorf("algorithms: unknown benchmark %q", name)
}
