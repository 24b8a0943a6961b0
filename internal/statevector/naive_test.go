package statevector

import (
	"fmt"
	"math"
	"math/cmplx"

	"qbeep/internal/circuit"
)

// naiveApply is the seed repository's full-scan gate application: one pass
// over all 2^n amplitudes with a per-index mask test for every gate. It is
// kept as the randomized-equivalence oracle for the kernel engine (the
// same role bruteScanEdges plays for the state-graph engine) and as the
// benchmark baseline in BENCH_sim.json.
func (s *State) naiveApply(g circuit.Gate) error {
	if err := g.Validate(s.n); err != nil {
		return err
	}
	switch g.Kind {
	case circuit.I, circuit.Barrier, circuit.Measure:
		// no-op on the pure state
	case circuit.X:
		s.flip(g.Qubits[0])
	case circuit.Y:
		s.applyMatrix1(g.Qubits[0], [2][2]complex128{{0, -1i}, {1i, 0}})
	case circuit.Z:
		s.phase1(g.Qubits[0], -1)
	case circuit.H:
		s.applyMatrix1(g.Qubits[0], [2][2]complex128{
			{invSqrt2, invSqrt2}, {invSqrt2, -invSqrt2}})
	case circuit.S:
		s.phase1(g.Qubits[0], 1i)
	case circuit.Sdg:
		s.phase1(g.Qubits[0], -1i)
	case circuit.T:
		s.phase1(g.Qubits[0], cmplx.Exp(1i*math.Pi/4))
	case circuit.Tdg:
		s.phase1(g.Qubits[0], cmplx.Exp(-1i*math.Pi/4))
	case circuit.SX:
		s.applyMatrix1(g.Qubits[0], [2][2]complex128{
			{complex(0.5, 0.5), complex(0.5, -0.5)},
			{complex(0.5, -0.5), complex(0.5, 0.5)}})
	case circuit.RX:
		th := g.Params[0]
		c, sn := math.Cos(th/2), math.Sin(th/2)
		s.applyMatrix1(g.Qubits[0], [2][2]complex128{
			{complex(c, 0), complex(0, -sn)},
			{complex(0, -sn), complex(c, 0)}})
	case circuit.RY:
		th := g.Params[0]
		c, sn := math.Cos(th/2), math.Sin(th/2)
		s.applyMatrix1(g.Qubits[0], [2][2]complex128{
			{complex(c, 0), complex(-sn, 0)},
			{complex(sn, 0), complex(c, 0)}})
	case circuit.RZ:
		phi := g.Params[0]
		mask := 1 << uint(g.Qubits[0])
		ph0 := cmplx.Exp(complex(0, -phi/2))
		ph1 := cmplx.Exp(complex(0, phi/2))
		for i := range s.amp {
			if i&mask != 0 {
				s.amp[i] *= ph1
			} else {
				s.amp[i] *= ph0
			}
		}
	case circuit.U3:
		s.applyMatrix1(g.Qubits[0], u3Matrix(g.Params[0], g.Params[1], g.Params[2]))
	case circuit.CX:
		cm := 1 << uint(g.Qubits[0])
		tm := 1 << uint(g.Qubits[1])
		for i := 0; i < len(s.amp); i++ {
			if i&cm != 0 && i&tm == 0 {
				j := i | tm
				s.amp[i], s.amp[j] = s.amp[j], s.amp[i]
			}
		}
	case circuit.CZ:
		am := 1 << uint(g.Qubits[0])
		bm := 1 << uint(g.Qubits[1])
		for i := range s.amp {
			if i&am != 0 && i&bm != 0 {
				s.amp[i] = -s.amp[i]
			}
		}
	case circuit.SWAP:
		am := 1 << uint(g.Qubits[0])
		bm := 1 << uint(g.Qubits[1])
		for i := 0; i < len(s.amp); i++ {
			if i&am != 0 && i&bm == 0 {
				j := i ^ am ^ bm
				s.amp[i], s.amp[j] = s.amp[j], s.amp[i]
			}
		}
	case circuit.CCX:
		c1 := 1 << uint(g.Qubits[0])
		c2 := 1 << uint(g.Qubits[1])
		tm := 1 << uint(g.Qubits[2])
		for i := 0; i < len(s.amp); i++ {
			if i&c1 != 0 && i&c2 != 0 && i&tm == 0 {
				j := i | tm
				s.amp[i], s.amp[j] = s.amp[j], s.amp[i]
			}
		}
	case circuit.CSWAP:
		cm := 1 << uint(g.Qubits[0])
		am := 1 << uint(g.Qubits[1])
		bm := 1 << uint(g.Qubits[2])
		for i := 0; i < len(s.amp); i++ {
			if i&cm != 0 && i&am != 0 && i&bm == 0 {
				j := i ^ am ^ bm
				s.amp[i], s.amp[j] = s.amp[j], s.amp[i]
			}
		}
	default:
		return fmt.Errorf("statevector: unsupported gate %s", g.Kind)
	}
	return nil
}

// applyMatrix1 applies a 2x2 unitary to qubit q (oracle path).
func (s *State) applyMatrix1(q int, m [2][2]complex128) {
	mask := 1 << uint(q)
	for i := 0; i < len(s.amp); i++ {
		if i&mask != 0 {
			continue
		}
		j := i | mask
		a0, a1 := s.amp[i], s.amp[j]
		s.amp[i] = m[0][0]*a0 + m[0][1]*a1
		s.amp[j] = m[1][0]*a0 + m[1][1]*a1
	}
}

// phase1 multiplies the |1⟩ component of qubit q by ph (oracle path).
func (s *State) phase1(q int, ph complex128) {
	mask := 1 << uint(q)
	for i := range s.amp {
		if i&mask != 0 {
			s.amp[i] *= ph
		}
	}
}

// flip applies X on qubit q (oracle path: pure permutation).
func (s *State) flip(q int) {
	mask := 1 << uint(q)
	for i := 0; i < len(s.amp); i++ {
		if i&mask == 0 {
			j := i | mask
			s.amp[i], s.amp[j] = s.amp[j], s.amp[i]
		}
	}
}
