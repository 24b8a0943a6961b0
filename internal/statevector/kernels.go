// Pair-stride gate kernels, gate fusion and amplitude-array sharding.
//
// The engine replaces the textbook full-register scan (one branch per
// index per gate, see naiveApply) with kernels that enumerate exactly the
// amplitudes a gate touches:
//
//   - a single-qubit gate on qubit q pairs amplitude i with i|2^q; the
//     kernel iterates the compressed pair-index space t ∈ [0, 2^(n-1)),
//     expanding t to i by inserting a 0 bit at position q, and walks each
//     contiguous run of up to 2^q pairs with sliced cursors the compiler
//     can bounds-check-eliminate — no per-index mask test, each pair
//     touched exactly once;
//   - diagonal gates (Z/S/T/Sdg/Tdg/RZ and fused diagonal runs) multiply
//     amplitudes in place, skipping the |0⟩ half when its phase is exactly 1
//     so they stay bit-identical to the naive phase loop;
//   - permutation gates (X/CX/SWAP/CCX/CSWAP) move amplitudes with index
//     arithmetic only; controlled gates enumerate the 2^(n-k) compressed
//     space with the control bits forced on, touching a 4-8× smaller
//     index set than the naive scan;
//   - dense 2×2 matrices are classified by structure: all-real entries
//     (H, RY, fused real runs) and real-diagonal/imaginary-off-diagonal
//     entries (RX, Y) use reduced-flop arithmetic — the results equal the
//     generic complex path exactly up to the sign of zero, which compares
//     equal;
//   - adjacent single-qubit gates on the same qubit fuse into one 2×2
//     matrix (or one diagonal when every gate in the run is diagonal)
//     before application, and the ZZ-interaction sandwich CX·D·CX (D
//     diagonal on the target) collapses to a single two-qubit diagonal
//     pass — float-identical to the unfused sequence, since each
//     amplitude receives exactly the same single phase multiplication.
//
// Sharding: every kernel is expressed over a compressed index space in
// which one index == one independent pair (or element group), so
// splitting the space into contiguous worker ranges can never split a
// pair across shards, and the output is bitwise independent of the
// worker count.
package statevector

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"runtime"

	"qbeep/internal/circuit"
	"qbeep/internal/par"
)

// opKind discriminates the kernel an op dispatches to.
type opKind uint8

const (
	opNoop   opKind = iota
	opDense1        // 2×2 matrix on qubit q0 (dense single-qubit gate or fused run)
	opDiag1         // diagonal {d0, d1} on qubit q0
	opFlip          // X on q0
	opCX            // control q0, target q1
	opCZ            // phase -1 where q0 and q1 both set
	opZZ            // fused CX·D·CX: d0 where bits q0==q1, d1 where they differ
	opSwap          // exchange q0, q1
	opCCX           // controls q0,q1, target q2
	opCSwap         // control q0, exchange q1,q2
	opDiagN         // fused run of diagonal ops: phase table over the involved qubits
)

// Dense matrix structure classes (see dense1Range).
const (
	classGeneric uint8 = iota
	classReal          // every entry real: 8 mul + 4 add per pair
	classAxial         // real diagonal, imaginary off-diagonal: 8 mul + 4 add
)

// op is one compiled kernel invocation.
type op struct {
	kind       opKind
	class      uint8 // opDense1 structure class
	q0, q1, q2 int
	m          [2][2]complex128 // opDense1
	d0, d1     complex128       // opDiag1 / opZZ
	offs       []int            // opDiagN: amplitude offsets per involved-bit combo
	tbl        []complex128     // opDiagN: phase per combo
	masks      []int            // opDiagN: involved qubit masks, ascending
}

// denseClass classifies a 2×2 matrix for the specialized kernels.
func denseClass(m [2][2]complex128) uint8 {
	if imag(m[0][0]) == 0 && imag(m[0][1]) == 0 && imag(m[1][0]) == 0 && imag(m[1][1]) == 0 {
		return classReal
	}
	if imag(m[0][0]) == 0 && imag(m[1][1]) == 0 && real(m[0][1]) == 0 && real(m[1][0]) == 0 {
		return classAxial
	}
	return classGeneric
}

// diagPhases returns the diagonal entries for a diagonal gate kind.
func diagPhases(g circuit.Gate) (d0, d1 complex128, ok bool) {
	switch g.Kind {
	case circuit.Z:
		return 1, -1, true
	case circuit.S:
		return 1, 1i, true
	case circuit.Sdg:
		return 1, -1i, true
	case circuit.T:
		return 1, cmplx.Exp(1i * math.Pi / 4), true
	case circuit.Tdg:
		return 1, cmplx.Exp(-1i * math.Pi / 4), true
	case circuit.RZ:
		phi := g.Params[0]
		return cmplx.Exp(complex(0, -phi/2)), cmplx.Exp(complex(0, phi/2)), true
	default:
		return 0, 0, false
	}
}

// mat1 returns the 2×2 unitary of any single-qubit gate kind (used by the
// fusion pass; the unfused path prefers the diagonal/permutation kernels).
func mat1(g circuit.Gate) ([2][2]complex128, bool) {
	if d0, d1, ok := diagPhases(g); ok {
		return [2][2]complex128{{d0, 0}, {0, d1}}, true
	}
	switch g.Kind {
	case circuit.I:
		return [2][2]complex128{{1, 0}, {0, 1}}, true
	case circuit.X:
		return [2][2]complex128{{0, 1}, {1, 0}}, true
	case circuit.Y:
		return [2][2]complex128{{0, -1i}, {1i, 0}}, true
	case circuit.H:
		return [2][2]complex128{{invSqrt2, invSqrt2}, {invSqrt2, -invSqrt2}}, true
	case circuit.SX:
		return [2][2]complex128{
			{complex(0.5, 0.5), complex(0.5, -0.5)},
			{complex(0.5, -0.5), complex(0.5, 0.5)}}, true
	case circuit.RX:
		c, sn := math.Cos(g.Params[0]/2), math.Sin(g.Params[0]/2)
		return [2][2]complex128{
			{complex(c, 0), complex(0, -sn)},
			{complex(0, -sn), complex(c, 0)}}, true
	case circuit.RY:
		c, sn := math.Cos(g.Params[0]/2), math.Sin(g.Params[0]/2)
		return [2][2]complex128{
			{complex(c, 0), complex(-sn, 0)},
			{complex(sn, 0), complex(c, 0)}}, true
	case circuit.U3:
		return u3Matrix(g.Params[0], g.Params[1], g.Params[2]), true
	default:
		return [2][2]complex128{}, false
	}
}

// gateOp compiles one gate into its fastest single-gate op.
func gateOp(g circuit.Gate) (op, error) {
	switch g.Kind {
	case circuit.I, circuit.Barrier, circuit.Measure:
		return op{kind: opNoop}, nil
	case circuit.X:
		return op{kind: opFlip, q0: g.Qubits[0]}, nil
	case circuit.CX:
		return op{kind: opCX, q0: g.Qubits[0], q1: g.Qubits[1]}, nil
	case circuit.CZ:
		return op{kind: opCZ, q0: g.Qubits[0], q1: g.Qubits[1]}, nil
	case circuit.SWAP:
		return op{kind: opSwap, q0: g.Qubits[0], q1: g.Qubits[1]}, nil
	case circuit.CCX:
		return op{kind: opCCX, q0: g.Qubits[0], q1: g.Qubits[1], q2: g.Qubits[2]}, nil
	case circuit.CSWAP:
		return op{kind: opCSwap, q0: g.Qubits[0], q1: g.Qubits[1], q2: g.Qubits[2]}, nil
	}
	if d0, d1, ok := diagPhases(g); ok {
		return op{kind: opDiag1, q0: g.Qubits[0], d0: d0, d1: d1}, nil
	}
	if m, ok := mat1(g); ok {
		return op{kind: opDense1, class: denseClass(m), q0: g.Qubits[0], m: m}, nil
	}
	return op{}, fmt.Errorf("statevector: unsupported gate %s", g.Kind)
}

// mul2 returns b·a: the matrix of "apply a, then b".
func mul2(b, a [2][2]complex128) [2][2]complex128 {
	return [2][2]complex128{
		{b[0][0]*a[0][0] + b[0][1]*a[1][0], b[0][0]*a[0][1] + b[0][1]*a[1][1]},
		{b[1][0]*a[0][0] + b[1][1]*a[1][0], b[1][0]*a[0][1] + b[1][1]*a[1][1]},
	}
}

// pendingFusion accumulates a run of single-qubit gates on one qubit.
type pendingFusion struct {
	active bool
	count  int
	first  op               // the compiled op of the first gate (emitted verbatim for runs of one)
	m      [2][2]complex128 // product of the run so far
	diag   bool             // every gate in the run is diagonal
	d0, d1 complex128       // diagonal product (valid while diag)
}

// compileOps lowers a gate list to kernel ops. With fuse set, maximal runs
// of single-qubit gates on the same qubit — contiguous up to gates on
// disjoint qubits, which commute — collapse into one opDense1 (or one
// opDiag1 when the whole run is diagonal), and CX·D·CX sandwiches
// collapse to two-qubit diagonals (see fuseSandwiches). Runs of a single
// gate emit the gate's own fast-path op unchanged, so the unfused program
// is exactly the per-gate kernel sequence.
func compileOps(n int, gates []circuit.Gate, fuse bool) ([]op, error) {
	ops := make([]op, 0, len(gates))
	pend := make([]pendingFusion, n)
	flush := func(q int) {
		p := &pend[q]
		if !p.active {
			return
		}
		switch {
		case p.count == 1:
			ops = append(ops, p.first)
		case p.diag:
			ops = append(ops, op{kind: opDiag1, q0: q, d0: p.d0, d1: p.d1})
		default:
			ops = append(ops, op{kind: opDense1, class: denseClass(p.m), q0: q, m: p.m})
		}
		*p = pendingFusion{}
	}
	for _, g := range gates {
		if err := g.Validate(n); err != nil {
			return nil, err
		}
		o, err := gateOp(g)
		if err != nil {
			return nil, err
		}
		if o.kind == opNoop {
			// Barriers and measurements fence fusion on their qubits but
			// compile to nothing.
			for _, q := range g.Qubits {
				flush(q)
			}
			continue
		}
		if fuse && g.Kind.Arity() == 1 {
			q := g.Qubits[0]
			m, _ := mat1(g)
			d0, d1, isDiag := diagPhases(g)
			p := &pend[q]
			if !p.active {
				*p = pendingFusion{active: true, count: 1, first: o, m: m, diag: isDiag, d0: d0, d1: d1}
			} else {
				p.count++
				p.m = mul2(m, p.m)
				if p.diag && isDiag {
					p.d0 *= d0
					p.d1 *= d1
				} else {
					p.diag = false
				}
			}
			continue
		}
		for _, q := range g.Qubits {
			flush(q)
		}
		ops = append(ops, o)
	}
	for q := 0; q < n; q++ {
		flush(q)
	}
	if fuse {
		ops = fuseSandwiches(ops)
		ops = fuseDiagRuns(ops)
	}
	return ops, nil
}

// fuseSandwiches rewrites CX·D·CX patterns (same control/target, D a
// single-qubit diagonal) in one pass over the op stream:
//
//   - D on the target: the sandwich equals the two-qubit diagonal that
//     phases each basis state by d0 when the control and target bits
//     agree and d1 when they differ (the ZZ-interaction of QAOA cost
//     layers) — one multiplication per amplitude, float-identical to the
//     three-op sequence, at a third of the passes;
//   - D on the control: D commutes through CX, so the pair of CNOTs
//     cancels and only D remains.
func fuseSandwiches(ops []op) []op {
	out := ops[:0]
	for i := 0; i < len(ops); i++ {
		if i+2 < len(ops) &&
			ops[i].kind == opCX && ops[i+1].kind == opDiag1 && ops[i+2].kind == opCX &&
			ops[i].q0 == ops[i+2].q0 && ops[i].q1 == ops[i+2].q1 {
			d := ops[i+1]
			if d.q0 == ops[i].q1 {
				out = append(out, op{kind: opZZ, q0: ops[i].q0, q1: ops[i].q1, d0: d.d0, d1: d.d1})
				i += 2
				continue
			}
			if d.q0 == ops[i].q0 {
				out = append(out, d)
				i += 2
				continue
			}
		}
		out = append(out, ops[i])
	}
	return out
}

// diagGroupMax caps the involved-qubit count of a fused diagonal group:
// the phase table has 2^k entries, so 8 keeps it at 4KB — resident in L1
// while still collapsing a whole QAOA cost layer into a pass or two.
const diagGroupMax = 8

// diagOpMask reports the involved-qubit mask of a diagonal op.
func diagOpMask(o op) (uint64, bool) {
	switch o.kind {
	case opDiag1:
		return 1 << uint(o.q0), true
	case opCZ, opZZ:
		return 1<<uint(o.q0) | 1<<uint(o.q1), true
	default:
		return 0, false
	}
}

// opQubitMask returns the involved-qubit mask of any op.
func opQubitMask(o op) uint64 {
	switch o.kind {
	case opDense1, opDiag1, opFlip:
		return 1 << uint(o.q0)
	case opCX, opCZ, opZZ, opSwap:
		return 1<<uint(o.q0) | 1<<uint(o.q1)
	case opCCX, opCSwap:
		return 1<<uint(o.q0) | 1<<uint(o.q1) | 1<<uint(o.q2)
	case opDiagN:
		var m uint64
		for _, msk := range o.masks {
			m |= uint64(msk)
		}
		return m
	default:
		return 0
	}
}

// fuseDiagRuns merges runs of diagonal ops (diagonal matrices all
// commute) into opDiagN groups of at most diagGroupMax involved qubits:
// one table-driven pass applies the whole group with a single phase
// multiplication per amplitude. Non-diagonal ops on qubits disjoint from
// the open group commute with every member element-wise, so they hoist
// ahead of it — bitwise identical — which keeps a QAOA cost layer intact
// even though compilation interleaves it with mixer gates. A layer of n
// ring-edge diagonals collapses from n full-register sweeps to
// ⌈n/(diagGroupMax-1)⌉. Phases compose in the table (2^k entries) rather
// than per amplitude, so results sit within the fused pipeline's 1e-12
// contract of the sequential application.
func fuseDiagRuns(ops []op) []op {
	out := ops[:0]
	var group []op
	var qmask uint64
	flush := func() {
		switch {
		case len(group) == 0:
		case len(group) == 1:
			out = append(out, group[0])
		default:
			out = append(out, buildDiagN(group, qmask))
		}
		group = group[:0]
		qmask = 0
	}
	for _, o := range ops {
		if m, ok := diagOpMask(o); ok {
			if bits.OnesCount64(qmask|m) > diagGroupMax {
				flush()
			}
			qmask |= m
			group = append(group, o)
			continue
		}
		if opQubitMask(o)&qmask == 0 {
			out = append(out, o)
			continue
		}
		flush()
		out = append(out, o)
	}
	flush()
	return out
}

// buildDiagN materializes a diagonal group: per involved-bit combo c, the
// amplitude offset from the expanded base index and the composed phase.
func buildDiagN(group []op, qmask uint64) op {
	var masks []int
	for q := 0; q < 64; q++ {
		if qmask>>uint(q)&1 == 1 {
			masks = append(masks, 1<<uint(q))
		}
	}
	bitOf := func(q int) int {
		b := 0
		for i, m := range masks {
			if m == 1<<uint(q) {
				b = i
			}
		}
		return b
	}
	size := 1 << uint(len(masks))
	offs := make([]int, size)
	tbl := make([]complex128, size)
	for c := range tbl {
		tbl[c] = 1
		off := 0
		for b, m := range masks {
			if c>>uint(b)&1 == 1 {
				off += m
			}
		}
		offs[c] = off
	}
	for _, o := range group {
		switch o.kind {
		case opDiag1:
			b := bitOf(o.q0)
			for c := range tbl {
				if c>>uint(b)&1 == 1 {
					tbl[c] *= o.d1
				} else {
					tbl[c] *= o.d0
				}
			}
		case opCZ:
			ba, bb := bitOf(o.q0), bitOf(o.q1)
			for c := range tbl {
				if c>>uint(ba)&1 == 1 && c>>uint(bb)&1 == 1 {
					tbl[c] = -tbl[c]
				}
			}
		case opZZ:
			ba, bb := bitOf(o.q0), bitOf(o.q1)
			for c := range tbl {
				if c>>uint(ba)&1 == c>>uint(bb)&1 {
					tbl[c] *= o.d0
				} else {
					tbl[c] *= o.d1
				}
			}
		}
	}
	return op{kind: opDiagN, offs: offs, tbl: tbl, masks: masks}
}

// opSpace returns the size of the op's compressed index space (one index
// == one independent pair/element group).
func (s *State) opSpace(o op) int {
	dim := len(s.amp)
	switch o.kind {
	case opDense1, opDiag1, opFlip:
		return dim >> 1
	case opCX, opCZ, opZZ, opSwap:
		return dim >> 2
	case opCCX, opCSwap:
		return dim >> 3
	case opDiagN:
		return dim >> uint(len(o.masks))
	default:
		return 0
	}
}

// parMinSpace is the compressed-space size below which sharding never
// pays for the fan-out (auto mode only; explicit worker counts shard
// unconditionally so the equivalence tests cover every path).
const parMinSpace = 1 << 13

// resolveWorkers picks the shard count for a kernel over space indices.
func (s *State) resolveWorkers(space int) int {
	w := s.workers
	if w <= 0 {
		if space < parMinSpace {
			return 1
		}
		w = runtime.GOMAXPROCS(0)
	}
	if w > space {
		w = space
	}
	if w < 1 {
		w = 1
	}
	return w
}

// applyOp runs one kernel, sharded across workers above the threshold.
// Shards are contiguous ranges of the compressed index space, so no two
// shards ever touch the same amplitude.
//
// The sharded branch lives in applyOpPar: its fan-out closure captures
// the op, and were it written inline, escape analysis would move the op
// parameter to the heap for *every* call — one allocation per gate on
// the serial path that the trajectory sampler's zero-alloc pin forbids.
// The //qbeep:allocfree directive makes the gcfacts gate reject any
// refactor that merges the branch back in.
//
//qbeep:allocfree
func (s *State) applyOp(o op) {
	if o.kind == opNoop {
		return
	}
	space := s.opSpace(o)
	w := s.resolveWorkers(space)
	if w <= 1 {
		s.opRange(o, 0, space)
		return
	}
	s.applyOpPar(o, space, w)
}

// applyOpPar shards one kernel across w workers.
//
//go:noinline
func (s *State) applyOpPar(o op, space, w int) {
	chunk := (space + w - 1) / w
	// Kernel shards cannot fail; ForEach's error slot stays nil. The
	// state's context parents the shard worker spans.
	_, _ = par.ForEach(s.ctx, w, w, func(_ context.Context, k int) error {
		lo := k * chunk
		hi := lo + chunk
		if hi > space {
			hi = space
		}
		if lo < hi {
			s.opRange(o, lo, hi)
		}
		return nil
	})
}

// opRange applies the kernel over compressed indices [lo, hi).
//
//qbeep:allocfree
func (s *State) opRange(o op, lo, hi int) {
	switch o.kind {
	case opDense1:
		s.dense1Range(o.q0, o.class, o.m, lo, hi)
	case opDiag1:
		s.diag1Range(o.q0, o.d0, o.d1, lo, hi)
	case opFlip:
		s.flipRange(o.q0, lo, hi)
	case opCX:
		s.cxRange(o.q0, o.q1, lo, hi)
	case opCZ:
		s.czRange(o.q0, o.q1, lo, hi)
	case opZZ:
		s.zzRange(o.q0, o.q1, o.d0, o.d1, lo, hi)
	case opSwap:
		s.swapRange(o.q0, o.q1, lo, hi)
	case opCCX:
		s.ccxRange(o.q0, o.q1, o.q2, lo, hi)
	case opCSwap:
		s.cswapRange(o.q0, o.q1, o.q2, lo, hi)
	case opDiagN:
		s.diagNRange(o, lo, hi)
	}
}

// diagNRange applies a fused diagonal group: for each compressed index
// the base expands through every involved qubit position, then the 2^k
// combos multiply by their composed phase at base+offset — one complex
// multiplication per amplitude regardless of how many diagonal gates
// the group absorbed. Combos at consecutive offsets touch consecutive
// memory when the involved qubits sit low, which they do for the
// nearest-neighbour interactions this fusion targets.
//
//qbeep:allocfree
func (s *State) diagNRange(o op, lo, hi int) {
	amp := s.amp
	offs := o.offs
	tbl := o.tbl
	tbl = tbl[:len(offs)]
	for t := lo; t < hi; t++ {
		base := t
		for _, m := range o.masks {
			base = insertZero(base, m)
		}
		for c, off := range offs {
			amp[base+off] *= tbl[c]
		}
	}
}

// insertZero expands a compressed index by inserting a 0 bit at the mask
// position: bits below the mask stay, bits at and above shift left.
func insertZero(t, mask int) int {
	return (t&^(mask-1))<<1 | t&(mask-1)
}

// insert2 expands through two mask positions (mLo < mHi, applied low
// first so the high insertion sees the already-widened index).
func insert2(t, mLo, mHi int) int {
	return insertZero(insertZero(t, mLo), mHi)
}

// sort2 returns the two masks in ascending order.
func sort2(a, b int) (int, int) {
	if a < b {
		return a, b
	}
	return b, a
}

// runEnd bounds a contiguous run: from t to the end of its mask block or
// hi, whichever is first.
func runEnd(t, mask, hi int) int {
	end := t + mask - t&(mask-1)
	if end > hi {
		end = hi
	}
	return end
}

// smallRun is the low-mask threshold below which kernels index directly
// instead of carving per-run slices: a mask of 1 makes every contiguous
// run a single element, so the slice-cursor prologue would dominate.
const smallRun = 16

// dense1Range applies a 2×2 matrix to pairs lo..hi of qubit q's pair
// space, walking contiguous runs within each 2^q block through sliced
// cursors (bounds checks hoist out of the inner loops). The structure
// classes cut the generic 16-multiply complex arithmetic down to 8 real
// multiplies for real and axial matrices; results equal the generic path
// exactly up to the sign of zero.
//
//qbeep:allocfree
func (s *State) dense1Range(q int, class uint8, m [2][2]complex128, lo, hi int) {
	mask := 1 << uint(q)
	amp := s.amp
	if mask < smallRun {
		switch class {
		case classReal:
			m00, m01 := real(m[0][0]), real(m[0][1])
			m10, m11 := real(m[1][0]), real(m[1][1])
			for t := lo; t < hi; t++ {
				i := insertZero(t, mask)
				j := i + mask
				a0, a1 := amp[i], amp[j]
				amp[i] = complex(m00*real(a0)+m01*real(a1), m00*imag(a0)+m01*imag(a1))
				amp[j] = complex(m10*real(a0)+m11*real(a1), m10*imag(a0)+m11*imag(a1))
			}
		case classAxial:
			al0, al1 := real(m[0][0]), real(m[1][1])
			be0, be1 := imag(m[0][1]), imag(m[1][0])
			for t := lo; t < hi; t++ {
				i := insertZero(t, mask)
				j := i + mask
				a0, a1 := amp[i], amp[j]
				amp[i] = complex(al0*real(a0)-be0*imag(a1), al0*imag(a0)+be0*real(a1))
				amp[j] = complex(al1*real(a1)-be1*imag(a0), al1*imag(a1)+be1*real(a0))
			}
		default:
			m00, m01, m10, m11 := m[0][0], m[0][1], m[1][0], m[1][1]
			for t := lo; t < hi; t++ {
				i := insertZero(t, mask)
				j := i + mask
				a0, a1 := amp[i], amp[j]
				amp[i] = m00*a0 + m01*a1
				amp[j] = m10*a0 + m11*a1
			}
		}
		return
	}
	for t := lo; t < hi; {
		end := runEnd(t, mask, hi)
		i := insertZero(t, mask)
		run := end - t
		a := amp[i : i+run]
		b := amp[i+mask : i+mask+run]
		b = b[:len(a)]
		switch class {
		case classReal:
			m00, m01 := real(m[0][0]), real(m[0][1])
			m10, m11 := real(m[1][0]), real(m[1][1])
			for k := range a {
				a0, a1 := a[k], b[k]
				a[k] = complex(m00*real(a0)+m01*real(a1), m00*imag(a0)+m01*imag(a1))
				b[k] = complex(m10*real(a0)+m11*real(a1), m10*imag(a0)+m11*imag(a1))
			}
		case classAxial:
			al0, al1 := real(m[0][0]), real(m[1][1])
			be0, be1 := imag(m[0][1]), imag(m[1][0])
			for k := range a {
				a0, a1 := a[k], b[k]
				a[k] = complex(al0*real(a0)-be0*imag(a1), al0*imag(a0)+be0*real(a1))
				b[k] = complex(al1*real(a1)-be1*imag(a0), al1*imag(a1)+be1*real(a0))
			}
		default:
			m00, m01, m10, m11 := m[0][0], m[0][1], m[1][0], m[1][1]
			for k := range a {
				a0, a1 := a[k], b[k]
				a[k] = m00*a0 + m01*a1
				b[k] = m10*a0 + m11*a1
			}
		}
		t = end
	}
}

// diag1Range multiplies the two halves of each pair by d0/d1. A d0 of
// exactly 1 skips the |0⟩ half entirely, mirroring the naive phase loop
// bit-for-bit.
//
//qbeep:allocfree
func (s *State) diag1Range(q int, d0, d1 complex128, lo, hi int) {
	mask := 1 << uint(q)
	amp := s.amp
	skip0 := d0 == 1 //qbeep:allow-floatcmp exact sentinel: compiled diagonals store a literal 1 for the identity half
	if mask < smallRun {
		if skip0 {
			for t := lo; t < hi; t++ {
				amp[insertZero(t, mask)+mask] *= d1
			}
		} else {
			for t := lo; t < hi; t++ {
				i := insertZero(t, mask)
				amp[i] *= d0
				amp[i+mask] *= d1
			}
		}
		return
	}
	for t := lo; t < hi; {
		end := runEnd(t, mask, hi)
		i := insertZero(t, mask)
		run := end - t
		b := amp[i+mask : i+mask+run]
		if skip0 {
			for k := range b {
				b[k] *= d1
			}
		} else {
			a := amp[i : i+run]
			a = a[:len(b)]
			for k := range b {
				a[k] *= d0
				b[k] *= d1
			}
		}
		t = end
	}
}

// flipRange swaps the halves of each pair (Pauli X: a pure permutation).
//
//qbeep:allocfree
func (s *State) flipRange(q int, lo, hi int) {
	mask := 1 << uint(q)
	amp := s.amp
	if mask < smallRun {
		for t := lo; t < hi; t++ {
			i := insertZero(t, mask)
			j := i + mask
			amp[i], amp[j] = amp[j], amp[i]
		}
		return
	}
	for t := lo; t < hi; {
		end := runEnd(t, mask, hi)
		i := insertZero(t, mask)
		run := end - t
		a := amp[i : i+run]
		b := amp[i+mask : i+mask+run]
		b = b[:len(a)]
		for k := range a {
			a[k], b[k] = b[k], a[k]
		}
		t = end
	}
}

// cxRange swaps target pairs where the control is set: compressed space
// has zeros at both qubit positions, control forced on.
//
//qbeep:allocfree
func (s *State) cxRange(ctrl, tgt, lo, hi int) {
	cm := 1 << uint(ctrl)
	tm := 1 << uint(tgt)
	mLo, mHi := sort2(cm, tm)
	amp := s.amp
	if mLo < smallRun {
		for t := lo; t < hi; t++ {
			i := insert2(t, mLo, mHi) | cm
			j := i + tm
			amp[i], amp[j] = amp[j], amp[i]
		}
		return
	}
	for t := lo; t < hi; {
		end := runEnd(t, mLo, hi)
		i := insert2(t, mLo, mHi) | cm
		run := end - t
		a := amp[i : i+run]
		b := amp[i+tm : i+tm+run]
		b = b[:len(a)]
		for k := range a {
			a[k], b[k] = b[k], a[k]
		}
		t = end
	}
}

// czRange negates amplitudes where both qubits are set.
//
//qbeep:allocfree
func (s *State) czRange(a, b, lo, hi int) {
	am := 1 << uint(a)
	bm := 1 << uint(b)
	mLo, mHi := sort2(am, bm)
	amp := s.amp
	if mLo < smallRun {
		for t := lo; t < hi; t++ {
			i := insert2(t, mLo, mHi) | am | bm
			amp[i] = -amp[i]
		}
		return
	}
	for t := lo; t < hi; {
		end := runEnd(t, mLo, hi)
		i := insert2(t, mLo, mHi) | am | bm
		run := end - t
		v := amp[i : i+run]
		for k := range v {
			v[k] = -v[k]
		}
		t = end
	}
}

// zzRange applies the fused two-qubit diagonal: d0 where the two qubit
// bits agree, d1 where they differ — four strided streams per run, one
// multiplication per amplitude.
//
//qbeep:allocfree
func (s *State) zzRange(qa, qb int, d0, d1 complex128, lo, hi int) {
	am := 1 << uint(qa)
	bm := 1 << uint(qb)
	mLo, mHi := sort2(am, bm)
	amp := s.amp
	if mLo < smallRun {
		for t := lo; t < hi; t++ {
			base := insert2(t, mLo, mHi)
			amp[base] *= d0
			amp[base+am+bm] *= d0
			amp[base+am] *= d1
			amp[base+bm] *= d1
		}
		return
	}
	for t := lo; t < hi; {
		end := runEnd(t, mLo, hi)
		base := insert2(t, mLo, mHi)
		run := end - t
		p00 := amp[base : base+run]
		p01 := amp[base+am : base+am+run]
		p10 := amp[base+bm : base+bm+run]
		p11 := amp[base+am+bm : base+am+bm+run]
		p01 = p01[:len(p00)]
		p10 = p10[:len(p00)]
		p11 = p11[:len(p00)]
		for k := range p00 {
			p00[k] *= d0
			p11[k] *= d0
			p01[k] *= d1
			p10[k] *= d1
		}
		t = end
	}
}

// swapRange exchanges the |01⟩ and |10⟩ components of each qubit pair.
//
//qbeep:allocfree
func (s *State) swapRange(a, b, lo, hi int) {
	am := 1 << uint(a)
	bm := 1 << uint(b)
	mLo, mHi := sort2(am, bm)
	amp := s.amp
	if mLo < smallRun {
		for t := lo; t < hi; t++ {
			base := insert2(t, mLo, mHi)
			i := base + am
			j := base + bm
			amp[i], amp[j] = amp[j], amp[i]
		}
		return
	}
	for t := lo; t < hi; {
		end := runEnd(t, mLo, hi)
		base := insert2(t, mLo, mHi)
		run := end - t
		p := amp[base+am : base+am+run]
		q := amp[base+bm : base+bm+run]
		q = q[:len(p)]
		for k := range p {
			p[k], q[k] = q[k], p[k]
		}
		t = end
	}
}

// insert3 expands through three ascending mask positions.
func insert3(t, m0, m1, m2 int) int {
	return insertZero(insert2(t, m0, m1), m2)
}

// sort3 returns the three masks ascending.
func sort3(a, b, c int) (int, int, int) {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return a, b, c
}

// ccxRange swaps target pairs where both controls are set.
//
//qbeep:allocfree
func (s *State) ccxRange(c1, c2, tgt, lo, hi int) {
	m1 := 1 << uint(c1)
	m2 := 1 << uint(c2)
	tm := 1 << uint(tgt)
	s0, s1, s2 := sort3(m1, m2, tm)
	amp := s.amp
	for t := lo; t < hi; t++ {
		i := insert3(t, s0, s1, s2) | m1 | m2
		j := i | tm
		amp[i], amp[j] = amp[j], amp[i]
	}
}

// cswapRange exchanges the two swap qubits where the control is set.
//
//qbeep:allocfree
func (s *State) cswapRange(ctrl, a, b, lo, hi int) {
	cm := 1 << uint(ctrl)
	am := 1 << uint(a)
	bm := 1 << uint(b)
	s0, s1, s2 := sort3(cm, am, bm)
	amp := s.amp
	for t := lo; t < hi; t++ {
		base := insert3(t, s0, s1, s2) | cm
		i := base | am
		j := base | bm
		amp[i], amp[j] = amp[j], amp[i]
	}
}
