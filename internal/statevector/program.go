// Compiled-program replay and cache-blocked (tiled) application.
//
// A Program is the reusable form of what RunConfiguredCtx previously
// rebuilt on every call: the circuit's gate list lowered (and, unless
// disabled, fused) into kernel ops once, replayable onto any State of
// the same width with RunProgram — the trajectory sampler replays one
// Program per shot instead of re-deriving per-gate kernels 100× per
// batch.
//
// Tiled replay (RunProgramTiled) is the cache-blocking transform: where
// a run of consecutive ops all act on qubits below the tile width, the
// amplitude array is walked tile by tile, applying the whole run to one
// L2-resident tile before moving on, instead of streaming the full
// register once per op. An op on qubit q < tileBits only combines
// amplitudes whose indices differ below the tile boundary, so a tile is
// closed under every op of the run and each amplitude receives exactly
// the same operations in the same order as the full-pass schedule —
// bitwise identical output for every tile size and worker count (workers
// shard on whole tiles, which can never split a pair).
package statevector

import (
	"context"
	"fmt"

	"qbeep/internal/circuit"
	"qbeep/internal/par"
)

// Program is a circuit compiled to kernel ops, reusable across replays:
// compile once, run on any State of the same width (RunProgram) without
// touching the circuit again. A Program is immutable after Compile and
// safe for concurrent replay onto distinct States.
type Program struct {
	n     int
	ops   []op
	gates int // source gate count, for span attrs
	fused bool
}

// Compile lowers the circuit under cfg (only NoFuse matters here; the
// worker/tile fields apply at replay time). No-op gates (I, barriers,
// measurements) are dropped — they fence fusion during lowering but
// replay to nothing, and removing them keeps tiled runs contiguous.
func Compile(c *circuit.Circuit, cfg RunConfig) (*Program, error) {
	if err := c.Err(); err != nil {
		return nil, err
	}
	ops, err := compileOps(c.N, c.Gates, !cfg.NoFuse)
	if err != nil {
		return nil, err
	}
	kept := ops[:0]
	for _, o := range ops {
		if o.kind != opNoop {
			kept = append(kept, o)
		}
	}
	return &Program{n: c.N, ops: kept, gates: len(c.Gates), fused: !cfg.NoFuse}, nil
}

// N returns the register width the program was compiled for.
func (p *Program) N() int { return p.n }

// Ops returns the number of kernel ops the program replays.
func (p *Program) Ops() int { return len(p.ops) }

// Gates returns the source circuit's gate count.
func (p *Program) Gates() int { return p.gates }

// RunProgram replays a compiled program onto the state in place: the
// zero-allocation hot path for repeated execution of one circuit.
//
//qbeep:allocfree
func (s *State) RunProgram(p *Program) error {
	if p.n != s.n {
		return widthMismatchError(p.n, s.n)
	}
	for _, o := range p.ops {
		s.applyOp(o)
	}
	return nil
}

// widthMismatchError builds the RunProgram width error. Split out like
// applyOpPar: fmt.Errorf boxes its operands, and inlined into
// RunProgram that boxing would sit in the replay loop's frame and break
// its allocfree fact; behind //go:noinline the cold path pays alone.
//
//go:noinline
func widthMismatchError(pn, sn int) error {
	return fmt.Errorf("statevector: program width %d vs state width %d", pn, sn)
}

// RunProgramTiled replays the program with cache-blocked application:
// maximal runs of consecutive ops whose qubits all sit below tileBits
// apply tile-by-tile (2^tileBits amplitudes per tile), each tile
// receiving the whole run while hot; ops reaching above the tile width
// fall back to ordinary full passes. tileBits <= 0 disables tiling.
// Output is bitwise identical to RunProgram for every tile size.
func (s *State) RunProgramTiled(p *Program, tileBits int) error {
	if p.n != s.n {
		return fmt.Errorf("statevector: program width %d vs state width %d", p.n, s.n)
	}
	if tileBits <= 0 {
		return s.RunProgram(p)
	}
	if tileBits > s.n {
		tileBits = s.n
	}
	tileSize := uint64(1) << uint(tileBits)
	ops := p.ops
	for i := 0; i < len(ops); {
		if opQubitMask(ops[i]) >= tileSize {
			s.applyOp(ops[i])
			i++
			continue
		}
		j := i + 1
		for j < len(ops) && opQubitMask(ops[j]) < tileSize {
			j++
		}
		s.applyTiledRun(ops[i:j], tileBits)
		i = j
	}
	return nil
}

// DefaultTileBits sizes tiles at 2^15 amplitudes = 512 KiB of
// complex128 — half a typical L2 slice, leaving room for the second
// stream a pair kernel reads.
const DefaultTileBits = 15

// applyTiledRun applies a run of tile-local ops tile by tile. Every op's
// qubit mask is below the tile width, so tile t's amplitude range
// [t·2^tileBits, (t+1)·2^tileBits) maps to the compressed pair-index
// range [t·2^(tileBits−k), (t+1)·2^(tileBits−k)) of an op touching k
// qubits — contiguous, and closed over the op's pairs. Workers shard on
// whole tiles, preserving the never-split-a-pair invariant.
func (s *State) applyTiledRun(ops []op, tileBits int) {
	tiles := len(s.amp) >> uint(tileBits)
	if tiles <= 1 {
		for _, o := range ops {
			s.applyOp(o)
		}
		return
	}
	runTiles := func(lo, hi int) {
		for t := lo; t < hi; t++ {
			for _, o := range ops {
				shift := uint(tileBits) - opShift(o)
				s.opRange(o, t<<shift, (t+1)<<shift)
			}
		}
	}
	w := s.resolveWorkers(tiles)
	if w <= 1 {
		runTiles(0, tiles)
		return
	}
	chunk := (tiles + w - 1) / w
	_, _ = par.ForEach(s.ctx, w, w, func(_ context.Context, k int) error {
		lo := k * chunk
		hi := lo + chunk
		if hi > tiles {
			hi = tiles
		}
		if lo < hi {
			runTiles(lo, hi)
		}
		return nil
	})
}

// opShift returns log2 of the compression factor of the op's index
// space: how many qubit positions the compressed index omits.
func opShift(o op) uint {
	switch o.kind {
	case opDense1, opDiag1, opFlip:
		return 1
	case opCX, opCZ, opZZ, opSwap:
		return 2
	case opCCX, opCSwap:
		return 3
	case opDiagN:
		return uint(len(o.masks))
	default:
		return 0
	}
}

// CompiledOp is one pre-lowered gate application, opaque to callers.
// Compiling a gate once and replaying it with ApplyCompiled skips the
// per-call lowering (and its allocations) of State.Apply.
type CompiledOp struct {
	o op
}

// CompileGate lowers one gate for a width-n register into a reusable
// CompiledOp. No-op gates (I, barriers, measurements) compile to an op
// that ApplyCompiled ignores.
func CompileGate(n int, g circuit.Gate) (CompiledOp, error) {
	if err := g.Validate(n); err != nil {
		return CompiledOp{}, err
	}
	o, err := gateOp(g)
	if err != nil {
		return CompiledOp{}, err
	}
	return CompiledOp{o: o}, nil
}

// ApplyCompiled applies a pre-lowered gate. The caller is responsible
// for width agreement (CompileGate validated it once).
//
//qbeep:allocfree
//qbeep:mustinline
func (s *State) ApplyCompiled(co CompiledOp) {
	s.applyOp(co.o)
}

// NewPauliOps returns the per-qubit Pauli injection table for a width-n
// register: element [q][k] applies X (k=0), Y (k=1) or Z (k=2) on qubit
// q. The trajectory sampler indexes this table instead of allocating a
// circuit.Gate{Qubits: []int{q}} per injection.
func NewPauliOps(n int) [][3]CompiledOp {
	tbl := make([][3]CompiledOp, n)
	for q := 0; q < n; q++ {
		tbl[q][0] = CompiledOp{o: op{kind: opFlip, q0: q}}
		tbl[q][1] = CompiledOp{o: op{
			kind:  opDense1,
			class: classAxial,
			q0:    q,
			m:     [2][2]complex128{{0, -1i}, {1i, 0}},
		}}
		tbl[q][2] = CompiledOp{o: op{kind: opDiag1, q0: q, d0: 1, d1: -1}}
	}
	return tbl
}
