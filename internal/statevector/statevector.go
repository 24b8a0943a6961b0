// Package statevector implements a dense state-vector simulator for the
// circuit IR. It is the ideal-execution substrate: noiseless probabilities,
// expectation values, and shot sampling for registers up to ~20 qubits.
//
// Gate application goes through the pair-stride kernel engine (kernels.go):
// branch-free block iteration, diagonal and permutation fast paths, fusion
// of adjacent single-qubit gates, and sharding of the amplitude array
// across internal/par workers for wide registers. The textbook full-scan
// implementation is retained as naiveApply, the randomized-equivalence
// oracle the kernels are tested against.
package statevector

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"time"

	"qbeep/internal/bitstring"
	"qbeep/internal/circuit"
	"qbeep/internal/obs"
)

// MaxQubits bounds the register width (2^24 amplitudes ≈ 256 MiB).
const MaxQubits = 24

// Simulation metrics (see internal/obs): run wall time, cumulative run
// and gate counts, and the width of the most recent run.
var (
	metRun   = obs.Default.Timer("sim.run")
	metRuns  = obs.Default.Counter("sim.runs")
	metGates = obs.Default.Counter("sim.gates")
	metWidth = obs.Default.Gauge("sim.width")
)

// State is an n-qubit pure state: 2^n complex amplitudes with qubit 0 the
// least-significant index bit.
type State struct {
	n       int
	amp     []complex128
	workers int // kernel shard count; 0 = auto (GOMAXPROCS above threshold)
	// ctx parents the kernel shard fan-outs' worker spans: the context
	// the state was created under, narrowed to the "sim.run" span while
	// RunConfiguredCtx drives the state.
	ctx context.Context
}

// New returns the all-zeros computational basis state |0...0⟩. Kernel
// shard fan-outs on the state run under ctx.
func New(ctx context.Context, n int) (*State, error) {
	if n <= 0 || n > MaxQubits {
		return nil, fmt.Errorf("statevector: width %d outside (0,%d]", n, MaxQubits)
	}
	s := &State{n: n, amp: make([]complex128, 1<<uint(n)), ctx: ctx}
	s.amp[0] = 1
	return s, nil
}

// NewBasis returns the computational basis state |b⟩ (see New).
func NewBasis(ctx context.Context, n int, b bitstring.BitString) (*State, error) {
	if uint64(b) >= uint64(1)<<uint(n) {
		return nil, fmt.Errorf("statevector: basis state %d outside %d-qubit register", b, n)
	}
	s, err := New(ctx, n)
	if err != nil {
		return nil, err
	}
	s.amp[0] = 0
	s.amp[b] = 1
	return s, nil
}

// N returns the register width.
func (s *State) N() int { return s.n }

// Amplitude returns the amplitude of basis state b.
func (s *State) Amplitude(b bitstring.BitString) complex128 { return s.amp[b] }

// SetWorkers sets the kernel shard count: w > 1 shards every kernel over w
// par workers, w == 1 forces serial application, and w <= 0 restores the
// default (GOMAXPROCS workers once the register is wide enough to pay for
// the fan-out). The state's contents are bitwise independent of w.
func (s *State) SetWorkers(w int) {
	if w < 0 {
		w = 0
	}
	s.workers = w
}

// Reset returns the state to the computational basis state |b⟩ in place,
// reusing the amplitude buffer (no allocation).
func (s *State) Reset(b bitstring.BitString) error {
	if uint64(b) >= uint64(len(s.amp)) {
		return fmt.Errorf("statevector: basis state %d outside %d-qubit register", b, s.n)
	}
	clear(s.amp)
	s.amp[b] = 1
	return nil
}

// Clone returns a deep copy.
func (s *State) Clone() *State {
	c := &State{n: s.n, amp: make([]complex128, len(s.amp)), workers: s.workers, ctx: s.ctx}
	copy(c.amp, s.amp)
	return c
}

// Norm returns the 2-norm of the state (1 for a valid state).
func (s *State) Norm() float64 {
	var sum float64
	for _, a := range s.amp {
		sum += real(a)*real(a) + imag(a)*imag(a)
	}
	return math.Sqrt(sum)
}

// Prob returns the measurement probability of basis state b.
func (s *State) Prob(b bitstring.BitString) float64 {
	a := s.amp[b]
	return real(a)*real(a) + imag(a)*imag(a)
}

// Probabilities returns the full probability vector as a fresh slice.
func (s *State) Probabilities() []float64 {
	return s.ProbabilitiesInto(nil)
}

// ProbabilitiesInto writes the probability vector into dst, reusing its
// storage when it has sufficient capacity (allocating only otherwise), and
// returns the written slice. Callers on hot loops keep one scratch slice
// alive and pass it back in every call.
func (s *State) ProbabilitiesInto(dst []float64) []float64 {
	if cap(dst) < len(s.amp) {
		dst = make([]float64, len(s.amp))
	}
	dst = dst[:len(s.amp)]
	for i, a := range s.amp {
		dst[i] = real(a)*real(a) + imag(a)*imag(a)
	}
	return dst
}

const invSqrt2 = 0.7071067811865476

func u3Matrix(theta, phi, lambda float64) [2][2]complex128 {
	ct, st := math.Cos(theta/2), math.Sin(theta/2)
	return [2][2]complex128{
		{complex(ct, 0), -cmplx.Exp(complex(0, lambda)) * complex(st, 0)},
		{cmplx.Exp(complex(0, phi)) * complex(st, 0),
			cmplx.Exp(complex(0, phi+lambda)) * complex(ct, 0)},
	}
}

// Apply applies one unitary gate through the kernel engine. Measurements
// and barriers are ignored here; sampling handles measurement (see
// Sample). The result is bit-identical to naiveApply for every gate kind.
func (s *State) Apply(g circuit.Gate) error {
	if err := g.Validate(s.n); err != nil {
		return err
	}
	o, err := gateOp(g)
	if err != nil {
		return err
	}
	s.applyOp(o)
	return nil
}

// RunConfig tunes circuit execution.
type RunConfig struct {
	// Workers is the kernel shard count (see State.SetWorkers); 0 = auto.
	Workers int
	// NoFuse disables single-qubit gate fusion, applying each gate with
	// its own kernel (bit-identical to the naiveApply oracle). The fused
	// default matches the oracle within 1e-12 per amplitude.
	NoFuse bool
	// TileBits enables cache-blocked replay (see RunProgramTiled):
	// positive values set the tile width in qubits, zero disables
	// tiling. Output is bitwise identical for every value.
	TileBits int
}

// RunConfiguredCtx applies the circuit to |init⟩ with explicit engine
// configuration. The whole gate list is compiled (and, unless NoFuse is
// set, fused) before any amplitude is touched. The "sim.run" span
// parents under the span active in ctx, and while the run is live the
// amplitude shard fan-outs parent their "par.worker" spans under it.
func RunConfiguredCtx(ctx context.Context, c *circuit.Circuit, init bitstring.BitString, cfg RunConfig) (*State, error) {
	if err := c.Err(); err != nil {
		return nil, err
	}
	p, err := Compile(c, cfg)
	if err != nil {
		return nil, err
	}
	s, err := NewBasis(ctx, c.N, init)
	if err != nil {
		return nil, err
	}
	s.SetWorkers(cfg.Workers)
	runCtx, sp := obs.Start(ctx, "sim.run")
	s.ctx = runCtx
	t0 := time.Now() //qbeep:allow-time span/metric timing, not kernel state
	err = s.RunProgramTiled(p, cfg.TileBits)
	s.ctx = ctx
	if err != nil {
		sp.End()
		return nil, err
	}
	elapsed := time.Since(t0) //qbeep:allow-time span/metric timing, not kernel state
	metRun.ObserveDuration(elapsed)
	metRuns.Inc()
	metGates.Add(int64(len(c.Gates)))
	metWidth.Set(float64(c.N))
	sp.SetAttr("circuit", c.Name)
	sp.SetAttr("width", c.N)
	sp.SetAttr("gates", len(c.Gates))
	sp.SetAttr("ops", p.Ops())
	sp.End()
	return s, nil
}

// IdealDistCtx returns the exact output distribution of the circuit
// (scaled to probability 1): the paper's "true solution" reference.
func IdealDistCtx(ctx context.Context, c *circuit.Circuit) (*bitstring.Dist, error) {
	s, err := RunConfiguredCtx(ctx, c, 0, RunConfig{})
	if err != nil {
		return nil, err
	}
	return s.Dist(), nil
}

// Dist converts the state's probabilities into a bitstring.Dist with total
// mass 1, dropping negligible (< 1e-12) entries. The result map is
// pre-sized to the exact support, so wide low-entropy states don't pay
// for rehash growth.
func (s *State) Dist() *bitstring.Dist {
	support := 0
	for _, a := range s.amp {
		if real(a)*real(a)+imag(a)*imag(a) > 1e-12 {
			support++
		}
	}
	d := bitstring.NewDistCap(s.n, support)
	for i, a := range s.amp {
		p := real(a)*real(a) + imag(a)*imag(a)
		if p > 1e-12 {
			d.Add(bitstring.BitString(i), p)
		}
	}
	return d
}

// ExpectationZ returns ⟨Z_q⟩ for qubit q.
func (s *State) ExpectationZ(q int) float64 {
	mask := 1 << uint(q)
	var e float64
	for i, a := range s.amp {
		p := real(a)*real(a) + imag(a)*imag(a)
		if i&mask == 0 {
			e += p
		} else {
			e -= p
		}
	}
	return e
}

// FidelityWith returns |⟨s|t⟩|², the pure-state fidelity.
func (s *State) FidelityWith(t *State) (float64, error) {
	if s.n != t.n {
		return 0, fmt.Errorf("statevector: width mismatch %d vs %d", s.n, t.n)
	}
	var ip complex128
	for i := range s.amp {
		ip += cmplx.Conj(s.amp[i]) * t.amp[i]
	}
	return real(ip)*real(ip) + imag(ip)*imag(ip), nil
}
