package noise

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"time"

	"qbeep/internal/bitstring"
	"qbeep/internal/circuit"
	"qbeep/internal/device"
	"qbeep/internal/mathx"
	"qbeep/internal/obs"
	"qbeep/internal/par"
	"qbeep/internal/statevector"
)

// Trajectory metrics (see internal/obs): per-batch wall time and shot
// throughput of the Monte Carlo sampler.
var (
	metTraj        = obs.Default.Timer("sim.trajectory")
	metTrajShots   = obs.Default.Counter("sim.trajectory.shots")
	metTrajPerSec  = obs.Default.Gauge("sim.trajectory.shots_per_sec")
	metTrajWorkers = obs.Default.Gauge("sim.trajectory.workers")
)

// TrajectorySampler runs Monte Carlo Pauli-jump trajectories on the state
// vector: after each gate, with the gate's calibrated error probability a
// uniformly random Pauli is injected on one of its qubits; readout flips
// apply at measurement. This is the conventional Markovian noise model —
// per the paper (§3.1), it reproduces *local* Hamming clustering only.
// No figure runner uses it: it is the test-side cross-check against the
// density executor and the subject of the gated replay microbenchmark.
//
// Execution is compiled-program replay: SampleCtx lowers the circuit to
// kernel ops once per call (into a scratch reused across calls), then
// every shot replays the compiled steps, injecting Paulis through a
// precompiled per-qubit op table — the hot loop performs no per-gate
// lowering and allocates nothing. Shots fan out across par workers, each
// owning a pooled arena (state buffer, probability scratch, local Dist,
// reseedable RNG stream) that persists across SampleCtx calls, so
// steady-state sampling is allocation-free (pinned by the
// trajectory_allocs_steady benchparse ceiling).
//
// Every shot draws from its own RNG stream derived from the caller's
// generator (one Uint64 draw per SampleCtx keys streams by shot index), so
// the counts are deterministic for a fixed seed regardless of the worker
// count. Note this changes the realized random stream relative to the
// seed repository, which threaded a single serial RNG through every
// shot; distributions agree statistically but not shot-for-shot.
//
// A TrajectorySampler is not safe for concurrent use: SampleCtx calls share
// the arenas (and the caller's RNG). Use one sampler per goroutine.
type TrajectorySampler struct {
	backend *device.Backend
	workers int

	// Mean calibration error rates, hoisted out of the per-call path:
	// the backend is fixed at construction.
	err1q   float64
	err2q   float64
	readout float64

	// Per-call compile scratch and per-worker arenas, pooled across
	// SampleCtx calls (see the concurrency note above).
	steps  []trajStep
	paulis [][3]statevector.CompiledOp
	pauliN int
	arenas []*trajArena
}

// trajStep is one compiled gate of a trajectory program: the kernel op
// plus the injection metadata the noise model draws from.
type trajStep struct {
	op     statevector.CompiledOp
	inject bool    // unitary gate: eligible for Pauli injection
	nq     int     // qubit count of the source gate
	q      [3]int  // the gate's qubits (first nq valid)
	p      float64 // injection probability (err1q or err2q)
}

// trajArena is one worker's pooled scratch: reused across shots and
// across SampleCtx calls so the steady-state hot loop never allocates. The
// sampler owns its arenas; they are re-created only when the register
// width changes.
//
//qbeep:pooled
type trajArena struct {
	st     *statevector.State
	probs  []float64
	counts *bitstring.Dist
	rng    mathx.RNG
	outs   []bitstring.BitString // sorted-merge scratch
}

// NewTrajectorySampler returns a sampler on the backend.
func NewTrajectorySampler(b *device.Backend) (*TrajectorySampler, error) {
	if b == nil {
		return nil, fmt.Errorf("noise: nil backend")
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	t := &TrajectorySampler{backend: b}
	for _, g := range b.Calibration.Gates1Q {
		t.err1q += g.Error
	}
	t.err1q /= float64(len(b.Calibration.Gates1Q))
	// Sum 2q errors in sorted edge order: Gates2Q is a map, and float
	// accumulation in map order would make err2q — and through it every
	// per-shot error rate — drift at the last bit between runs
	// (qbeep-lint nodeterm).
	edges := make([]device.Edge, 0, len(b.Calibration.Gates2Q))
	for e := range b.Calibration.Gates2Q {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].A != edges[j].A {
			return edges[i].A < edges[j].A
		}
		return edges[i].B < edges[j].B
	})
	for _, e := range edges {
		t.err2q += b.Calibration.Gates2Q[e].Error
	}
	if len(edges) > 0 {
		t.err2q /= float64(len(edges))
	}
	t.readout = b.Calibration.MeanReadoutError()
	return t, nil
}

// SetWorkers sets the shot fan-out width (0 = GOMAXPROCS). The sampled
// counts are identical for any value.
func (t *TrajectorySampler) SetWorkers(w int) {
	if w < 0 {
		w = 0
	}
	t.workers = w
}

// pauliKinds indexes the injectable Paulis.
var pauliKinds = [3]circuit.Kind{circuit.X, circuit.Y, circuit.Z}

// SampleCtx runs shots trajectories of the logical circuit from basis
// state init. Gate error rates use the backend's mean calibration (the
// logical circuit is not routed here; this sampler is a physics-level
// control, not a device-exact one). The "sim.trajectory" span parents
// under the span active in ctx, and the shot fan-out's worker spans
// parent under it.
func (t *TrajectorySampler) SampleCtx(ctx context.Context, c *circuit.Circuit, init bitstring.BitString, shots int, rng *mathx.RNG) (*bitstring.Dist, error) {
	if err := t.checkRequest(c, init, shots); err != nil {
		return nil, err
	}
	if err := t.compile(c); err != nil {
		return nil, err
	}

	// One draw keys every shot's stream; the caller's generator advances
	// by exactly one Uint64 per SampleCtx call.
	base := rng.Uint64()

	workers := t.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > shots {
		workers = shots
	}
	chunk := (shots + workers - 1) / workers
	t.growArenas(workers)

	ctx, sp := obs.Start(ctx, "sim.trajectory")
	// Ending via defer keeps the span from leaking on the fan-out error
	// path (qbeep-lint spanend); attributes set below still precede it.
	defer sp.End()
	t0 := time.Now() //qbeep:allow-time span/metric timing, not kernel state
	var err error
	if workers == 1 {
		// Serial fast path: a one-worker fan-out buys nothing and its
		// bookkeeping (per-task stat slices, escaping closures) is the
		// difference between ~13 and ~4 steady-state allocations.
		a := t.arenas[0]
		a.resetCounts(c.N)
		err = t.runShots(ctx, a, init, base, 0, shots)
	} else {
		_, err = par.ForEach(ctx, workers, workers, func(ctx context.Context, w int) error {
			lo := w * chunk
			hi := lo + chunk
			if hi > shots {
				hi = shots
			}
			a := t.arenas[w]
			a.resetCounts(c.N)
			return t.runShots(ctx, a, init, base, lo, hi)
		})
	}
	if err != nil {
		return nil, err
	}
	counts := t.mergeArenas(c.N, workers)
	elapsed := time.Since(t0) //qbeep:allow-time span/metric timing, not kernel state
	metTraj.ObserveDuration(elapsed)
	metTrajShots.Add(int64(shots))
	metTrajWorkers.Set(float64(workers))
	if secs := elapsed.Seconds(); secs > 0 {
		metTrajPerSec.Set(float64(shots) / secs)
	}
	// Attr values box at the call site even for an inert span, so the
	// whole block gates on tracing to keep the steady state alloc-free.
	if obs.TracingEnabled() {
		sp.SetAttr("circuit", c.Name)
		sp.SetAttr("width", c.N)
		sp.SetAttr("gates", len(c.Gates))
		sp.SetAttr("shots", shots)
		sp.SetAttr("workers", workers)
	}
	// Enabled-gated: the variadic args would box on every call otherwise,
	// breaking the steady-state zero-allocation contract.
	if l := obs.Logger(); l.Enabled(ctx, slog.LevelDebug) {
		l.Debug("trajectory batch",
			"circuit", c.Name, "width", c.N, "shots", shots,
			"workers", workers, "elapsed", elapsed)
	}
	return counts, nil
}

// checkRequest validates one sampling request.
func (t *TrajectorySampler) checkRequest(c *circuit.Circuit, init bitstring.BitString, shots int) error {
	if err := c.Err(); err != nil {
		return err
	}
	if shots <= 0 {
		return fmt.Errorf("noise: shots %d must be positive", shots)
	}
	if c.N > 14 {
		return fmt.Errorf("noise: trajectory sampling limited to 14 qubits, got %d", c.N)
	}
	if uint64(init) >= uint64(1)<<uint(c.N) {
		return fmt.Errorf("noise: basis state %d outside %d-qubit register", init, c.N)
	}
	return nil
}

// compile lowers the circuit into the sampler's step scratch (reused
// across calls: zero steady-state allocations) and refreshes the Pauli
// injection table when the register width changes. Unlike the fused
// RunConfiguredCtx pipeline this is strictly per-gate: injections happen
// *between* gates, so each gate keeps its own kernel op, annotated with
// its injection probability.
func (t *TrajectorySampler) compile(c *circuit.Circuit) error {
	t.steps = t.steps[:0]
	for _, g := range c.Gates {
		co, err := statevector.CompileGate(c.N, g)
		if err != nil {
			return err
		}
		step := trajStep{op: co, inject: g.Kind.IsUnitary(), nq: len(g.Qubits)}
		copy(step.q[:], g.Qubits)
		step.p = t.err1q
		if step.nq >= 2 {
			step.p = t.err2q
		}
		t.steps = append(t.steps, step)
	}
	if t.pauliN != c.N {
		t.paulis = statevector.NewPauliOps(c.N)
		t.pauliN = c.N
	}
	return nil
}

// growArenas ensures at least n pooled worker arenas exist.
//
//qbeep:mustinline
func (t *TrajectorySampler) growArenas(n int) {
	for len(t.arenas) < n {
		t.arenas = append(t.arenas, &trajArena{})
	}
}

// resetCounts readies the arena's local Dist for a width-n call,
// re-materializing it only on a width change. It sits on SampleCtx's
// per-worker path, so it must stay within the inlining budget.
//
//qbeep:mustinline
func (a *trajArena) resetCounts(n int) {
	if a.counts == nil || a.counts.Width() != n {
		a.counts = bitstring.NewDist(n)
	} else {
		a.counts.Reset()
	}
}

// runShots samples shots [lo, hi) of the compiled program into the
// arena's counts, replaying t.steps on the arena's pooled state with
// per-shot RNG streams keyed (base, shot index). The arena's state
// buffer re-materializes only on a width change; its kernel sharding is
// off, so the ctx it is created under never parents a fan-out.
func (t *TrajectorySampler) runShots(ctx context.Context, a *trajArena, init bitstring.BitString, base uint64, lo, hi int) error {
	n, steps, paulis := t.pauliN, t.steps, t.paulis
	if a.st == nil || a.st.N() != n {
		st, err := statevector.New(ctx, n)
		if err != nil {
			return err
		}
		// Kernel sharding stays off inside the fan-out: parallelism lives
		// at the shot level here.
		st.SetWorkers(1)
		a.st = st
	}
	for s := lo; s < hi; s++ {
		a.rng.ReseedStream(base, uint64(s))
		if err := a.st.Reset(init); err != nil {
			return err
		}
		for i := range steps {
			step := &steps[i]
			a.st.ApplyCompiled(step.op)
			if !step.inject {
				continue
			}
			if a.rng.Float64() < step.p {
				q := step.q[a.rng.Intn(step.nq)]
				a.st.ApplyCompiled(paulis[q][a.rng.Intn(3)])
			}
		}
		a.probs = a.st.ProbabilitiesInto(a.probs)
		out := sampleProbs(a.probs, &a.rng)
		for q := 0; q < n; q++ {
			if a.rng.Float64() < t.readout {
				out = out.FlipBit(q)
			}
		}
		a.counts.Add(out, 1)
	}
	return nil
}

// mergeArenas folds the first `workers` arena-local counts into one
// pre-sized result. Shot counts are integral, so merging is exact in
// any order; arena order with sorted outcomes keeps it canonical.
func (t *TrajectorySampler) mergeArenas(n, workers int) *bitstring.Dist {
	support := 0
	for _, a := range t.arenas[:workers] {
		support += a.counts.Support()
	}
	counts := bitstring.NewDistCap(n, support)
	for _, a := range t.arenas[:workers] {
		a.outs = a.counts.OutcomesInto(a.outs)
		for _, v := range a.outs {
			counts.Add(v, a.counts.Count(v))
		}
	}
	return counts
}

// sampleProbs draws one outcome from an (unnormalized) probability vector
// by a single forward scan — the per-shot path needs exactly one draw, so
// building a cumulative vector would be wasted work.
//
//qbeep:allocfree
//qbeep:noescape p rng
func sampleProbs(p []float64, rng *mathx.RNG) bitstring.BitString {
	var total float64
	for _, v := range p {
		total += v
	}
	u := rng.Float64() * total
	for i, v := range p {
		u -= v
		if u <= 0 {
			return bitstring.BitString(i)
		}
	}
	return bitstring.BitString(len(p) - 1)
}
