package noise

import (
	"context"
	"fmt"
	"math"
	"time"

	"qbeep/internal/bitstring"
	"qbeep/internal/circuit"
	"qbeep/internal/device"
	"qbeep/internal/mathx"
	"qbeep/internal/obs"
	"qbeep/internal/par"
	"qbeep/internal/statevector"
	"qbeep/internal/transpile"
)

// Induction metrics (see internal/obs): sampling throughput plus the
// correlated-burst channel's realized event stream.
var (
	metExecute     = obs.Default.Timer("noise.execute")
	metShots       = obs.Default.Counter("noise.shots")
	metShotsPerSec = obs.Default.Gauge("noise.shots_per_sec")
	metBurstEvents = obs.Default.Counter("noise.burst.events")
	metBurstFlips  = obs.Default.Counter("noise.burst.flips")
	// Pool occupancy (busy fraction) of the most recent blocked
	// induction (Model.Blocks > 1).
	metBatchOccupancy = obs.Default.Gauge("sim.batch.occupancy")
)

// Run is the outcome of a noisy induction: the raw logical counts, the
// ideal reference distribution, the transpilation artifacts and the
// realized event rates.
type Run struct {
	Counts     *bitstring.Dist // noisy logical measurement counts
	Ideal      *bitstring.Dist // exact noiseless logical distribution
	Transpiled *transpile.Result
	Rates      EventRates
	Shots      int
}

// Executor runs logical circuits on a backend under a Model. The zero
// value is unusable; construct with NewExecutor.
type Executor struct {
	backend *device.Backend
	model   Model
}

// NewExecutor returns an executor for the backend and model.
func NewExecutor(b *device.Backend, m Model) (*Executor, error) {
	if b == nil {
		return nil, fmt.Errorf("noise: nil backend")
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return &Executor{backend: b, model: m}, nil
}

// Backend returns the executor's backend.
func (e *Executor) Backend() *device.Backend { return e.backend }

// ExecuteCtx transpiles c onto the backend and samples shots
// measurement outcomes under the failure-event model. The ideal
// distribution comes from the logical circuit (transpilation is
// semantics-preserving), so register width is bounded by the logical
// width, not the physical device size. The transpile and noise.execute
// spans parent under the span active in ctx.
func (e *Executor) ExecuteCtx(ctx context.Context, c *circuit.Circuit, shots int, rng *mathx.RNG) (*Run, error) {
	res, err := transpile.TranspileCtx(ctx, c, e.backend, nil)
	if err != nil {
		return nil, err
	}
	return e.ExecuteTranspiledCtx(ctx, c, res, shots, rng)
}

// ExecuteTranspiledCtx is ExecuteCtx for a circuit already transpiled
// (the caller controls layout / reuses the artifact). The
// "noise.execute" span covers the ideal reference run (its "sim.run"
// child), rate derivation, and sampling.
//
// With Model.Blocks <= 1 every shot draws from rng in sequence. With
// Model.Blocks > 1 the shot loop splits into that many blocks fanned
// across the shared par pool under a "sim.batch" span: each block
// samples from its own stream keyed by (rng's first Uint64, block
// index), and block counts merge in block order. Block counts are
// therefore deterministic for a given (seed, blocks) at any worker
// count, but they come from a different stream family than the serial
// draw: statistically equivalent to it, not bitwise equal.
func (e *Executor) ExecuteTranspiledCtx(ctx context.Context, logical *circuit.Circuit, res *transpile.Result, shots int, rng *mathx.RNG) (*Run, error) {
	if shots <= 0 {
		return nil, fmt.Errorf("noise: shots %d must be positive", shots)
	}
	if logical.N > statevector.MaxQubits {
		return nil, fmt.Errorf("noise: %d logical qubits exceeds simulator limit %d", logical.N, statevector.MaxQubits)
	}
	if res == nil || res.Circuit == nil {
		return nil, fmt.Errorf("noise: nil transpile result")
	}
	if len(res.Final) < logical.N {
		return nil, fmt.Errorf("noise: transpile result maps %d qubits, circuit %q has %d",
			len(res.Final), logical.Name, logical.N)
	}
	ctx, sp := obs.Start(ctx, "noise.execute")
	// Ending via defer keeps the span from leaking on the ideal-run,
	// rates and fan-out error returns (qbeep-lint spanend).
	defer sp.End()
	ideal, err := statevector.IdealDistCtx(ctx, logical)
	if err != nil {
		return nil, err
	}
	rates, err := Rates(res, e.backend, e.model)
	if err != nil {
		return nil, err
	}
	ns := e.newNoisySampler(logical, ideal, res, rates)
	t0 := time.Now() //qbeep:allow-time span/metric timing, not kernel state
	blocks := 1
	counts := bitstring.NewDist(logical.N)
	if e.model.Blocks <= 1 {
		ns.sample(shots, rng, counts)
	} else {
		blocks = min(e.model.Blocks, shots)
		if err := ns.sampleBlocks(ctx, shots, blocks, rng, counts); err != nil {
			return nil, err
		}
		sp.SetAttr("blocks", blocks)
	}
	elapsed := time.Since(t0) //qbeep:allow-time span/metric timing, not kernel state
	metExecute.ObserveDuration(elapsed)
	metShots.Add(int64(shots))
	if secs := elapsed.Seconds(); secs > 0 {
		metShotsPerSec.Set(float64(shots) / secs)
	}
	sp.SetAttr("circuit", logical.Name)
	sp.SetAttr("shots", shots)
	obs.Logger().Debug("noisy induction",
		"circuit", logical.Name, "backend", e.backend.Name,
		"shots", shots, "blocks", blocks, "elapsed", elapsed)
	return &Run{
		Counts:     counts,
		Ideal:      ideal,
		Transpiled: res,
		Rates:      rates,
		Shots:      shots,
	}, nil
}

// sampleBlocks draws shots outcomes into counts as blocks equal shot
// ranges fanned across the par pool. One base drawn from rng keys every
// block stream, so the caller's generator advances by exactly one
// Uint64. Block-local counts merge in block order: integral counts make
// the fold exact and the order canonical regardless of which worker
// finished first.
func (ns *noisySampler) sampleBlocks(ctx context.Context, shots, blocks int, rng *mathx.RNG, counts *bitstring.Dist) error {
	base := rng.Uint64()
	chunk := (shots + blocks - 1) / blocks
	ctx, sp := obs.Start(ctx, "sim.batch")
	defer sp.End()
	locals := make([]*bitstring.Dist, blocks)
	stats, err := par.ForEach(ctx, blocks, 0, func(_ context.Context, b int) error {
		lo := b * chunk
		hi := min(lo+chunk, shots)
		if lo >= hi {
			return nil
		}
		locals[b] = bitstring.NewDist(ns.n)
		ns.sample(hi-lo, mathx.NewStream(base, uint64(b)), locals[b])
		return nil
	})
	occupancy := stats.Utilization()
	sp.SetAttr("blocks", blocks)
	sp.SetAttr("shots", shots)
	sp.SetAttr("occupancy", occupancy)
	if err != nil {
		return err
	}
	var outs []bitstring.BitString
	for _, l := range locals {
		if l == nil {
			continue
		}
		outs = l.OutcomesInto(outs)
		for _, v := range outs {
			counts.Add(v, l.Count(v))
		}
	}
	metBatchOccupancy.Set(occupancy)
	return nil
}

// noisySampler is the shot loop of the failure-event model with every
// rate and lookup table precomputed: build once per induction, then
// sample any number of shot blocks. The precomputed state is read-only
// during sampling, so distinct blocks may sample concurrently as long
// as each uses its own RNG and destination Dist.
type noisySampler struct {
	model Model
	n     int

	// Ideal outcomes and their cumulative weights.
	outcomes []bitstring.BitString
	ideal    cumDraw

	// Per-qubit channel probabilities (logical index -> physical calib).
	pDecay   []float64
	pDephase []float64
	pReadout []float64

	// Pooled gate-error events (see newNoisySampler).
	gate     cumDraw
	gatePois mathx.Poisson

	walkAdj   [][]int
	burst     float64
	burstPois mathx.Poisson
}

// newNoisySampler precomputes the failure-event model for one induction.
// It never draws from an RNG, so hoisting it out of the shot loop cannot
// change any realized stream.
func (e *Executor) newNoisySampler(logical *circuit.Circuit, ideal *bitstring.Dist,
	res *transpile.Result, rates EventRates) *noisySampler {

	n := logical.N
	ns := &noisySampler{model: e.model, n: n, burst: rates.Burst}
	ns.outcomes, ns.ideal = outcomeDraw(ideal)

	ns.pDecay = make([]float64, n)
	ns.pDephase = make([]float64, n)
	ns.pReadout = make([]float64, n)
	for l := 0; l < n; l++ {
		p := res.Final[l]
		q := e.backend.Calibration.Qubits[p]
		if e.model.Decoherence {
			ns.pDecay[l] = 1 - expNeg(rates.Duration/q.T1)
			ns.pDephase[l] = 0.5 * (1 - expNeg(rates.Duration/q.T2))
		}
		if e.model.Readout {
			ns.pReadout[l] = q.ReadoutError
		}
	}

	// Gate flip events are pooled: the expected count is rates.Gate and
	// each event hits one of the qubits a gate touches. Precompute the
	// qubit-weight distribution from the routed circuit (physical qubits
	// mapped back to logical where possible; routing ancillas redistribute
	// uniformly since their corruption spreads through subsequent swaps).
	gateWeight := make([]float64, n)
	if e.model.GateErrors {
		phys2log := make(map[int]int, n)
		for l, p := range res.Final {
			phys2log[p] = l
		}
		for _, g := range res.Circuit.Gates {
			if !g.Kind.IsUnitary() {
				continue
			}
			var errp float64
			switch len(g.Qubits) {
			case 1:
				errp = e.backend.Calibration.Gates1Q[g.Qubits[0]].Error
			case 2:
				if gc, ok := e.backend.Calibration.Gate2Q(g.Qubits[0], g.Qubits[1]); ok {
					errp = gc.Error
				}
			}
			share := errp / float64(len(g.Qubits))
			for _, pq := range g.Qubits {
				if l, ok := phys2log[pq]; ok {
					gateWeight[l] += share
				} else {
					// ancilla: spread over all logical qubits
					for l := 0; l < n; l++ {
						gateWeight[l] += share / float64(n)
					}
				}
			}
		}
	}

	ns.walkAdj = activeTwoQubitGraph(logical)
	ns.burstPois = mathx.Poisson{Lambda: rates.Burst}

	// Gate-error events are pooled into a Poisson stream (the paper's §3.2
	// generative model: independent failure events with a stable rate):
	// K ~ Poisson(Σ gateWeight) flips per shot, each landing on a qubit
	// drawn proportionally to its share of the gate-error budget.
	ns.gate.cum = make([]float64, 0, n)
	for _, w := range gateWeight {
		ns.gate.add(w)
	}
	ns.gatePois = mathx.Poisson{Lambda: ns.gate.total}
	return ns
}

// cumDraw is a cumulative weight table sampled by binary search: the one
// categorical draw every sampler in this package shares.
type cumDraw struct {
	cum   []float64
	total float64
}

// add appends one weight to the table.
func (c *cumDraw) add(w float64) {
	c.total += w
	c.cum = append(c.cum, c.total)
}

// draw returns the index of the first entry whose running sum reaches a
// uniform point in [0, total).
func (c *cumDraw) draw(rng *mathx.RNG) int {
	u := rng.Float64() * c.total
	lo, hi := 0, len(c.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if c.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// outcomeDraw returns d's outcomes in ascending order and the cumulative
// table of their counts.
func outcomeDraw(d *bitstring.Dist) ([]bitstring.BitString, cumDraw) {
	outs := d.Outcomes()
	c := cumDraw{cum: make([]float64, 0, len(outs))}
	for _, o := range outs {
		c.add(d.Count(o))
	}
	return outs, c
}

// sample draws shots outcomes from rng into counts. The draw sequence is
// identical to the seed's inline loop: hoisting the precompute consumed
// no RNG values, so golden distributions are unchanged.
func (ns *noisySampler) sample(shots int, rng *mathx.RNG, counts *bitstring.Dist) {
	n := ns.n
	// Burst tallies accumulate locally and flush to the registry once per
	// block, keeping the per-shot loop free of shared-memory traffic.
	var burstEvents, burstFlips int64
	for s := 0; s < shots; s++ {
		v := ns.outcomes[ns.ideal.draw(rng)]
		// Per-shot drift of device conditions (non-Markovian, §3.1): one
		// mean-normalized log-normal factor scales every time-dependent
		// channel this shot. Readout is excluded — it is a separate,
		// stable classifier error.
		drift := 1.0
		if ns.model.RateJitter > 0 {
			sg := ns.model.RateJitter
			drift = math.Exp(sg*rng.NormFloat64() - sg*sg/2)
		}
		if ns.gate.total > 0 {
			pois := ns.gatePois
			if drift != 1 { //qbeep:allow-floatcmp drift is exactly 1.0 when jitter is disabled (sentinel)
				pois = mathx.Poisson{Lambda: ns.gate.total * drift}
			}
			k := pois.Sample(rng.Float64)
			for i := 0; i < k; i++ {
				v = v.FlipBit(ns.gate.draw(rng))
			}
		}
		// Decoherence.
		for l := 0; l < n; l++ {
			if ns.pDecay[l] > 0 && v.Bit(l) == 1 && rng.Float64() < min1(ns.pDecay[l]*drift) {
				v = v.SetBit(l, 0) // T1 decay is directional
			}
			if ns.pDephase[l] > 0 && rng.Float64() < min1(ns.pDephase[l]*drift) {
				v = v.FlipBit(l)
			}
		}
		// Correlated burst: K ~ Poisson(λ_burst) flips, spread along a
		// random walk over the circuit's interaction graph (or uniformly).
		if ns.burst > 0 {
			pois := ns.burstPois
			if drift != 1 { //qbeep:allow-floatcmp drift is exactly 1.0 when jitter is disabled (sentinel)
				pois = mathx.Poisson{Lambda: ns.burst * drift}
			}
			k := pois.Sample(rng.Float64)
			if k > 0 {
				burstEvents++
				burstFlips += int64(k)
				if ns.model.BurstWalk {
					q := rng.Intn(n)
					for i := 0; i < k; i++ {
						v = v.FlipBit(q)
						if nb := ns.walkAdj[q]; len(nb) > 0 && rng.Float64() < 0.8 {
							q = nb[rng.Intn(len(nb))]
						} else {
							q = rng.Intn(n)
						}
					}
				} else {
					for i := 0; i < k; i++ {
						v = v.FlipBit(rng.Intn(n))
					}
				}
			}
		}
		// Readout flips.
		for l := 0; l < n; l++ {
			if ns.pReadout[l] > 0 && rng.Float64() < ns.pReadout[l] {
				v = v.FlipBit(l)
			}
		}
		counts.Add(v, 1)
	}
	if burstEvents > 0 {
		metBurstEvents.Add(burstEvents)
		metBurstFlips.Add(burstFlips)
	}
}

func min1(v float64) float64 {
	if v > 1 {
		return 1
	}
	return v
}

// expNeg returns exp(-x) guarding against negative x from degenerate
// schedules.
func expNeg(x float64) float64 {
	if x < 0 {
		x = 0
	}
	return math.Exp(-x)
}
