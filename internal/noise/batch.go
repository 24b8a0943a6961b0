// Batch trajectory execution: many sampling requests fanned through one
// shared worker pool over a single global shot space.
package noise

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"qbeep/internal/bitstring"
	"qbeep/internal/circuit"
	"qbeep/internal/device"
	"qbeep/internal/mathx"
	"qbeep/internal/obs"
	"qbeep/internal/par"
)

// Batch metrics (see internal/obs): requests executed through
// SampleBatch and the pool occupancy of the most recent batch. The
// occupancy gauge is shared with statevector.RunBatch — both report the
// same "how saturated is the machine" signal.
var (
	metBatchReqs      = obs.Default.Counter("sim.batch.requests")
	metBatchOccupancy = obs.Default.Gauge("sim.batch.occupancy")
)

// BatchRequest is one trajectory sampling job for BatchSampler: the
// circuit, initial basis state, shot count and the seed that keys its
// private RNG stream family.
type BatchRequest struct {
	Circuit *circuit.Circuit
	Init    bitstring.BitString
	Shots   int
	Seed    uint64
}

// BatchSampler fans many trajectory sampling requests through one shared
// par pool. The pool partitions the *global* shot space (the
// concatenation of every request's shots), so a batch of many small
// requests saturates the machine just like one large request would.
//
// Results are bitwise identical to running each request serially through
// TrajectorySampler.SampleCtx with mathx.NewRNG(req.Seed), at any worker
// count: every shot draws from the stream keyed by (request seed, shot
// index) regardless of which worker runs it, and the per-request merges
// fold worker-local counts in task order. A BatchSampler is not safe for
// concurrent use (it shares its sampler's arenas).
type BatchSampler struct {
	ts      *TrajectorySampler
	workers int
}

// NewBatchSampler returns a batch sampler on the backend.
func NewBatchSampler(b *device.Backend) (*BatchSampler, error) {
	ts, err := NewTrajectorySampler(b)
	if err != nil {
		return nil, err
	}
	return &BatchSampler{ts: ts}, nil
}

// SetWorkers sets the pool width (0 = GOMAXPROCS). Results are identical
// for any value.
func (bs *BatchSampler) SetWorkers(w int) {
	if w < 0 {
		w = 0
	}
	bs.workers = w
}

// SampleBatch runs every request and returns their count distributions
// in request order. See the type comment for the determinism contract.
func (bs *BatchSampler) SampleBatch(ctx context.Context, reqs []BatchRequest) ([]*bitstring.Dist, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("noise: empty batch")
	}
	t := bs.ts
	// Per-request programs and stream bases. start[i] is request i's
	// offset into the global shot space; start[len(reqs)] its total.
	steps := make([][]trajStep, len(reqs))
	bases := make([]uint64, len(reqs))
	start := make([]int, len(reqs)+1)
	for i, req := range reqs {
		if req.Circuit == nil {
			return nil, fmt.Errorf("noise: batch request %d has nil circuit", i)
		}
		if err := t.checkRequest(req.Circuit, req.Init, req.Shots); err != nil {
			return nil, fmt.Errorf("noise: batch request %d: %w", i, err)
		}
		var err error
		steps[i], err = t.compileSteps(req.Circuit, nil)
		if err != nil {
			return nil, fmt.Errorf("noise: batch request %d: %w", i, err)
		}
		// The serial path draws its stream base as the first Uint64 of a
		// generator seeded with req.Seed; doing the same here makes each
		// request's shots bitwise identical to a serial SampleCtx call.
		bases[i] = mathx.NewRNG(req.Seed).Uint64()
		start[i+1] = start[i] + req.Shots
	}
	total := start[len(reqs)]

	workers := bs.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > total {
		workers = total
	}
	chunk := (total + workers - 1) / workers
	t.growArenas(workers)

	ctx, sp := obs.Start(ctx, "sim.batch")
	defer sp.End()
	t0 := time.Now() //qbeep:allow-time span/metric timing, not kernel state
	// locals[w][i] holds worker w's counts for request i (nil when the
	// worker's shot range misses the request).
	locals := make([][]*bitstring.Dist, workers)
	stats, err := par.ForEach(ctx, workers, workers, func(ctx context.Context, w int) error {
		lo := w * chunk
		hi := lo + chunk
		if hi > total {
			hi = total
		}
		if lo >= hi {
			return nil
		}
		a := t.arenas[w]
		mine := make([]*bitstring.Dist, len(reqs))
		locals[w] = mine
		for i, req := range reqs {
			s0, s1 := start[i], start[i+1]
			if s1 <= lo || s0 >= hi {
				continue
			}
			from, to := max(lo, s0)-s0, min(hi, s1)-s0
			mine[i] = bitstring.NewDist(req.Circuit.N)
			if err := t.runShots(ctx, a, mine[i], steps[i], req.Init, bases[i], from, to); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Merge worker-local counts in task order: shot counts are integral,
	// so the fold is exact; task order keeps it canonical.
	results := make([]*bitstring.Dist, len(reqs))
	var outs []bitstring.BitString
	for i, req := range reqs {
		res := bitstring.NewDist(req.Circuit.N)
		for w := 0; w < workers; w++ {
			if locals[w] == nil || locals[w][i] == nil {
				continue
			}
			l := locals[w][i]
			outs = l.OutcomesInto(outs)
			for _, v := range outs {
				res.Add(v, l.Count(v))
			}
		}
		results[i] = res
	}

	elapsed := time.Since(t0) //qbeep:allow-time span/metric timing, not kernel state
	occupancy := stats.Utilization()
	metBatchReqs.Add(int64(len(reqs)))
	metBatchOccupancy.Set(occupancy)
	metTrajShots.Add(int64(total))
	if secs := elapsed.Seconds(); secs > 0 {
		metTrajPerSec.Set(float64(total) / secs)
	}
	sp.SetAttr("requests", len(reqs))
	sp.SetAttr("shots", total)
	sp.SetAttr("workers", workers)
	sp.SetAttr("occupancy", occupancy)
	return results, nil
}
