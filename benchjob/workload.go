package main

import (
	"context"
	"fmt"
	"math"

	"qbeep"
	"qbeep/internal/bitstring"
	"qbeep/internal/device"
	"qbeep/internal/mathx"
	"qbeep/internal/qasm"
)

// jobSpec is one job of a workload's fixed sequence. The library only
// ever sees what a user would hand it: QASM text, a backend name, a shot
// count and a seed, or (sparse-wide) a counts map and its λ.
type jobSpec struct {
	qasm    string // empty for counts-only jobs
	backend string
	shots   int
	simSeed uint64
	// drawSeed generates a counts-only job's input map just before the
	// job is issued (client think time, outside the job's latency).
	drawSeed uint64
	lambda   float64 // counts-only jobs: the pre-induction rate
}

// jobInput is a jobSpec with its counts materialized.
type jobInput struct {
	spec   jobSpec
	counts qbeep.Counts // counts-only jobs
}

// workload is one closed-loop traffic mix.
type workload struct {
	name string
	// jobSeconds is the nominal wall time of one client-loop iteration
	// (the job plus the client's input draw and collection) on the
	// reference 2-core box; see jobCount.
	jobSeconds float64
	// minJobs keeps at least this many jobs in a run, so the tail
	// percentile (10 samples beyond it) sits above the median.
	minJobs int
	// round is the period of the job mix: every round of this many jobs
	// issues each distinct circuit (and backend) exactly once. 1 for a
	// mix of independent draws.
	round int
	// corpus builds the job sequence and the warm-up jobs from the seed:
	// catalog lookups, circuit generation and QASM emission.
	corpus func(seed uint64, n int) (jobs, warm []jobSpec, err error)
}

var workloads = []workload{
	{name: "bv-dense", jobSeconds: 1.4, minJobs: 25, round: len(bvSecrets), corpus: bvCorpus},
	{name: "sparse-wide", jobSeconds: 0.85, minJobs: 24, round: 1, corpus: sparseCorpus},
	{name: "qasmbench-jobs", jobSeconds: 0.0033, minJobs: 24, round: qasmbenchCircuits * qasmbenchBackends, corpus: qasmbenchCorpus},
}

// jobCount is the length of a run's job sequence: whole rounds covering
// max(minJobs, ceil(seconds/jobSeconds)) jobs. Every run with the same
// seconds and seed does the same work, and lasts about seconds on the
// reference box.
func (w workload) jobCount(seconds float64) int {
	n := max(w.minJobs, int(math.Ceil(seconds/w.jobSeconds)))
	return (n + w.round - 1) / w.round * w.round
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// mix derives an independent 64-bit stream value from (seed, stream, k)
// with the splitmix64 finalizer, so job k's input depends only on the
// seed and k, never on how many jobs the run issues.
func mix(seed, stream, k uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + k + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stream labels keep the per-purpose draws of one seed independent.
const (
	streamOrder = iota + 1
	streamSim
	streamDraw
	streamWarm
)

const (
	bvWidth   = 14 // data qubits; the register adds the phase-kickback ancilla
	bvBackend = "istanbul"
	bvShots   = 32768
	// bvWarmSecret indexes the warm-up job's secret in bvSecrets.
	bvWarmSecret = 4

	sparseWidth   = 26
	sparseSupport = 100000
	sparseLambda  = 1.0

	qasmbenchShots    = 4096
	qasmbenchCircuits = 14 // the size of the library's suite
	qasmbenchBackends = 8
)

// bvSecrets are the bv-dense secrets, a fixed set of uniformly random
// nonzero 14-bit secrets. λ on istanbul is set by the secret's weight w
// (its CX count): w = 4, 5, 6, 7, 8 give λ = 1.354, 1.652, 1.836, 2.315,
// 2.618, the band of the paper's dense figures (V ≈ 2.6k–5.4k, E ≈
// 0.2M–3.6M). A job's cost grows steeply with w (≈ 0.1, 0.3, 0.4, 1.6 and
// 2.0 s), so the secrets form cost clusters, and an order statistic that
// falls on the edge of a cluster jumps with every slow or fast job next
// to it. The weights are therefore counted so that the median (13th of
// 25 from the top) and the tail (11th) both fall near the middle of the
// w = 7 cluster, ranks 5–20, where V ≈ 4.5k and E ≈ 2.8M. The set is
// fixed rather than drawn per seed because V and E, hence a job's cost,
// also depend on which physical qubits the secret's bits land on:
// per-seed secrets moved the run's median by ~19% from seed to seed. Heavier
// secrets are left out because the graph grows past what a 2-core run
// can hold (weight 11: λ ≈ 3.7, E = 10.6M, 1.1 GB; weight 14: λ ≈ 5.3,
// E = 45M, 4.9 GB peak RSS).
var bvSecrets = []string{
	"11000001100000", // w = 4
	"01001001110000", // w = 5
	"00000110101100",
	"10010101010001", // w = 6
	"01100010010110",
	"10101101001001", // w = 7
	"01001001111010",
	"00110101101010",
	"10011010010101",
	"11001100100110",
	"00010101011110",
	"11100110010001",
	"10001100011101",
	"00011110000111",
	"10111000110001",
	"11110101000001",
	"10001101000111",
	"01001110001011",
	"11100101010010",
	"10001011110001",
	"10101110001001",
	"11001110011010", // w = 8
	"11101100010011",
	"01100011111100",
	"11011010010101",
}

// bvCorpus: BV-14 on istanbul. Each block of len(bvSecrets) jobs runs
// every secret once, in a seed-drawn order; every job has its own
// sampling seed.
func bvCorpus(seed uint64, n int) (jobs, warm []jobSpec, err error) {
	if _, err := device.ByName(bvBackend); err != nil {
		return nil, nil, err
	}
	sources := make([]string, len(bvSecrets))
	for i, secret := range bvSecrets {
		if sources[i], err = qbeep.BernsteinVaziraniQASM(secret); err != nil {
			return nil, nil, err
		}
	}
	spec := func(src string, simSeed uint64) jobSpec {
		return jobSpec{qasm: src, backend: bvBackend, shots: bvShots, simSeed: simSeed}
	}
	rng := mathx.NewRNG(mix(seed, streamOrder, 0))
	var order []int
	jobs = make([]jobSpec, n)
	for k := range jobs {
		if k%len(sources) == 0 {
			order = rng.Perm(len(sources))
		}
		jobs[k] = spec(sources[order[k%len(sources)]], mix(seed, streamSim, uint64(k)))
	}
	// The warm-up is a w = 6 job: it runs once per set-up, and a heavy one
	// would make set-up a quarter of the run.
	return jobs, []jobSpec{spec(sources[bvWarmSecret], mix(seed, streamWarm, 0))}, nil
}

// sparseCorpus: counts-only jobs, each a fresh draw of sparseSupport
// distinct outcomes over a sparseWidth-qubit register at λ = 1.
func sparseCorpus(seed uint64, n int) (jobs, warm []jobSpec, err error) {
	jobs = make([]jobSpec, n)
	for k := range jobs {
		jobs[k] = jobSpec{drawSeed: mix(seed, streamDraw, uint64(k)), lambda: sparseLambda}
	}
	return jobs, []jobSpec{{drawSeed: mix(seed, streamWarm, 0), lambda: sparseLambda}}, nil
}

// drawSparse is the core package's benchScaleDist generator rendered as
// a vendor-style counts map: sparseSupport distinct outcomes drawn
// uniformly over sparseWidth qubits, each with 1..20 counts (repeat
// draws accumulate).
func drawSparse(seed uint64) qbeep.Counts {
	rng := mathx.NewRNG(seed)
	m := make(qbeep.Counts, sparseSupport)
	mask := uint64(1)<<sparseWidth - 1
	for len(m) < sparseSupport {
		key := bitstring.Format(bitstring.BitString(rng.Uint64()&mask), sparseWidth)
		m[key] += float64(rng.Intn(20) + 1)
	}
	return m
}

// qasmbenchCorpus: the 14 suite circuits round-robin over the first
// qasmbenchBackends catalog machines wide enough for all of them; every
// block of 14·qasmbenchBackends jobs runs each (circuit, backend) pair
// once, each job with its own sampling seed. The warm-up runs every pair
// once.
func qasmbenchCorpus(seed uint64, n int) (jobs, warm []jobSpec, err error) {
	names := qbeep.SuiteNames()
	if len(names) != qasmbenchCircuits {
		return nil, nil, fmt.Errorf("suite has %d circuits, want %d", len(names), qasmbenchCircuits)
	}
	sources := make([]string, len(names))
	width := 0
	for i, name := range names {
		src, _, _, err := qbeep.SuiteCircuit(name)
		if err != nil {
			return nil, nil, err
		}
		// Backends must fit the full register, ancillas included.
		c, err := qasm.Parse(src)
		if err != nil {
			return nil, nil, err
		}
		sources[i], width = src, max(width, c.N)
	}
	backends, err := device.CatalogSubset(qasmbenchBackends, width)
	if err != nil {
		return nil, nil, err
	}
	if len(backends) != qasmbenchBackends {
		return nil, nil, fmt.Errorf("catalog has %d backends wide enough, want %d", len(backends), qasmbenchBackends)
	}
	pair := func(k int, stream uint64) jobSpec {
		p := k % (len(names) * len(backends))
		return jobSpec{
			qasm:    sources[p%len(names)],
			backend: backends[p/len(names)].Name,
			shots:   qasmbenchShots,
			simSeed: mix(seed, stream, uint64(k)),
		}
	}
	jobs = make([]jobSpec, n)
	for k := range jobs {
		jobs[k] = pair(k, streamSim)
	}
	warm = make([]jobSpec, len(names)*len(backends))
	for k := range warm {
		warm[k] = pair(k, streamWarm)
	}
	return jobs, warm, nil
}

// materialize turns a spec into the job's input: counts-only jobs draw
// their map here.
func materialize(s jobSpec) jobInput {
	in := jobInput{spec: s}
	if s.qasm == "" {
		in.counts = drawSparse(s.drawSeed)
	}
	return in
}

// runJob is one job exactly as the qbeep-sim → qbeep CLI path runs it,
// through the public package: simulate (QASM in), then mitigate with the
// paper's defaults. It returns the raw counts, the ideal distribution
// (nil for counts-only jobs) and the mitigated counts.
func runJob(ctx context.Context, in jobInput) (raw, ideal, out qbeep.Counts, err error) {
	raw, lambda := in.counts, in.spec.lambda
	if in.spec.qasm != "" {
		res, err := qbeep.SimulateCtx(ctx, in.spec.qasm, in.spec.backend, in.spec.shots, in.spec.simSeed)
		if err != nil {
			return nil, nil, nil, err
		}
		raw, ideal, lambda = res.Raw, res.Ideal, res.Lambda.Total()
	}
	out, err = qbeep.MitigateCtx(ctx, raw, lambda, qbeep.NewOptions())
	if err != nil {
		return nil, nil, nil, err
	}
	return raw, ideal, out, nil
}
