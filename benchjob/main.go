// Command benchjob is the repository's end-to-end benchmark: one
// closed-loop client issuing a workload's fixed job sequence back to back
// against the qbeep package, with the library's worker pool at its
// default size (GOMAXPROCS, i.e. nproc). See README.md for the workloads,
// the metrics and how to read a traced run. Run it from the repository
// root, which its reference and state paths are relative to:
//
//	bash benchjob/run.sh --workload bv-dense --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

const (
	setupReps = 5 // setup_s is the median of this many full set-ups
	// runBudget bounds a run's wall time: jobs not started by then are
	// counted as failed rather than overrunning the harness's limit.
	runBudget = 150 * time.Second
	// referenceJobs is how many leading jobs of a seed keep per-job
	// quality scores in the reference file.
	referenceJobs = 256
	// Paths relative to the repository root, where run.sh runs the
	// benchmark: the per-seed reference, and the directory for traces
	// and recorded exact counts.
	referencePath = "benchjob/reference.json"
	stateDir      = ".bench_build/benchjob-state"

	// throughputBlockMin is the fewest jobs a block of jobs_per_s holds
	// (see throughput).
	throughputBlockMin = 4
	// tailRoundMin is the shortest round of the job mix the tail is taken
	// per round of (see tailLatency): the 11th-largest of fewer than 21
	// latencies would sit at or below the median.
	tailRoundMin = 21
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload workload
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
	writeRef bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	start := time.Now()
	fs := flag.NewFlagSet("benchjob", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload: bv-dense, sparse-wide or qasmbench-jobs")
		seed     = fs.Uint64("seed", defaultSeed, "workload seed")
		seconds  = fs.Float64("seconds", 30, "nominal run length; sets the job count")
		trace    = fs.Int("trace", 0, "1 = traced run (per-layer metrics), 0 = untraced (end-to-end metrics)")
		writeRef = fs.Bool("write-reference", false, "record this run's quality scores (and exact counts, when traced) in the reference file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || fs.NArg() != 0 || !(*seconds > 0) || (*trace != 0 && *trace != 1) {
		if err == nil {
			err = fmt.Errorf("bad arguments")
		}
		fmt.Fprintf(stderr, "benchjob: %v\n", err)
		fs.Usage()
		return 2
	}
	cfg := config{
		workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		writeRef: *writeRef,
	}
	cfg.traceOut = filepath.Join(stateDir, fmt.Sprintf("trace-%s-seed%d.ndjson", w.name, cfg.seed))
	res, err := bench(cfg, start, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "benchjob: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchjob: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// setup is one full set-up: corpus (catalog, circuits, QASM emission),
// then the warm-up jobs, whose inputs are drawn like every other job's.
type setup struct {
	jobs             []jobSpec
	raw, ideal, warm map[string]float64
	seconds          float64
}

func doSetup(ctx context.Context, w workload, seed uint64, n int) (setup, error) {
	runtime.GC() // as before every measured job (see untracedRun)
	t0 := time.Now()
	jobs, warm, err := w.corpus(seed, n)
	if err != nil {
		return setup{}, fmt.Errorf("corpus: %w", err)
	}
	su := setup{jobs: jobs}
	for _, spec := range warm {
		if su.raw, su.ideal, su.warm, err = runJob(ctx, materialize(spec)); err != nil {
			return setup{}, fmt.Errorf("warm-up job: %w", err)
		}
	}
	su.seconds = time.Since(t0).Seconds()
	return su, nil
}

func bench(cfg config, start time.Time, stdout io.Writer) (result, error) {
	ctx := context.Background()
	w := cfg.workload
	n := w.jobCount(cfg.seconds)
	fmt.Fprintf(stdout, "benchjob workload=%s seed=%d jobs=%d trace=%t\n", w.name, cfg.seed, n, cfg.trace)
	fmt.Fprintf(stdout, "env %s\n", environment())

	var su setup
	setupTimes := make([]float64, setupReps)
	for r := range setupTimes {
		var err error
		if su, err = doSetup(ctx, w, cfg.seed, n); err != nil {
			return result{}, err
		}
		setupTimes[r] = su.seconds
	}
	if err := selfTest(su.raw, su.ideal, su.warm); err != nil {
		return result{}, fmt.Errorf("output-check self-test: %w", err)
	}
	fmt.Fprintln(stdout, "self-test ok: 5 corrupted outputs rejected by the output check")

	refs, err := loadReference(referencePath)
	if err != nil {
		return result{}, err
	}
	// A run that records the reference is not checked against the entry
	// it replaces.
	ref := refs.entry(w.name, cfg.seed)
	if cfg.writeRef {
		ref = nil
	}
	if ref == nil {
		fmt.Fprintf(stdout, "reference: none for seed %d; outputs get the mass, range and width checks only\n", cfg.seed)
	} else {
		fmt.Fprintf(stdout, "reference: %d per-job quality scores for seed %d\n", len(ref.Quality), cfg.seed)
	}
	lp := &loop{ctx: ctx, jobs: su.jobs, ref: ref, deadline: start.Add(runBudget), stdout: stdout}
	var res result
	if cfg.trace {
		res, err = tracedRun(cfg, lp)
	} else {
		res = untracedRun(lp, w.round, median(setupTimes))
	}
	if err != nil {
		return result{}, err
	}
	if cfg.writeRef {
		if !res.Correct {
			return result{}, fmt.Errorf("not writing a reference from a failed run")
		}
		if err := refs.record(referencePath, w.name, cfg.seed, lp.quals, lp.counts); err != nil {
			return result{}, err
		}
		fmt.Fprintf(stdout, "reference written: %s\n", referencePath)
	}
	return res, nil
}

// loop is the closed-loop client state shared by both run kinds.
type loop struct {
	ctx      context.Context
	jobs     []jobSpec
	ref      *seedReference
	deadline time.Time
	stdout   io.Writer

	failed int
	quals  []quality
	counts *exactCounts
}

// check scores job k's output and counts it failed when the output
// check rejects it.
func (lp *loop) check(k int, raw, ideal, out map[string]float64) {
	var want *quality
	if lp.ref != nil && k < len(lp.ref.Quality) {
		want = &lp.ref.Quality[k]
	}
	q, err := checkOutput(raw, ideal, out, want)
	lp.quals = append(lp.quals, q)
	if err != nil {
		lp.fail(k, err)
	}
}

func (lp *loop) fail(k int, err error) {
	lp.failed++
	fmt.Fprintf(lp.stdout, "job %d failed: %v\n", k, err)
}

func untracedRun(lp *loop, round int, setupS float64) result {
	var ms runtime.MemStats
	lat := make([]float64, 0, len(lp.jobs))
	var alloc uint64
	for k, spec := range lp.jobs {
		if time.Now().After(lp.deadline) {
			lp.fail(k, fmt.Errorf("run budget %v exhausted", runBudget))
			continue
		}
		in := materialize(spec)
		// Every measured job starts from a collected heap; the collection
		// is client time, outside the job's latency. Without it a job
		// inherits the previous job's garbage and GC pacing, so the job
		// order decided the run's peak RSS (bv-dense: 239–396 MB over ten
		// seeds). A job's own collections still land in its latency.
		runtime.GC()
		runtime.ReadMemStats(&ms)
		a0 := ms.TotalAlloc
		t0 := time.Now()
		raw, ideal, out, err := runJob(lp.ctx, in)
		d := time.Since(t0)
		runtime.ReadMemStats(&ms)
		alloc += ms.TotalAlloc - a0
		if err != nil {
			lp.fail(k, err)
			continue
		}
		lat = append(lat, float64(d)/1e6)
		lp.check(k, raw, ideal, out)
	}
	n := len(lp.jobs)
	var fid float64
	for _, q := range lp.quals {
		fid += q.Fidelity
	}
	tail, tailPct, beyond, blocks := tailLatency(lat, round)
	m := map[string]metric{
		"jobs_per_s":         {throughput(lat, round), "1/s"},
		"job_p50_ms":         {median(lat), "ms"},
		"job_tail_ms":        {tail, "ms"},
		"setup_s":            {setupS, "s"},
		"peak_rss_mb":        {peakRSSMB(), "MB"},
		"alloc_mb_per_job":   {float64(alloc) / 1e6 / float64(n), "MB"},
		"fidelity_mitigated": {fid / float64(max(len(lp.quals), 1)), "ratio"},
	}
	printMetrics(lp.stdout, m, endToEndOrder)
	fmt.Fprintf(lp.stdout, "job_tail_ms is p%.2f: %d samples beyond it in each of %d block(s) of %d jobs (median over blocks)\n",
		tailPct, beyond, blocks, len(lat)/blocks)
	fmt.Fprintf(lp.stdout, "error_rate %.6g ratio (%d failed / %d attempted)\n", float64(lp.failed)/float64(n), lp.failed, n)
	return result{Correct: lp.failed == 0 && len(lat) > 0, Attempted: n, Failed: lp.failed, Metrics: m}
}

var endToEndOrder = []string{"jobs_per_s", "job_p50_ms", "job_tail_ms", "setup_s", "peak_rss_mb", "alloc_mb_per_job", "fidelity_mitigated"}

func printMetrics(w io.Writer, m map[string]metric, order []string) {
	for _, name := range order {
		fmt.Fprintf(w, "metric %-22s %16.6f %s\n", name, m[name].Value, m[name].Unit)
	}
}

// throughput is jobs_per_s: jobs completed per second of job calls,
// taken per block of consecutive jobs, and the median over the blocks.
// A block is the fewest whole rounds of the job mix that hold at least
// throughputBlockMin jobs, so every block issues the same mix. A single
// job stalled by something outside the process slows one block and
// leaves the median where it was; over the whole run it would lower the
// figure by its full excess.
func throughput(lat []float64, round int) float64 {
	if len(lat) == 0 {
		return 0
	}
	size := (throughputBlockMin + round - 1) / round * round
	blocks := len(lat) / size
	if blocks == 0 {
		blocks, size = 1, len(lat)
	}
	rates := make([]float64, blocks)
	for b := range rates {
		var ms float64
		for _, l := range lat[b*size : (b+1)*size] {
			ms += l
		}
		rates[b] = float64(size) / (ms / 1e3)
	}
	return median(rates)
}

// tailLatency returns the latency at the highest percentile that still
// has ten samples beyond it: the 11th-largest latency. A job mix with a
// round of at least tailRoundMin jobs is cut into its rounds, in issue
// order, and the metric is the median of the rounds' tails. Each round
// holds every distinct job once, so a round's tail is set by the mix's
// heaviest jobs, and one burst of interference from outside the process
// moves one round, not the metric. A mix of independent draws (shorter
// rounds) is one block. It also returns the per-block percentile, the
// samples beyond it per block, and the number of blocks.
func tailLatency(lat []float64, round int) (value, pct float64, beyond, blocks int) {
	if len(lat) == 0 {
		return 0, 0, 0, 1
	}
	size := len(lat)
	if round >= tailRoundMin && len(lat) >= round {
		size = round
	}
	blocks = len(lat) / size
	tails := make([]float64, blocks)
	for b := range tails {
		s := append([]float64(nil), lat[b*size:(b+1)*size]...)
		sort.Float64s(s)
		if len(s) < 11 {
			tails[b], pct = s[len(s)-1], 100
			continue
		}
		tails[b], pct, beyond = s[len(s)-11], 100*float64(len(s)-10)/float64(len(s)), 10
	}
	return median(tails), pct, beyond, blocks
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// peakRSSMB is the process's peak resident set (getrusage ru_maxrss, KiB
// on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}
