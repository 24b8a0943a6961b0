package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"qbeep/internal/tracefile"
)

// Computed per-iteration traffic of today's Step over its 24-byte edge
// records and 16-byte nodes, ignoring cache misses. Three passes visit
// every edge: the normalizer pass (edge, two prob gathers, two z
// read-modify-writes: 72 B), the flow pass (edge, z, count and prob
// gathers, four out/inflow read-modify-writes, two flow writes: 152 B)
// and the apply pass (edge, two flow reads, two scale gathers, two delta
// read-modify-writes: 88 B). The per-vertex passes (prob, z init, zeroing,
// overflow scale, delta, final update) touch 136 B.
const (
	stepEdgeVisitsPerEdge = 3
	stepBytesPerEdge      = 312
	stepBytesPerVertex    = 136
)

// perLayerOrder lists the traced run's metrics in report order.
var perLayerOrder = []string{
	"qasm.busy_ms", "device.busy_ms",
	"transpile.busy_ms", "transpile.gates_out", "transpile.swaps",
	"noise.busy_ms", "noise.shots", "noise.shots_per_s",
	"core.lambda.busy_ms",
	"bitstring.busy_ms", "bitstring.strings",
	"core.build.busy_ms", "core.build.vertices", "core.build.edges", "core.build.alloc_mb",
	"core.step.busy_ms", "core.step.iter_p50_ms", "core.step.iterations",
	"core.step.edge_visits", "core.step.bytes", "core.step.alloc_mb",
	"job.self_ms", "job.traced_ms", "trace.overhead_frac",
}

// tracedRun runs every job of the sequence twice — once decomposed into
// traced layer calls, once through the untraced public path, alternating
// which goes first — and asserts the two outputs are bitwise equal, so
// the attribution measures the arithmetic the end-to-end run measures.
func tracedRun(cfg config, lp *loop) (result, error) {
	t := newTracer()
	lp.counts = &exactCounts{}
	var plainBusy time.Duration
	for k, spec := range lp.jobs {
		if time.Now().After(lp.deadline) {
			lp.fail(k, fmt.Errorf("run budget %v exhausted", runBudget))
			continue
		}
		in := materialize(spec)
		var plain, dec [3]map[string]float64
		var plainErr, decErr error
		runPlain := func() {
			runtime.GC() // as in untracedRun
			t0 := time.Now()
			plain[0], plain[1], plain[2], plainErr = runJob(lp.ctx, in)
			plainBusy += time.Since(t0)
		}
		runDec := func() {
			runtime.GC() // as in untracedRun
			dec[0], dec[1], dec[2], decErr = t.decomposed(lp.ctx, k, in, lp.counts)
		}
		if k%2 == 0 {
			runDec()
			runPlain()
		} else {
			runPlain()
			runDec()
		}
		if plainErr != nil || decErr != nil {
			lp.fail(k, fmt.Errorf("untraced: %v; decomposed: %v", plainErr, decErr))
			continue
		}
		for i, what := range []string{"raw counts", "ideal", "mitigated output"} {
			if err := bitwiseEqual(plain[i], dec[i]); err != nil {
				lp.fail(k, fmt.Errorf("decomposed %s differs from the untraced job: %w", what, err))
			}
		}
		lp.check(k, plain[0], plain[1], plain[2])
	}
	if err := t.writeTrace(cfg.traceOut); err != nil {
		return result{}, err
	}
	m, err := layerMetrics(t, lp.counts, plainBusy, cfg.traceOut)
	if err != nil {
		return result{}, err
	}
	printMetrics(lp.stdout, m, perLayerOrder)
	fmt.Fprintf(lp.stdout, "core.step.edge_visits and core.step.bytes are computed from E, V and iterations\n")
	fmt.Fprintf(lp.stdout, "trace: %s (qbeep-trace -hotspots %s)\n", cfg.traceOut, cfg.traceOut)
	countsOK := true
	if lp.failed == 0 {
		countsOK = checkExactCounts(lp, cfg)
	}
	n := len(lp.jobs)
	fmt.Fprintf(lp.stdout, "error_rate %.6g ratio (%d failed / %d attempted)\n", float64(lp.failed)/float64(n), lp.failed, n)
	return result{Correct: lp.failed == 0 && countsOK, Attempted: n, Failed: lp.failed, Metrics: m}, nil
}

func bitwiseEqual(a, b map[string]float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d outcomes vs %d", len(a), len(b))
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok || math.Float64bits(va) != math.Float64bits(vb) {
			return fmt.Errorf("outcome %q: %v vs %v", k, va, vb)
		}
	}
	return nil
}

// layerMetrics reduces the recorded spans to per-job layer metrics, and
// re-reads the written trace through internal/tracefile to confirm that
// the layers' self times plus the job's own account for the job time.
func layerMetrics(t *tracer, c *exactCounts, plainBusy time.Duration, tracePath string) (map[string]metric, error) {
	busy := map[string]time.Duration{}
	alloc := map[string]uint64{}
	var steps []float64
	for _, s := range t.spans {
		name := calls[s.call].span
		busy[name] += s.dur
		alloc[name] += s.allocB
		if s.call == callStep {
			steps = append(steps, float64(s.dur)/1e6)
		}
	}
	var children time.Duration
	for name, d := range busy {
		if name != spanJob {
			children += d
		}
	}
	self := busy[spanJob] - children

	f, err := os.Open(tracePath)
	if err != nil {
		return nil, err
	}
	forest, err := tracefile.Parse(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	var fileSelf, fileAll, fileJobs time.Duration
	for _, tr := range forest.Traces {
		for _, s := range tr.Spans {
			fileAll += s.SelfTime()
			if s.Name == spanJob {
				fileSelf += s.SelfTime()
				fileJobs += s.Duration
			}
		}
	}
	if fileSelf != self || fileAll != fileJobs || fileJobs != busy[spanJob] {
		return nil, fmt.Errorf("trace accounting: tracefile self %v / all-self %v / jobs %v, recorded self %v / jobs %v",
			fileSelf, fileAll, fileJobs, self, busy[spanJob])
	}

	n := float64(max(c.Jobs, 1))
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 / n }
	perJob := func(v int64) float64 { return float64(v) / n }
	mb := func(b uint64) float64 { return float64(b) / 1e6 / n }
	shotsPerS := 0.0
	if s := busy[spanNoise].Seconds(); s > 0 {
		shotsPerS = float64(c.Shots) / s
	}
	overhead := 0.0
	if plainBusy > 0 {
		overhead = float64(busy[spanJob])/float64(plainBusy) - 1
	}
	m := map[string]metric{
		"qasm.busy_ms":          {ms(busy[spanQASM]), "ms"},
		"device.busy_ms":        {ms(busy[spanDevice]), "ms"},
		"transpile.busy_ms":     {ms(busy[spanTranspile]), "ms"},
		"transpile.gates_out":   {perJob(c.GatesOut), "count"},
		"transpile.swaps":       {perJob(c.Swaps), "count"},
		"noise.busy_ms":         {ms(busy[spanNoise]), "ms"},
		"noise.shots":           {perJob(c.Shots), "count"},
		"noise.shots_per_s":     {shotsPerS, "1/s"},
		"core.lambda.busy_ms":   {ms(busy[spanLambda]), "ms"},
		"bitstring.busy_ms":     {ms(busy[spanBitstring]), "ms"},
		"bitstring.strings":     {perJob(c.Strings), "count"},
		"core.build.busy_ms":    {ms(busy[spanBuild]), "ms"},
		"core.build.vertices":   {perJob(c.Vertices), "count"},
		"core.build.edges":      {perJob(c.Edges), "count"},
		"core.build.alloc_mb":   {mb(alloc[spanBuild]), "MB"},
		"core.step.busy_ms":     {ms(busy[spanStep]), "ms"},
		"core.step.iter_p50_ms": {median(steps), "ms"},
		"core.step.iterations":  {perJob(c.Iterations), "count"},
		"core.step.edge_visits": {perJob(c.EdgeVisits), "count"},
		"core.step.bytes":       {perJob(c.StepBytes), "B"},
		"core.step.alloc_mb":    {mb(alloc[spanStep]), "MB"},
		"job.self_ms":           {ms(self), "ms"},
		"job.traced_ms":         {ms(busy[spanJob]), "ms"},
		"trace.overhead_frac":   {overhead, "ratio"},
	}
	return m, nil
}

// checkExactCounts compares the run's exact counts with the previous run
// of the same workload, seed and job count (recorded under the state
// directory) and with the reference file's, when either exists.
func checkExactCounts(lp *loop, cfg config) bool {
	ok := true
	compare := func(what string, want *exactCounts) {
		if want == nil || want.Jobs != lp.counts.Jobs {
			return
		}
		if *want != *lp.counts {
			ok = false
			fmt.Fprintf(lp.stdout, "exact counts differ from %s:\n  want %+v\n  got  %+v\n", what, *want, *lp.counts)
			return
		}
		fmt.Fprintf(lp.stdout, "exact counts match %s\n", what)
	}
	if lp.ref != nil {
		compare("the reference file", lp.ref.Counts)
	}
	path := filepath.Join(stateDir, "counts", fmt.Sprintf("%s-seed%d-jobs%d.json", cfg.workload.name, cfg.seed, lp.counts.Jobs))
	if data, err := os.ReadFile(path); err == nil {
		var prev exactCounts
		if err := json.Unmarshal(data, &prev); err != nil {
			fmt.Fprintf(lp.stdout, "unreadable %s: %v\n", path, err)
			return false
		}
		compare("the previous run ("+path+")", &prev)
		return ok
	}
	if !ok {
		return false
	}
	data, err := json.MarshalIndent(lp.counts, "", "  ")
	if err == nil {
		if err = os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			err = os.WriteFile(path, append(data, '\n'), 0o644)
		}
	}
	if err != nil {
		fmt.Fprintf(lp.stdout, "recording exact counts: %v\n", err)
		return false
	}
	fmt.Fprintf(lp.stdout, "exact counts recorded for the next run: %s\n", path)
	return ok
}
