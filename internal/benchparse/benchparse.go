// Package benchparse turns `go test -bench` output into structured
// results, maintains the repo's benchmark baselines (BENCH_core.json,
// BENCH_sim.json) and the append-only trajectory file
// (BENCH_trajectory.json), and gates regressions. Comparison is ratio
// first: the derived invariants (fused/naive, engine/brute, zero-alloc
// hot loops) cancel machine speed, so they hold across the laptops and
// shared CI runners the absolute ns/op numbers do not survive.
package benchparse

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line. BOp/AllocsOp are -1 when the run
// was recorded without -benchmem, distinguishing "not measured" from a
// genuine zero-allocation result.
type Result struct {
	Name       string  // GOMAXPROCS suffix stripped: BenchmarkRun-4 → BenchmarkRun
	Iterations int64   // b.N of the final run
	NsOp       float64 // nanoseconds per operation
	BOp        int64   // bytes allocated per operation (-1 without -benchmem)
	AllocsOp   int64   // allocations per operation (-1 without -benchmem)
}

// Output is a full parsed transcript: every benchmark line plus the
// metadata go test prints ahead of them.
type Output struct {
	Results []Result
	Go      string // goos/goarch joined, e.g. "linux/amd64"
	CPU     string // cpu: line, if present
}

// Find returns the named result and whether it was present.
func (o *Output) Find(name string) (Result, bool) {
	for _, r := range o.Results {
		if r.Name == name {
			return r, true
		}
	}
	return Result{}, false
}

// Parse reads a `go test -bench` transcript. Non-benchmark lines are
// skipped except for metadata (goos/goarch/cpu) and failures: a
// "[build failed]" marker or a FAIL verdict fails the parse, so a broken
// benchmark package can never record an empty-but-green trajectory row.
func Parse(r io.Reader) (*Output, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	out := &Output{}
	var goos, goarch string
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if strings.Contains(text, "[build failed]") {
			return nil, fmt.Errorf("benchparse: line %d: build failed: %s", line, strings.TrimSpace(text))
		}
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "goos:":
			if len(fields) > 1 {
				goos = fields[1]
			}
			continue
		case "goarch:":
			if len(fields) > 1 {
				goarch = fields[1]
			}
			continue
		case "cpu:":
			out.CPU = strings.TrimSpace(strings.TrimPrefix(text, "cpu:"))
			continue
		case "FAIL":
			return nil, fmt.Errorf("benchparse: line %d: transcript contains a FAIL verdict", line)
		}
		if !strings.HasPrefix(fields[0], "Benchmark") || len(fields) < 4 {
			continue
		}
		res, err := parseBenchLine(fields)
		if err != nil {
			return nil, fmt.Errorf("benchparse: line %d: %w", line, err)
		}
		out.Results = append(out.Results, res)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchparse: %w", err)
	}
	if goos != "" && goarch != "" {
		out.Go = goos + "/" + goarch
	}
	return out, nil
}

// parseBenchLine decodes one "BenchmarkName-P  N  <value> <unit>..." line.
func parseBenchLine(fields []string) (Result, error) {
	res := Result{Name: stripProcSuffix(fields[0]), BOp: -1, AllocsOp: -1}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return res, fmt.Errorf("iterations %q: %w", fields[1], err)
	}
	res.Iterations = iters
	sawNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return res, fmt.Errorf("value %q: %w", fields[i], err)
		}
		switch fields[i+1] {
		case "ns/op":
			res.NsOp = v
			sawNs = true
		case "B/op":
			res.BOp = int64(v)
		case "allocs/op":
			res.AllocsOp = int64(v)
		default:
			// MB/s and custom b.ReportMetric units ride along unparsed.
		}
	}
	if !sawNs {
		return res, fmt.Errorf("benchmark %s has no ns/op column", res.Name)
	}
	return res, nil
}

// stripProcSuffix removes the trailing -GOMAXPROCS go test appends to
// benchmark names (BenchmarkRun-4 → BenchmarkRun), leaving sub-benchmark
// paths (BenchmarkBuild/V512/lambda1) intact.
func stripProcSuffix(name string) string {
	i := strings.LastIndex(name, "-")
	if i <= 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// Entry is one benchmark in a baseline or trajectory row — the same
// schema BENCH_core.json and BENCH_sim.json use, with per-benchmark
// extras (edge counts) kept as an optional field.
type Entry struct {
	Name     string  `json:"name"`
	NsOp     float64 `json:"ns_op"`
	BOp      int64   `json:"b_op"`
	AllocsOp int64   `json:"allocs_op"`
	Edges    int64   `json:"edges,omitempty"`
}

// Baseline is the unified schema of the BENCH_*.json files.
type Baseline struct {
	Description string             `json:"description,omitempty"`
	Command     string             `json:"command,omitempty"`
	Date        string             `json:"date,omitempty"`
	Commit      string             `json:"commit,omitempty"`
	Go          string             `json:"go,omitempty"`
	CPU         string             `json:"cpu,omitempty"`
	Benchmarks  []Entry            `json:"benchmarks"`
	Derived     map[string]float64 `json:"derived,omitempty"`
}

// LoadBaseline reads one BENCH_*.json file.
func LoadBaseline(path string) (*Baseline, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("benchparse: %s: %w", path, err)
	}
	return &b, nil
}

// Find returns the named baseline entry and whether it was present.
func (b *Baseline) Find(name string) (Entry, bool) {
	for _, e := range b.Benchmarks {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// RatioDef names the two benchmarks whose ns/op quotient forms a derived
// speedup: Slow's time over Fast's (engine speedups stay > 1).
type RatioDef struct {
	Slow string // reference implementation (numerator, ns/op)
	Fast string // engine under gate (denominator, ns/op)
}

// KnownRatios maps the derived keys recorded in the BENCH_*.json files
// to their defining benchmark pairs, so a compare run can recompute the
// same invariant from a fresh transcript.
var KnownRatios = map[string]RatioDef{
	"build_speedup_vs_brute_V4096_lambda1": {
		Slow: "BenchmarkBuildStateGraphBrute/V4096/lambda1",
		Fast: "BenchmarkBuildStateGraph/V4096/lambda1",
	},
	"build_speedup_vs_brute_V4096_lambda2": {
		Slow: "BenchmarkBuildStateGraphBrute/V4096/lambda2",
		Fast: "BenchmarkBuildStateGraph/V4096/lambda2",
	},
	"fused_speedup_vs_naive":   {Slow: "BenchmarkNaiveRun", Fast: "BenchmarkRun"},
	"unfused_speedup_vs_naive": {Slow: "BenchmarkNaiveRun", Fast: "BenchmarkRunUnfused"},
	// One flow iteration on the same dense BV-style graph through the
	// edge form and through the Walsh–Hadamard form the cost rule picks.
	"step_wht_speedup_dense": {
		Slow: "BenchmarkStateGraphStep/dense_n15_lambda2.6_edges",
		Fast: "BenchmarkStateGraphStep/dense_n15_lambda2.6",
	},
	// The sparse-wide job's graph build (10⁵ strings over 26 qubits,
	// λ = 1) through the sphere walk and through the split-half scan
	// the cost rule picks.
	"build_split_speedup_sparse_wide": {
		Slow: "BenchmarkBuildStateGraph/sparse_wide_sphere",
		Fast: "BenchmarkBuildStateGraph/sparse_wide",
	},
}

// KnownAllocInvariants maps derived allocs-per-op keys to the benchmark
// whose allocation count they pin. The recorded baseline value is the
// ceiling: the hot loops must stay allocation-free (zero) and the graph
// build must stay within its fixed arena budget.
var KnownAllocInvariants = map[string]string{
	"step_allocs_per_op":               "BenchmarkStateGraphStep/V4096/lambda1",
	"probabilities_into_allocs_per_op": "BenchmarkProbabilitiesInto",
	"build_allocs_v4096_lambda1":       "BenchmarkBuildStateGraph/V4096/lambda1",
	// Steady-state allocation ceiling for the throughput engine: program
	// replay is allocation-free.
	"run_program_allocs_steady": "BenchmarkRunProgram",
}

// KnownBudgets maps derived wall-clock keys to the benchmark whose ns/op
// they convert to seconds. Unlike the speedup ratios these are absolute:
// the recorded baseline value is a budget with headroom over the
// measured time, and a compare run regresses when the fresh measurement
// exceeds it — the "mitigable in seconds" acceptance bound for the
// million-vertex track.
var KnownBudgets = map[string]string{
	"mitigate_v1e6_seconds": "BenchmarkMitigate/V1e6",
}

// Ratios recomputes every known derived invariant present in the result
// set: speedup ratios where both benchmarks ran, allocation counts where
// the pinned benchmark ran with -benchmem.
func Ratios(results []Result) map[string]float64 {
	byName := make(map[string]Result, len(results))
	for _, r := range results {
		byName[r.Name] = r
	}
	out := map[string]float64{}
	for key, def := range KnownRatios {
		slow, okS := byName[def.Slow]
		fast, okF := byName[def.Fast]
		if okS && okF && fast.NsOp > 0 {
			out[key] = round2(slow.NsOp / fast.NsOp)
		}
	}
	for key, name := range KnownAllocInvariants {
		if r, ok := byName[name]; ok && r.AllocsOp >= 0 {
			out[key] = float64(r.AllocsOp)
		}
	}
	for key, name := range KnownBudgets {
		if r, ok := byName[name]; ok && r.NsOp > 0 {
			out[key] = round2(r.NsOp / 1e9)
		}
	}
	return out
}

func round2(v float64) float64 {
	return float64(int64(v*100+0.5)) / 100
}

// Finding is one compare verdict: a derived invariant's baseline and
// current values plus whether it regressed past the threshold.
type Finding struct {
	Key        string  `json:"key"`
	Baseline   float64 `json:"baseline"`
	Current    float64 `json:"current"`
	Regression bool    `json:"regression"`
}

// Compare recomputes the baseline's derived invariants from a fresh
// result set and flags regressions. Speedup ratios regress when the
// current value drops below baseline×(1−threshold); allocation
// invariants regress on any increase (a hot loop that starts allocating
// is a bug, not noise); wall-clock budgets regress when the measured
// seconds exceed the recorded budget (the baseline already carries the
// headroom, so no extra threshold applies). Derived keys whose
// benchmarks are absent from the results are skipped — a partial run
// gates only what it measured.
func Compare(base *Baseline, results []Result, threshold float64) []Finding {
	current := Ratios(results)
	keys := make([]string, 0, len(base.Derived))
	for k := range base.Derived {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []Finding
	for _, key := range keys {
		cur, ok := current[key]
		if !ok {
			continue
		}
		f := Finding{Key: key, Baseline: base.Derived[key], Current: cur}
		if _, isAlloc := KnownAllocInvariants[key]; isAlloc {
			f.Regression = cur > f.Baseline
		} else if _, isBudget := KnownBudgets[key]; isBudget {
			f.Regression = cur > f.Baseline
		} else {
			f.Regression = cur < f.Baseline*(1-threshold)
		}
		out = append(out, f)
	}
	return out
}

// Row is one trajectory observation: a suite's results at a commit.
type Row struct {
	Commit     string             `json:"commit"`
	Date       string             `json:"date"` // YYYY-MM-DD
	Suite      string             `json:"suite"`
	Go         string             `json:"go,omitempty"`
	CPU        string             `json:"cpu,omitempty"`
	Benchmarks []Entry            `json:"benchmarks"`
	Derived    map[string]float64 `json:"derived,omitempty"`
}

// Trajectory is the BENCH_trajectory.json document.
type Trajectory struct {
	Description string `json:"description,omitempty"`
	Rows        []Row  `json:"rows"`
}

// LoadTrajectory reads the trajectory file; a missing file is an empty
// trajectory, so the first append bootstraps it.
func LoadTrajectory(path string) (*Trajectory, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &Trajectory{}, nil
	}
	if err != nil {
		return nil, err
	}
	var tr Trajectory
	if err := json.Unmarshal(raw, &tr); err != nil {
		return nil, fmt.Errorf("benchparse: %s: %w", path, err)
	}
	return &tr, nil
}

// Append records one row, idempotently: a row with the same (commit,
// suite) replaces the previous observation instead of duplicating it, so
// re-running the harness at one commit converges. Rows keep a stable
// order — date, then suite, then commit — regardless of append order.
func (tr *Trajectory) Append(row Row) {
	for i := range tr.Rows {
		if tr.Rows[i].Commit == row.Commit && tr.Rows[i].Suite == row.Suite {
			tr.Rows[i] = row
			tr.sortRows()
			return
		}
	}
	tr.Rows = append(tr.Rows, row)
	tr.sortRows()
}

func (tr *Trajectory) sortRows() {
	sort.SliceStable(tr.Rows, func(i, j int) bool {
		a, b := tr.Rows[i], tr.Rows[j]
		if a.Date != b.Date {
			return a.Date < b.Date
		}
		if a.Suite != b.Suite {
			return a.Suite < b.Suite
		}
		return a.Commit < b.Commit
	})
}

// Save writes the trajectory document (two-space indent, trailing
// newline — the repo's JSON house style).
func (tr *Trajectory) Save(path string) error {
	raw, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// EntriesFromResults converts parsed results into baseline/trajectory
// entries (dropping iteration counts, which are noise).
func EntriesFromResults(results []Result) []Entry {
	out := make([]Entry, 0, len(results))
	for _, r := range results {
		out = append(out, Entry{Name: r.Name, NsOp: r.NsOp, BOp: r.BOp, AllocsOp: r.AllocsOp})
	}
	return out
}
