package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"syscall"
	"time"

	"qbeep"
	"qbeep/internal/bitstring"
	"qbeep/internal/core"
	"qbeep/internal/device"
	"qbeep/internal/mathx"
	"qbeep/internal/noise"
	"qbeep/internal/obs"
	"qbeep/internal/qasm"
	"qbeep/internal/transpile"
)

// Span names of the traced run: the job root and one name per layer
// (module) the decomposed job calls into.
const (
	spanJob       = "job"
	spanQASM      = "qasm"
	spanDevice    = "device"
	spanTranspile = "transpile"
	spanNoise     = "noise"
	spanLambda    = "core.lambda"
	spanBitstring = "bitstring"
	spanBuild     = "core.build"
	spanStep      = "core.step"
)

// call identifies one kind of span: the job root or one layer call.
type call uint8

const (
	callJob call = iota
	callParse
	callDevice
	callTranspile
	callExecute
	callLambda
	callStringCounts
	callFromStringCounts
	callBuild
	callStep
)

// calls gives each call its span name, the function it wraps (the span's
// "call" attribute) and the keys of the numeric attributes its span
// records.
var calls = [...]struct {
	span, fn string
	attrs    []string
}{
	callJob:              {span: spanJob},
	callParse:            {spanQASM, "qasm.ParseCtx", nil},
	callDevice:           {spanDevice, "device.ByName+noise.NewExecutor", nil},
	callTranspile:        {spanTranspile, "transpile.TranspileCtx", []string{"gates_out", "swaps"}},
	callExecute:          {spanNoise, "noise.Executor.ExecuteTranspiledCtx", []string{"shots"}},
	callLambda:           {spanLambda, "core.EstimateLambda", nil},
	callStringCounts:     {spanBitstring, "bitstring.Dist.StringCounts", []string{"strings"}},
	callFromStringCounts: {spanBitstring, "bitstring.FromStringCounts", []string{"strings"}},
	callBuild:            {spanBuild, "core.BuildStateGraphCtx", []string{"lambda", "vertices", "edges"}},
	callStep:             {spanStep, "core.StateGraph.Step", []string{"iteration"}},
}

// span is one recorded span. It holds no pointers, so however many a run
// records, the collector never scans them; they become obs.SpanEvents
// only when the trace is written.
type span struct {
	call             call
	trace            uint32
	id, parent       uint16
	start            int64 // wall clock, Unix nanoseconds
	dur, cpu         time.Duration
	allocB, allocObj uint64
	attrs            [3]float64
}

// tracer records the benchmark's own spans in memory and writes them out
// in the obs span schema at the end, so the file reads back through
// internal/tracefile and cmd/qbeep-trace unchanged. Library tracing stays
// off: the library never sees a sink. Each span samples the process CPU
// clock (so a layer's worker-pool fan-out counts) and the cumulative
// heap-allocation counters; the client is single-threaded, so both
// deltas belong to the span's call.
type tracer struct {
	spans   []span
	trace   uint32
	next    uint16
	samples [2]metrics.Sample
}

// openSpan is a span in progress.
type openSpan struct {
	span
	t0       time.Time
	cpu0     time.Duration
	b0, obj0 uint64
}

func newTracer() *tracer {
	t := &tracer{}
	t.samples[0].Name = "/gc/heap/allocs:bytes"
	t.samples[1].Name = "/gc/heap/allocs:objects"
	return t
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (t *tracer) allocs() (bytes, objects uint64) {
	metrics.Read(t.samples[:])
	return t.samples[0].Value.Uint64(), t.samples[1].Value.Uint64()
}

// start opens a span; a layer call's parent is the job root (span 1).
func (t *tracer) start(c call) openSpan {
	t.next++
	s := openSpan{span: span{call: c, trace: t.trace, id: t.next}}
	if c != callJob {
		s.parent = 1
	}
	s.b0, s.obj0 = t.allocs()
	s.cpu0 = processCPU()
	s.t0 = time.Now()
	return s
}

// end closes s with the values of its call's attributes, in order.
func (t *tracer) end(s *openSpan, attrs ...float64) {
	s.dur = time.Since(s.t0)
	cpu := processCPU()
	b, obj := t.allocs()
	s.start = s.t0.UnixNano()
	s.cpu = max(cpu-s.cpu0, 0)
	s.allocB = b - s.b0
	s.allocObj = obj - s.obj0
	copy(s.attrs[:], attrs)
	t.spans = append(t.spans, s.span)
}

// exactCounts are the per-layer work counts of a run. They depend only
// on the inputs, so two runs of one seed must report them identically.
type exactCounts struct {
	Jobs       int64 `json:"jobs"`
	GatesOut   int64 `json:"transpile.gates_out"`
	Swaps      int64 `json:"transpile.swaps"`
	Shots      int64 `json:"noise.shots"`
	Strings    int64 `json:"bitstring.strings"`
	Vertices   int64 `json:"core.build.vertices"`
	Edges      int64 `json:"core.build.edges"`
	Iterations int64 `json:"core.step.iterations"`
	EdgeVisits int64 `json:"core.step.edge_visits"` // computed
	StepBytes  int64 `json:"core.step.bytes"`       // computed
}

// decomposed runs the same job as runJob, split into calls to each
// layer's own entry point under one job span (trace ID = job index + 1).
// The arithmetic is the library's own: MitigateCtx is FromStringCounts,
// BuildStateGraphCtx with the Poisson weights, Iterations Steps at
// η = 1/i, then the normalized snapshot and the raw→mitigated Hellinger
// shift MitigateCtx computes for its quality telemetry. The snapshot and
// that shift are not layer calls, so they land in the job's self time.
func (t *tracer) decomposed(ctx context.Context, k int, in jobInput, counts *exactCounts) (raw, ideal, out qbeep.Counts, err error) {
	t.trace, t.next = uint32(k)+1, 0
	root := t.start(callJob)
	defer func() { t.end(&root) }()
	opts := qbeep.NewOptions()
	raw, lambda := in.counts, in.spec.lambda
	if in.spec.qasm != "" {
		s := t.start(callParse)
		c, err := qasm.ParseCtx(ctx, in.spec.qasm)
		t.end(&s)
		if err != nil {
			return nil, nil, nil, err
		}
		s = t.start(callDevice)
		b, err := device.ByName(in.spec.backend)
		var exec *noise.Executor
		if err == nil {
			exec, err = noise.NewExecutor(b, noise.DefaultModel())
		}
		t.end(&s)
		if err != nil {
			return nil, nil, nil, err
		}
		s = t.start(callTranspile)
		tres, err := transpile.TranspileCtx(ctx, c, b, nil)
		if err != nil {
			t.end(&s)
			return nil, nil, nil, err
		}
		t.end(&s, float64(tres.GatesAfter), float64(tres.SwapsAdded))
		s = t.start(callExecute)
		run, err := exec.ExecuteTranspiledCtx(ctx, c, tres, in.spec.shots, mathx.NewRNG(in.spec.simSeed))
		t.end(&s, float64(in.spec.shots))
		if err != nil {
			return nil, nil, nil, err
		}
		s = t.start(callLambda)
		lb, err := core.EstimateLambda(run.Transpiled, b)
		t.end(&s)
		if err != nil {
			return nil, nil, nil, err
		}
		lambda = lb.T1 + lb.T2 + lb.Gates
		s = t.start(callStringCounts)
		raw, ideal = run.Counts.StringCounts(), run.Ideal.StringCounts()
		t.end(&s, float64(len(raw)+len(ideal)))
		counts.GatesOut += int64(tres.GatesAfter)
		counts.Swaps += int64(tres.SwapsAdded)
		counts.Shots += int64(run.Shots)
		counts.Strings += int64(len(raw) + len(ideal))
	}
	s := t.start(callFromStringCounts)
	dist, err := bitstring.FromStringCounts(raw)
	t.end(&s, float64(len(raw)))
	if err != nil {
		return nil, nil, nil, err
	}
	s = t.start(callBuild)
	g, err := core.BuildStateGraphCtx(ctx, dist, core.PoissonEdges{Lambda: lambda}, opts.Epsilon, 0)
	if err != nil {
		t.end(&s)
		return nil, nil, nil, err
	}
	t.end(&s, lambda, float64(g.NumVertices()), float64(g.NumEdges()))
	for i := 1; i <= opts.Iterations; i++ {
		s = t.start(callStep)
		g.Step(1 / float64(i))
		t.end(&s, float64(i))
	}
	final := g.Dist().Normalized(dist.Total())
	_ = bitstring.Hellinger(dist, final) // MitigateCtx's quality shift
	s = t.start(callStringCounts)
	out = final.StringCounts()
	t.end(&s, float64(len(out)))

	iters, e, v := int64(opts.Iterations), int64(g.NumEdges()), int64(g.NumVertices())
	counts.Jobs++
	counts.Strings += int64(len(raw) + len(out))
	counts.Vertices += v
	counts.Edges += e
	counts.Iterations += iters
	counts.EdgeVisits += iters * stepEdgeVisitsPerEdge * e
	counts.StepBytes += iters * (stepBytesPerEdge*e + stepBytesPerVertex*v)
	return raw, ideal, out, nil
}

// writeTrace writes the recorded spans as obs NDJSON.
func (t *tracer) writeTrace(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sink := obs.NewNDJSONSink(f)
	for _, s := range t.spans {
		c := calls[s.call]
		e := obs.SpanEvent{
			Name: c.span, TraceID: uint64(s.trace), SpanID: uint64(s.id), ParentID: uint64(s.parent),
			Start: time.Unix(0, s.start), Duration: s.dur, CPU: s.cpu,
			AllocBytes: s.allocB, AllocObjects: s.allocObj,
		}
		if c.fn != "" {
			e.Attrs = append(e.Attrs, obs.Attr{Key: "call", Value: c.fn})
		}
		for i, key := range c.attrs {
			e.Attrs = append(e.Attrs, obs.Attr{Key: key, Value: s.attrs[i]})
		}
		sink.OnSpan(e)
	}
	if err := sink.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
