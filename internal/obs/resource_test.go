package obs

import (
	"context"
	"strings"
	"testing"
)

// TestSpanResourceDeltas: with capture on, a span that allocates must
// report a non-zero allocation delta (bytes and objects), and the wire
// fields must survive the NDJSON round trip implicitly via SpanEvent.
func TestSpanResourceDeltas(t *testing.T) {
	var c CollectorSink
	SetSpanSink(&c)
	SetResourceCapture(true)
	defer func() {
		SetResourceCapture(false)
		SetSpanSink(nil)
	}()

	const blob = 1 << 20
	_, sp := Start(context.Background(), "alloc-heavy")
	sink := make([]byte, blob)
	sink[0] = 1
	sp.SetAttr("bytes", len(sink))
	sp.End()

	ev := c.Events()
	if len(ev) != 1 {
		t.Fatalf("got %d events, want 1", len(ev))
	}
	if ev[0].AllocBytes < blob {
		t.Fatalf("AllocBytes = %d, want >= %d", ev[0].AllocBytes, blob)
	}
	if ev[0].AllocObjects == 0 {
		t.Fatalf("AllocObjects = 0, want > 0")
	}
	if ev[0].CPU < 0 {
		t.Fatalf("CPU = %v, want >= 0", ev[0].CPU)
	}
}

// TestSpanResourceCaptureOffByDefault: installing a sink alone must not
// produce resource fields, so goldens over wall-time-only traces stay
// stable.
func TestSpanResourceCaptureOffByDefault(t *testing.T) {
	var c CollectorSink
	SetSpanSink(&c)
	defer SetSpanSink(nil)
	if ResourceCaptureEnabled() {
		t.Fatal("resource capture enabled without opt-in")
	}
	_, sp := Start(context.Background(), "plain")
	_ = make([]byte, 4096)
	sp.End()
	ev := c.Events()
	if len(ev) != 1 {
		t.Fatalf("got %d events, want 1", len(ev))
	}
	if ev[0].CPU != 0 || ev[0].AllocBytes != 0 || ev[0].AllocObjects != 0 {
		t.Fatalf("resource fields set without capture: %+v", ev[0])
	}
}

// TestStartDisabledWithResourceCaptureAllocs: the capture toggle must not
// disturb the zero-alloc disabled path — the sink check comes first.
func TestStartDisabledWithResourceCaptureAllocs(t *testing.T) {
	SetSpanSink(nil)
	SetResourceCapture(true)
	defer SetResourceCapture(false)
	ctx := context.Background()
	if n := testing.AllocsPerRun(1000, func() {
		c, s := Start(ctx, "hot")
		_ = c
		s.End()
	}); n != 0 {
		t.Fatalf("disabled Start allocates %v per op with capture toggled on", n)
	}
}

// BenchmarkStartDisabled pins the acceptance invariant: obs.Start with no
// sink installed is 0 allocs/op, so instrumentation can stay in kernel
// hot paths unconditionally.
func BenchmarkStartDisabled(b *testing.B) {
	SetSpanSink(nil)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, sp := Start(ctx, "hot")
		_ = c
		sp.End()
	}
}

func TestTraceIDFrom(t *testing.T) {
	if id := TraceIDFrom(context.Background()); id != 0 {
		t.Fatalf("TraceIDFrom(Background) = %d, want 0", id)
	}
	resetTraceIDs()
	var c CollectorSink
	SetSpanSink(&c)
	defer SetSpanSink(nil)
	ctx, sp := Start(context.Background(), "root")
	defer sp.End()
	if id := TraceIDFrom(ctx); id != 1 {
		t.Fatalf("TraceIDFrom(traced ctx) = %d, want 1", id)
	}
}

func TestHistogramWorstTrace(t *testing.T) {
	var h Histogram
	if trace, _ := h.WorstTrace(); trace != 0 {
		t.Fatalf("empty histogram worst trace = %d, want 0", trace)
	}
	h.ObserveTrace(0.5, 7)
	h.ObserveTrace(0.1, 9)
	trace, worst := h.WorstTrace()
	if trace != 7 || worst < 0.49 || worst > 0.51 {
		t.Fatalf("WorstTrace = %d/%v, want 7/0.5", trace, worst)
	}
	// A new untraced maximum clears the stamp: the worst observation is
	// no longer attributable.
	h.Observe(2.0)
	if trace, _ := h.WorstTrace(); trace != 0 {
		t.Fatalf("worst trace after untraced max = %d, want 0", trace)
	}
	h.ObserveTrace(3.0, 11)
	if trace, _ := h.WorstTrace(); trace != 11 {
		t.Fatalf("worst trace = %d, want 11", trace)
	}
}

func TestPromWorstTraceStamp(t *testing.T) {
	r := NewRegistry()
	r.Histogram("stamped").ObserveTrace(0.25, 42)
	r.Histogram("plain").Observe(0.25)
	var b strings.Builder
	if err := WritePrometheus(&b, r); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `qbeep_stamped_window_worst{trace="42"} 0.25`) {
		t.Fatalf("missing worst-trace stamp in:\n%s", out)
	}
	if strings.Contains(out, "qbeep_plain_window_worst") {
		t.Fatalf("untraced histogram grew a worst-trace series:\n%s", out)
	}
}

func TestWriteBuildInfo(t *testing.T) {
	var b strings.Builder
	if err := WriteBuildInfo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "# TYPE qbeep_build_info gauge") ||
		!strings.Contains(out, `qbeep_build_info{go_version="go`) ||
		!strings.HasSuffix(out, "} 1\n") {
		t.Fatalf("build info exposition = %q", out)
	}
}
