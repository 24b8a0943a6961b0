package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
)

func TestSpanDisabledIsInert(t *testing.T) {
	SetSpanSink(nil)
	_, s := Start(context.Background(), "nothing")
	s.SetAttr("k", 1)
	s.End() // must not panic or deliver anywhere
	if TracingEnabled() {
		t.Fatal("tracing reported enabled with nil sink")
	}
}

// TestSpanDisabledPathAllocs is the no-op sink allocation check: with
// tracing disabled, Start/End must allocate nothing, so leaving
// instrumentation in hot paths is free.
func TestSpanDisabledPathAllocs(t *testing.T) {
	SetSpanSink(nil)
	if n := testing.AllocsPerRun(1000, func() {
		_, s := Start(context.Background(), "hot")
		s.End()
	}); n != 0 {
		t.Fatalf("disabled span allocates %v per op", n)
	}
}

func TestSpanDeliversToSink(t *testing.T) {
	var c CollectorSink
	SetSpanSink(&c)
	defer SetSpanSink(nil)

	_, s := Start(context.Background(), "work")
	s.SetAttr("items", 3)
	s.End()
	s.End() // double End must not double-deliver

	ev := c.Events()
	if len(ev) != 1 {
		t.Fatalf("got %d events, want 1", len(ev))
	}
	if ev[0].Name != "work" || ev[0].Duration < 0 {
		t.Fatalf("event = %+v", ev[0])
	}
	if len(ev[0].Attrs) != 1 || ev[0].Attrs[0].Key != "items" {
		t.Fatalf("attrs = %+v", ev[0].Attrs)
	}
}

// TestStartHierarchyDeterministicIDs pins the ID scheme golden tests
// rely on: sequential code numbers spans in start order within one
// trace, the root is span 1 with parent 0, and separate Start roots get
// consecutive trace IDs.
func TestStartHierarchyDeterministicIDs(t *testing.T) {
	resetTraceIDs()
	var c CollectorSink
	SetSpanSink(&c)
	defer SetSpanSink(nil)

	ctx, root := Start(context.Background(), "root")
	ctx1, child := Start(ctx, "child")
	_, grand := Start(ctx1, "grandchild")
	grand.End()
	child.End()
	_, sib := Start(ctx, "sibling")
	sib.End()
	root.End()

	_, other := Start(context.Background(), "other-root")
	other.End()

	byName := map[string]SpanEvent{}
	for _, e := range c.Events() {
		byName[e.Name] = e
	}
	want := []struct {
		name                string
		trace, span, parent uint64
	}{
		{"root", 1, 1, 0},
		{"child", 1, 2, 1},
		{"grandchild", 1, 3, 2},
		{"sibling", 1, 4, 1},
		{"other-root", 2, 1, 0},
	}
	for _, w := range want {
		e, ok := byName[w.name]
		if !ok {
			t.Fatalf("span %q not delivered", w.name)
		}
		if e.TraceID != w.trace || e.SpanID != w.span || e.ParentID != w.parent {
			t.Fatalf("%s: trace/span/parent = %d/%d/%d, want %d/%d/%d",
				w.name, e.TraceID, e.SpanID, e.ParentID, w.trace, w.span, w.parent)
		}
	}
}

// TestStartDisabled: with no sink, Start must return the identical
// context (no WithValue allocation) and an inert span, at zero allocs.
func TestStartDisabled(t *testing.T) {
	SetSpanSink(nil)
	ctx := context.Background()
	got, sp := Start(ctx, "off")
	if got != ctx {
		t.Fatal("disabled Start derived a new context")
	}
	sp.SetAttr("k", 1)
	sp.End()
	if n := testing.AllocsPerRun(1000, func() {
		c, s := Start(ctx, "hot")
		_ = c
		s.End()
	}); n != 0 {
		t.Fatalf("disabled Start allocates %v per op", n)
	}
}

// TestNDJSONSinkRoundTrip: spans written through the sink must come back
// as one JSON object per line with the wire field names tracefile and
// qbeep-trace consume.
func TestNDJSONSinkRoundTrip(t *testing.T) {
	resetTraceIDs()
	var buf bytes.Buffer
	sink := NewNDJSONSink(&buf)
	SetSpanSink(sink)
	defer SetSpanSink(nil)

	ctx, root := Start(context.Background(), "pipeline")
	_, child := Start(ctx, "stage")
	child.SetAttr("items", 7)
	child.End()
	root.End()
	SetSpanSink(nil)
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	// End order: the child lands first.
	var rec struct {
		Name   string `json:"name"`
		Trace  uint64 `json:"trace"`
		Span   uint64 `json:"span"`
		Parent uint64 `json:"parent"`
		Start  string `json:"start"`
		Dur    int64  `json:"duration"`
		Attrs  []Attr `json:"attrs"`
	}
	if err := json.Unmarshal(lines[0], &rec); err != nil {
		t.Fatalf("line 0: %v", err)
	}
	if rec.Name != "stage" || rec.Trace != 1 || rec.Span != 2 || rec.Parent != 1 {
		t.Fatalf("child record = %+v", rec)
	}
	if rec.Start == "" || rec.Dur < 0 || len(rec.Attrs) != 1 {
		t.Fatalf("child record incomplete = %+v", rec)
	}
	rec.Parent = 0 // zero values are omitted on the wire; reset before reuse
	if err := json.Unmarshal(lines[1], &rec); err != nil {
		t.Fatalf("line 1: %v", err)
	}
	if rec.Name != "pipeline" || rec.Span != 1 || rec.Parent != 0 {
		t.Fatalf("root record = %+v", rec)
	}
}

func TestNDJSONSinkLatchesWriteError(t *testing.T) {
	sink := NewNDJSONSink(failWriter{})
	sink.OnSpan(SpanEvent{Name: "a"})
	if err := sink.Flush(); err == nil {
		t.Fatal("write error not latched")
	}
	if sink.Err() == nil {
		t.Fatal("Err() lost the latched error")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errFail }

var errFail = errAny("disk full")

type errAny string

func (e errAny) Error() string { return string(e) }

func TestSpanSinkConcurrent(t *testing.T) {
	var c CollectorSink
	SetSpanSink(&c)
	defer SetSpanSink(nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_, s := Start(context.Background(), "p")
				s.End()
			}
		}()
	}
	wg.Wait()
	if got := len(c.Events()); got != 8*200 {
		t.Fatalf("got %d events, want %d", got, 8*200)
	}
}
