package experiments

import (
	"bytes"
	"context"
	"testing"

	"qbeep/internal/obs"
	"qbeep/internal/runledger"
)

// TestTracedFigureIsOneTree: a traced figure run is one span tree.
// Under a qbeep.experiments root, as cmd/qbeep-experiments opens it,
// each runner's experiments.figure span is a child of the root; every
// span its workloads open — across the par fan-out, the transpiler
// passes, the simulator and the mitigation loop — resolves its parent
// inside that one trace; and every run-ledger record carries the trace's
// ID, so records join to it. Fig. 10 at scale 0.1 is the run the figure
// runners used to split into over a thousand separate roots; Fig. 1
// follows it because Fig. 10 appends no ledger records.
func TestTracedFigureIsOneTree(t *testing.T) {
	resetQualitySamples()
	var ledger bytes.Buffer
	obs.SetRunLedger(runledger.NewWriter(&ledger))
	defer obs.SetRunLedger(nil)
	var sink obs.CollectorSink
	obs.SetSpanSink(&sink)
	defer obs.SetSpanSink(nil)

	cfg := DefaultConfig()
	cfg.Scale = 0.1
	ctx, root := obs.Start(context.Background(), "qbeep.experiments")
	if _, err := Figure10(ctx, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := Figure1(ctx, cfg); err != nil {
		t.Fatal(err)
	}
	root.End()
	obs.SetSpanSink(nil)
	obs.SetRunLedger(nil)

	spans := sink.Events()
	if len(spans) == 0 {
		t.Fatal("traced figure run emitted no spans")
	}
	trace := spans[0].TraceID
	ids := make(map[uint64]bool, len(spans))
	for _, e := range spans {
		if e.TraceID != trace {
			t.Fatalf("span %s in trace %d, want a single trace %d", e.Name, e.TraceID, trace)
		}
		ids[e.SpanID] = true
	}
	var roots, figures []obs.SpanEvent
	unresolved := 0
	for _, e := range spans {
		switch {
		case e.ParentID == 0:
			roots = append(roots, e)
		case !ids[e.ParentID]:
			unresolved++
		}
		if e.Name == "experiments.figure" {
			figures = append(figures, e)
		}
	}
	if len(roots) != 1 || unresolved != 0 {
		t.Fatalf("%d spans: %d roots, %d unresolved parents; want 1 root, 0 unresolved", len(spans), len(roots), unresolved)
	}
	if roots[0].Name != "qbeep.experiments" {
		t.Fatalf("root span = %s, want qbeep.experiments", roots[0].Name)
	}
	if len(figures) != 2 {
		t.Fatalf("%d experiments.figure spans, want 2", len(figures))
	}
	for i, id := range []string{"10", "1"} {
		f := figures[i]
		if f.ParentID != roots[0].SpanID || len(f.Attrs) != 1 || f.Attrs[0] != (obs.Attr{Key: "id", Value: id}) {
			t.Fatalf("figure span %d: parent %d attrs %+v, want child of the root with id=%s", i, f.ParentID, f.Attrs, id)
		}
	}

	recs, err := runledger.Read(&ledger)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("traced figure run appended no ledger records")
	}
	for _, r := range recs {
		if r.TraceID != trace {
			t.Fatalf("ledger record %d (%s on %s) has trace %d, want %d", r.Seq, r.Circuit, r.Backend, r.TraceID, trace)
		}
	}
}
