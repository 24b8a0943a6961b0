// Package a exercises the span lifecycle checker on the two-value
// obs.Start(ctx, name) form.
package a

import (
	"context"
	"errors"

	"obs"
)

var errFail = errors.New("fail")

func leakNoEnd(ctx context.Context) {
	ctx, sp := obs.Start(ctx, "leak") // want `never ended`
	sp.SetAttr("k", 1)
	_ = ctx
}

func leakEarlyReturn(ctx context.Context, fail bool) error {
	_, sp := obs.Start(ctx, "early")
	if fail {
		return errFail // want `return without ending span`
	}
	sp.End()
	return nil
}

func discardedStmt(ctx context.Context) {
	obs.Start(ctx, "discard") // want `discarded`
}

func discardedBlank(ctx context.Context) {
	_, _ = obs.Start(ctx, "blank") // want `discarded`
}

func okDefer(ctx context.Context, fail bool) error {
	ctx, sp := obs.Start(ctx, "defer")
	defer sp.End()
	_ = ctx
	if fail {
		return errFail
	}
	return nil
}

func okDeferClosure(ctx context.Context, fail bool) error {
	_, sp := obs.Start(ctx, "closure")
	defer func() {
		sp.SetAttr("failed", fail)
		sp.End()
	}()
	if fail {
		return errFail
	}
	return nil
}

func okStraightLine(ctx context.Context) {
	_, sp := obs.Start(ctx, "line")
	sp.SetAttr("k", 2)
	sp.End()
}

func okEndBeforeEveryReturn(ctx context.Context, fail bool) error {
	_, sp := obs.Start(ctx, "explicit")
	if fail {
		sp.End()
		return errFail
	}
	sp.End()
	return nil
}

func allowedLeak(ctx context.Context) {
	_, sp := obs.Start(ctx, "handed-off") //qbeep:allow-spanleak fixture: deliberately leaked
	sp.SetAttr("k", 3)
}

// escaping spans are the callee's responsibility, not flagged here.
func escapes(ctx context.Context) obs.Span {
	_, sp := obs.Start(ctx, "escape")
	return sp
}

func passedAlong(ctx context.Context, finish func(obs.Span)) {
	_, sp := obs.Start(ctx, "passed")
	finish(sp)
}

// The flags helper is a method named Start returning no span: not ours.
func notASpanStart(f *obs.TraceFlags) error {
	stop, err := f.Start()
	if err != nil {
		return err
	}
	return stop()
}

// --- resource-capture era idioms: per-iteration child spans, worker
// attribute stamping, branch-dependent endings ---

// The mitigation loop's shape: each round opens a child span inside a
// closure whose body is a straight start → attrs → End line. The
// closure is its own scope, so the outer loop does not confuse the
// checker.
func okIterClosure(ctx context.Context, n int) {
	iterate := func(i int) {
		_, isp := obs.Start(ctx, "iter")
		isp.SetAttr("iteration", i)
		isp.End()
	}
	for i := 0; i < n; i++ {
		iterate(i)
	}
}

// The par worker's shape: busy/idle accounting stamped between the last
// task and End.
func okWorkerStamping(ctx context.Context, busy int64) {
	_, wsp := obs.Start(ctx, "worker")
	wsp.SetAttr("busy_ns", busy)
	wsp.SetAttr("idle_ns", int64(0))
	wsp.End()
}

// Ending only inside one branch leaves the fall-through return leaking.
func leakBranchOnly(ctx context.Context, fail bool) error {
	_, sp := obs.Start(ctx, "branch")
	if fail {
		sp.End()
		return errFail
	}
	return nil // want `return without ending span`
}

// A span whose End is captured as a method value escapes — lifetime is
// whoever calls the finisher, deliberately not flagged.
func okMethodValueEscape(ctx context.Context, schedule func(func())) {
	_, sp := obs.Start(ctx, "handoff")
	schedule(sp.End)
}
