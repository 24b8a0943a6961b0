// Package a exercises the ctxflow rules outside the module-root
// package: every Background()/TODO() root is flagged — wrapper shims
// included — and received contexts must be threaded.
package a

import "context"

type sampler struct{}

func (s *sampler) SampleCtx(ctx context.Context, n int) int { _ = ctx; return n }

func runCtx(ctx context.Context, n int) int { _ = ctx; return n }

// Sample has the Background-wrapper shim shape (non-Ctx name, root
// passed directly to the Ctx variant), which only the module-root
// package may use: here it is a context-free twin to delete.
func (s *sampler) Sample(n int) int {
	return s.SampleCtx(context.Background(), n) // want `context\.Background\(\) in a Background-wrapper shim outside the module-root package`
}

// Run is the same shim over a plain function.
func Run(n int) int {
	return runCtx(context.Background(), n) // want `context\.Background\(\) in a Background-wrapper shim outside the module-root package`
}

// stash assigns the root to a variable first — not a shim.
func stash(n int) int {
	ctx := context.Background() // want `context\.Background\(\) outside package main and outside a Background-wrapper shim`
	return runCtx(ctx, n)
}

// todoRoot mints a TODO root into a non-Ctx callee.
func todoRoot() context.Context {
	return context.TODO() // want `context\.TODO\(\) outside package main and outside a Background-wrapper shim`
}

// threaded receives a ctx but mints a fresh root anyway.
func threaded(ctx context.Context, n int) int {
	_ = ctx
	return runCtx(context.Background(), n) // want `context\.Background\(\) inside a function that receives a context`
}

// closureThreaded: the enclosing closure's ctx counts too.
func closureThreaded() func(context.Context) int {
	return func(ctx context.Context) int {
		_ = ctx
		return runCtx(context.Background(), 1) // want `context\.Background\(\) inside a function that receives a context`
	}
}

// DoubleCtx is itself a Ctx variant minting a root — it must accept
// one instead.
func DoubleCtx(n int) int {
	return runCtx(context.Background(), n) // want `context\.Background\(\) forwarded to a Ctx variant from "DoubleCtx"`
}

// allowed is a deliberate root carrying the audited escape hatch.
func allowed() context.Context {
	return context.Background() //qbeep:allow-ctx fixture: deliberate detached root
}
