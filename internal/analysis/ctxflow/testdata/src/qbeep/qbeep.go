// Package qbeep stands in for the module-root package, whose public
// context-free convenience functions are Background-wrapper shims over
// their Ctx variants: none of them is flagged.
package qbeep

import "context"

type executor struct{}

func (e *executor) ExecuteCtx(ctx context.Context, n int) int { _ = ctx; return n }

// MitigateCtx is the context-carrying operation.
func MitigateCtx(ctx context.Context, n int) int { _ = ctx; return n }

// Mitigate is the convenience shim over MitigateCtx.
func Mitigate(n int) int {
	return MitigateCtx(context.Background(), n)
}

// Simulate forwards a fresh root straight into an internal Ctx method.
func Simulate(e *executor, n int) int {
	return e.ExecuteCtx(context.Background(), n)
}
