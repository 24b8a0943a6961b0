// Package ctxflow enforces the context-plumbing convention from
// DESIGN.md §10: context.Background() and context.TODO() are roots that
// detach work from cancellation, so they may only be minted at the
// process edge. Inside the library every operation has one function,
// the one taking a ctx; the public module-root package (qbeep) alone
// keeps context-free convenience functions, each a documented
// Background-wrapper shim — a non-Ctx function that hands the fresh
// root straight to a Ctx variant:
//
//	func Mitigate(counts Counts, lambda float64, opts Options) (Counts, error) {
//	    return MitigateCtx(context.Background(), counts, lambda, opts)
//	}
//
// Everything else is a flag: the same shim anywhere under internal/ (a
// context-free twin re-added beside its Ctx variant), a Background()
// minted inside a function that already receives a context (it must
// thread the received ctx through), a Background() assigned to a
// variable or passed to a non-Ctx callee (cancellation silently severed
// mid-pipeline), or a Ctx-suffixed function minting its own root.
// Package main (the cmd/ binaries) is the process edge and is exempt
// wholesale; test files are never loaded by the driver.
//
// //qbeep:allow-ctx suppresses a deliberate root with a rationale —
// the obs debug-server shutdown deadline and qasm.Parse (kept
// context-free for the end-to-end benchmark harness) are the two
// sanctioned cases.
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"qbeep/internal/analysis"
)

// RootPackage is the import path of the module-root package, the only
// library package whose Background-wrapper shims are accepted.
const RootPackage = "qbeep"

// Analyzer is the ctxflow checker.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "context.Background()/TODO() only at the process edge (package main) or, in the module-root " +
		"package, as the direct argument of a Background-wrapper shim forwarding to the Ctx variant; " +
		"functions that receive a context must thread it through",
	Run: run,
}

// funcFrame is one entry in the lexical function stack during the walk.
type funcFrame struct {
	name   string // declared name; "" for function literals
	hasCtx bool   // declares a context.Context parameter
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	for _, file := range pass.Files {
		var stack []funcFrame
		// parent tracks each node's enclosing node so a Background() call
		// can see whether it is a direct call argument; the explicit walk
		// (ast.Inspect cannot say which node a post-order visit exits)
		// keeps the function stack accurate.
		parent := make(map[ast.Node]ast.Node)
		walk(pass, file, &stack, parent)
	}
	return nil
}

// walk descends the AST keeping the function stack and parent links
// accurate.
func walk(pass *analysis.Pass, n ast.Node, stack *[]funcFrame, parent map[ast.Node]ast.Node) {
	switch fn := n.(type) {
	case *ast.FuncDecl:
		*stack = append(*stack, funcFrame{name: fn.Name.Name, hasCtx: hasCtxParam(pass, fn.Type)})
		defer func() { *stack = (*stack)[:len(*stack)-1] }()
	case *ast.FuncLit:
		*stack = append(*stack, funcFrame{hasCtx: hasCtxParam(pass, fn.Type)})
		defer func() { *stack = (*stack)[:len(*stack)-1] }()
	case *ast.CallExpr:
		if which := backgroundOrTODO(pass, fn); which != "" {
			checkRoot(pass, fn, which, *stack, parent)
		}
	}
	children := childNodes(n)
	for _, c := range children {
		parent[c] = n
		walk(pass, c, stack, parent)
	}
}

// checkRoot decides whether one context.Background()/TODO() call is the
// sanctioned wrapper-shim shape in the module-root package.
func checkRoot(pass *analysis.Pass, call *ast.CallExpr, which string, stack []funcFrame, parent map[ast.Node]ast.Node) {
	// Received-context rule: any enclosing function (closure or decl)
	// already holding a ctx must thread it, never mint a root.
	for _, f := range stack {
		if f.hasCtx {
			pass.Report(call.Pos(), "ctx",
				"context.%s() inside a function that receives a context: thread the received ctx through (//qbeep:allow-ctx to override)", which)
			return
		}
	}
	// Wrapper-shim rule: the root must be a direct argument of a call to
	// a Ctx-suffixed callee, from a non-Ctx-suffixed named function in
	// the module-root package.
	encl := ""
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i].name != "" {
			encl = stack[i].name
			break
		}
	}
	if outer, ok := parent[call].(*ast.CallExpr); ok && strings.HasSuffix(calleeName(outer), "Ctx") {
		if encl != "" && !strings.HasSuffix(encl, "Ctx") {
			if pass.Pkg.Path() == RootPackage {
				return // the documented Background-wrapper shim
			}
			pass.Report(call.Pos(), "ctx",
				"context.%s() in a Background-wrapper shim outside the module-root package: keep only the Ctx variant and thread the caller's ctx (//qbeep:allow-ctx to override)", which)
			return
		}
		pass.Report(call.Pos(), "ctx",
			"context.%s() forwarded to a Ctx variant from %q, which is itself a Ctx variant: accept and thread a ctx parameter instead (//qbeep:allow-ctx to override)", which, encl)
		return
	}
	pass.Report(call.Pos(), "ctx",
		"context.%s() outside package main and outside a Background-wrapper shim: accept a ctx parameter (//qbeep:allow-ctx to override)", which)
}

// backgroundOrTODO returns "Background" or "TODO" when call is that
// context-package root constructor, else "".
func backgroundOrTODO(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pkgName, ok := pass.Info.Uses[id].(*types.PkgName)
	if !ok || pkgName.Imported().Path() != "context" {
		return ""
	}
	return sel.Sel.Name
}

// calleeName extracts the bare called-function name from a call
// expression: f(...) → "f", recv.Method(...) → "Method".
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// hasCtxParam reports whether the signature declares a parameter of
// type context.Context.
func hasCtxParam(pass *analysis.Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		tv, ok := pass.Info.Types[field.Type]
		if !ok {
			continue
		}
		named, ok := tv.Type.(*types.Named)
		if !ok {
			continue
		}
		obj := named.Obj()
		if obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context" {
			return true
		}
	}
	return false
}

// childNodes lists a node's direct children in source order.
func childNodes(n ast.Node) []ast.Node {
	var out []ast.Node
	ast.Inspect(n, func(c ast.Node) bool {
		if c == nil {
			return false
		}
		if c == n {
			return true
		}
		out = append(out, c)
		return false // direct children only; walk recurses itself
	})
	return out
}
