// Package poolsafe guards the arena/scratch ownership discipline from
// PRs 7-8: types marked
//
//	//qbeep:pooled
//
// (scanScratch, stepScratch) own reusable buffers that cycle
// through worker pools, so an alias to one of their reference fields
// that outlives the borrow is a data race waiting for the next
// checkout. Two rules, both intraprocedural heuristics:
//
// poolretain — a reference field of a pooled value (slice, map,
// pointer, Dist) must not be retained past the frame: returning it,
// sending it on a channel, embedding it in a composite literal, storing
// it through an index or a foreign selector, or handing it to a raw
// goroutine are all flagged. Passing it as an ordinary call argument is
// a borrow and stays legal, as do plain local aliases (`hits := s.hits`
// ... `s.hits = hits`) and writes back into the same pooled value.
//
// poolreset — a value checked out of a pool (`s := <-pool`, or
// `s := p.Get().(*T)` from a sync.Pool) must be re-armed before use:
// some following statement in the same block has to call a Reset-like
// method on it or assign one of its fields (the `s.hits = s.hits[:0]`
// truncation idiom). A checkout with no such statement is flagged at
// the checkout site.
//
// //qbeep:allow-poolretain and //qbeep:allow-poolreset suppress
// deliberate violations with a rationale — the edgescan serial fast
// path, whose scratch is function-local and hands its buffer off
// without a copy, is the one sanctioned retention.
package poolsafe

import (
	"go/ast"
	"go/types"
	"strings"

	"qbeep/internal/analysis"
)

// Analyzer is the poolsafe checker.
var Analyzer = &analysis.Analyzer{
	Name: "poolsafe",
	Doc: "fields of //qbeep:pooled scratch types must not be retained past return or cross " +
		"goroutines, and pool checkouts must reset before reuse",
	Run: run,
}

func run(pass *analysis.Pass) error {
	pooled := pooledTypes(pass)
	if len(pooled) == 0 {
		return nil
	}
	for _, file := range pass.Files {
		parents := parentMap(file)
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if base, ok := pooledFieldAccess(pass, pooled, n); ok {
					checkRetention(pass, n, base, parents)
				}
			case *ast.AssignStmt:
				checkCheckout(pass, pooled, n, parents)
			}
			return true
		})
	}
	return nil
}

// pooledTypes collects the type names in this package marked
// //qbeep:pooled (on the TypeSpec or its enclosing GenDecl).
func pooledTypes(pass *analysis.Pass) map[types.Object]bool {
	pooled := make(map[types.Object]bool)
	mark := func(doc *ast.CommentGroup, spec *ast.TypeSpec) {
		if doc == nil {
			return
		}
		for _, c := range doc.List {
			if c.Text == "//qbeep:pooled" || strings.HasPrefix(c.Text, "//qbeep:pooled ") {
				if obj := pass.Info.Defs[spec.Name]; obj != nil {
					pooled[obj] = true
				}
			}
		}
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				mark(gd.Doc, ts)
				mark(ts.Doc, ts)
			}
		}
	}
	return pooled
}

// pooledFieldAccess reports whether sel is `v.f` where v's type (after
// one pointer deref) is a pooled type and f is a reference-carrying
// field. It returns the object of the base variable v.
func pooledFieldAccess(pass *analysis.Pass, pooled map[types.Object]bool, sel *ast.SelectorExpr) (types.Object, bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil, false
	}
	baseObj := pass.Info.Uses[id]
	if baseObj == nil {
		return nil, false
	}
	if !isPooledType(pooled, baseObj.Type()) {
		return nil, false
	}
	// Method values/calls are borrows, not field aliases.
	if s, ok := pass.Info.Selections[sel]; ok && s.Kind() != types.FieldVal {
		return nil, false
	}
	tv, ok := pass.Info.Types[sel]
	if !ok || !refType(tv.Type) {
		return nil, false
	}
	return baseObj, true
}

// isPooledType reports whether t (or its pointee) is a named pooled type.
func isPooledType(pooled map[types.Object]bool, t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && pooled[named.Obj()]
}

// refType reports whether t can alias shared storage.
func refType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map, *types.Pointer, *types.Chan, *types.Signature:
		return true
	}
	return false
}

// checkRetention classifies the syntactic context of one pooled-field
// access and reports the retaining ones.
func checkRetention(pass *analysis.Pass, sel *ast.SelectorExpr, base types.Object, parents map[ast.Node]ast.Node) {
	fieldName := sel.Sel.Name
	report := func(how string) {
		pass.Report(sel.Pos(), "poolretain",
			"%s.%s aliases a //qbeep:pooled buffer and is %s: copy it first, or keep the borrow inside the frame (//qbeep:allow-poolretain to override)",
			base.Name(), fieldName, how)
	}
	// Walk up through alias-preserving wrappers to the first node that
	// decides the value's fate.
	var child ast.Node = sel
	node := parents[sel]
	for {
		switch p := node.(type) {
		case *ast.ParenExpr:
			// transparent
		case *ast.SliceExpr:
			if p.X != child {
				return // an index bound, not the sliced value
			}
		case *ast.UnaryExpr:
			if p.Op.String() != "&" {
				return
			}
		case *ast.IndexExpr:
			// Reading an element; element-level retention is out of scope.
			return
		case *ast.SelectorExpr:
			// Deeper selection (method on the field, sub-field): a borrow.
			return
		case *ast.CallExpr:
			if p.Fun == child {
				return
			}
			// Ordinary call argument = borrow; an argument of a `go` call
			// crosses a goroutine boundary and is retention.
			if _, isGo := parents[p].(*ast.GoStmt); isGo {
				report("handed to a goroutine")
			}
			return
		case *ast.ReturnStmt:
			report("returned")
			return
		case *ast.SendStmt:
			if p.Value == child || containsNode(p.Value, sel) {
				report("sent on a channel")
			}
			return
		case *ast.CompositeLit:
			report("stored in a composite literal")
			return
		case *ast.KeyValueExpr:
			// inside a composite literal element
		case *ast.AssignStmt:
			if retainingAssign(pass, p, child, base) {
				report("assigned outside the pooled value")
			}
			return
		case *ast.BinaryExpr:
			// comparisons / arithmetic over the alias: a read
			return
		case *ast.RangeStmt, *ast.IfStmt, *ast.ForStmt, *ast.SwitchStmt,
			*ast.ExprStmt, *ast.IncDecStmt, *ast.TypeAssertExpr, nil:
			return
		default:
			return
		}
		child = node
		node = parents[node]
	}
}

// retainingAssign reports whether an assignment carrying the pooled
// field on its RHS stores it somewhere beyond a plain local or the
// pooled value itself.
func retainingAssign(pass *analysis.Pass, a *ast.AssignStmt, rhs ast.Node, base types.Object) bool {
	idx := -1
	for i, r := range a.Rhs {
		if r == rhs || containsNode(r, rhs) {
			idx = i
		}
	}
	if idx < 0 {
		return false
	}
	// With multi-assign the positions pair up; with a single RHS every
	// LHS receives from it.
	lhss := a.Lhs
	if len(a.Rhs) == len(a.Lhs) {
		lhss = a.Lhs[idx : idx+1]
	}
	for _, l := range lhss {
		switch lhs := l.(type) {
		case *ast.Ident:
			// A plain local (or blank) is a frame-scoped borrow; a
			// package-level variable outlives every checkout.
			obj := pass.Info.Uses[lhs]
			if obj == nil {
				obj = pass.Info.Defs[lhs]
			}
			if obj != nil && obj.Parent() == pass.Pkg.Scope() {
				return true
			}
		case *ast.SelectorExpr:
			if id, ok := lhs.X.(*ast.Ident); !ok || id.Name != base.Name() {
				return true // stored into a foreign struct
			}
		default:
			return true // index store, deref store, ...
		}
	}
	return false
}

// containsNode reports whether root's subtree contains target.
func containsNode(root ast.Node, target ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if n == target {
			found = true
		}
		return !found
	})
	return found
}

// checkCheckout flags pool checkouts with no reset before reuse.
func checkCheckout(pass *analysis.Pass, pooled map[types.Object]bool, a *ast.AssignStmt, parents map[ast.Node]ast.Node) {
	if len(a.Lhs) != 1 || len(a.Rhs) != 1 {
		return
	}
	id, ok := a.Lhs[0].(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	if !isCheckout(pass, pooled, a.Rhs[0]) {
		return
	}
	obj := pass.Info.Defs[id]
	if obj == nil {
		obj = pass.Info.Uses[id]
	}
	if obj == nil {
		return
	}
	block, ok := parents[a].(*ast.BlockStmt)
	if !ok {
		return
	}
	after := false
	for _, stmt := range block.List {
		if stmt == ast.Stmt(a) {
			after = true
			continue
		}
		if after && resetsVar(pass, stmt, obj) {
			return
		}
	}
	pass.Report(a.Pos(), "poolreset",
		"%s is checked out of a pool without a reset: call its Reset method or truncate its buffers (e.g. %s.buf = %s.buf[:0]) before reuse (//qbeep:allow-poolreset to override)",
		id.Name, id.Name, id.Name)
}

// isCheckout reports whether rhs pulls a pooled value out of a pool:
// a channel receive of a pooled pointer or a sync.Pool Get assertion.
func isCheckout(pass *analysis.Pass, pooled map[types.Object]bool, rhs ast.Expr) bool {
	switch e := rhs.(type) {
	case *ast.UnaryExpr:
		if e.Op.String() != "<-" {
			return false
		}
		tv, ok := pass.Info.Types[e]
		return ok && isPooledType(pooled, tv.Type)
	case *ast.TypeAssertExpr:
		tv, ok := pass.Info.Types[e]
		if !ok || !isPooledType(pooled, tv.Type) {
			return false
		}
		call, ok := e.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "Get"
	}
	return false
}

// resetsVar reports whether stmt re-arms obj: a method call on it whose
// name mentions Reset/ensure, or an assignment into one of its fields.
func resetsVar(pass *analysis.Pass, stmt ast.Stmt, obj types.Object) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
					name := strings.ToLower(sel.Sel.Name)
					if strings.Contains(name, "reset") || strings.Contains(name, "ensure") {
						found = true
					}
				}
			}
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				if sel, ok := l.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}

// parentMap records each node's enclosing node.
func parentMap(file *ast.File) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}
