package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"a1/internal/lint/analysis"
)

// Release is a CFG-based leak check for the resources whose lifetime the
// engine manages by hand: a *query.Rows cursor (open continuation state —
// owner-side pages and fetch slots — pinned until Close), an update
// transaction from farm.CreateTransaction (slot reservations held until
// Commit or Abort) and a pinned read transaction from
// farm.CreatePinnedReadTransaction (a snapshot pin, which keeps every
// version the snapshot can see from being reclaimed, held until Commit or
// Abort). A function that acquires any of them must, on every
// control-flow path out of the function, release it, hand it off, or
// crash; a path that reaches the function exit with the resource still
// held is reported at the acquisition site.
//
// Path analysis runs on the function's control-flow graph. A path is
// safe when the resource is released (Close for cursors, Commit/Abort
// for transactions — deferred or direct), escapes (returned, passed as
// an argument, stored through a non-local lvalue, or captured by a
// function literal that does anything but release it), or is reassigned
// (the new value is tracked as its own acquisition). Error paths are
// pruned by the Go convention that a non-nil error means the other
// results are zero: after `x, err := acquire(...)`, branches where
// err != nil (or x == nil) hold nothing to release. Panic paths are
// exempt — deferred releases still run, and direct ones never could.
// Unpinned read transactions (farm.CreateReadTransaction and
// CreateReadTransactionAt) hold nothing — a version sweep retires their
// snapshot — and are not tracked.
var Release = &analysis.Analyzer{
	Name: "a1/release",
	Doc: "acquired *query.Rows cursors, farm update transactions and pinned read " +
		"transactions must reach Close / Commit-or-Abort on every path, or escape to the caller",
	Run: runRelease,
}

// acquisition is one tracked resource: the local variable holding it,
// the sibling error variable from the same assignment (for error-path
// pruning), and the method names that release it.
type acquisition struct {
	obj     types.Object
	errObj  types.Object
	release map[string]bool
	kind    string // "cursor", "transaction" or "read transaction"
	held    string // what a leak keeps held
}

var rowsRelease = map[string]bool{"Close": true}
var txRelease = map[string]bool{"Commit": true, "Abort": true}

func runRelease(pass *analysis.Pass) error {
	pkg := pass.Pkg
	info := pkg.TypesInfo
	eachFunc(pkg, func(name string, decl ast.Node, body *ast.BlockStmt) {
		checkReleaseUnit(pass, info, name, body)
		// Function literals are separate units with their own CFG; an
		// acquisition inside one must resolve inside it (or escape).
		ast.Inspect(body, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				checkReleaseUnit(pass, info, name+" (func literal)", fl.Body)
			}
			return true
		})
	})
	return nil
}

func checkReleaseUnit(pass *analysis.Pass, info *types.Info, name string, body *ast.BlockStmt) {
	cfg := analysis.BuildCFG(body, info)
	for _, b := range cfg.Blocks {
		for i, n := range b.Nodes {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 {
				continue
			}
			call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
			if !ok {
				continue
			}
			acq := classifyAcquisition(info, as, call)
			if acq == nil {
				continue
			}
			if leakFrom(info, cfg, b, i+1, acq) {
				verb := "reach Close"
				if acq.kind != "cursor" {
					verb = "reach Commit or Abort"
				}
				pass.Reportf(call.Pos(),
					"%s %q acquired in %s does not %s on every path: %s; "+
						"defer the release right after the error check, release before "+
						"each early return, or hand the resource to the caller",
					acq.kind, acq.obj.Name(), name, verb, acq.held)
			}
		}
	}
}

// classifyAcquisition recognizes `x(, err) := <call>` forms that acquire
// a tracked resource into a plain local variable. Assignments through
// fields, indexes, or the blank identifier are not tracked (stores
// through non-local lvalues are hand-offs; discards are a different,
// rarer bug this analyzer does not chase).
func classifyAcquisition(info *types.Info, as *ast.AssignStmt, call *ast.CallExpr) *acquisition {
	// Any call may return a cursor; only the farm constructors return a
	// tracked transaction.
	acq := &acquisition{
		release: rowsRelease, kind: "cursor",
		held: "an open cursor pins owner-side pages and fetch-slot continuation state until closed",
	}
	typePkg, typeName := queryPath, "Rows"
	if fn := analysis.StaticCallee(info, call); fn != nil && funcPkgPath(fn) == farmPath {
		switch fn.Name() {
		case "CreateTransaction":
			acq.release, acq.kind = txRelease, "transaction"
			acq.held = "an unresolved transaction holds its slot reservations and blocks later allocations"
			typePkg, typeName = farmPath, "Tx"
		case "CreatePinnedReadTransaction":
			acq.release, acq.kind = txRelease, "read transaction"
			acq.held = "its snapshot pin keeps every version the snapshot can see from being reclaimed"
			typePkg, typeName = farmPath, "Tx"
		}
	}
	for _, l := range as.Lhs {
		id, ok := ast.Unparen(l).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			continue
		}
		switch {
		case acq.obj == nil && isNamedType(obj.Type(), typePkg, typeName):
			acq.obj = obj
		case types.Identical(obj.Type(), types.Universe.Lookup("error").Type()):
			acq.errObj = obj
		}
	}
	if acq.obj == nil {
		return nil
	}
	return acq
}

// leakFrom walks every CFG path from the acquisition and reports whether
// some path reaches the function exit with the resource still held.
func leakFrom(info *types.Info, cfg *analysis.CFG, start *analysis.Block, startIdx int, acq *acquisition) bool {
	visited := map[*analysis.Block]bool{start: true}
	var walk func(b *analysis.Block, idx int) bool
	walk = func(b *analysis.Block, idx int) bool {
		for i := idx; i < len(b.Nodes); i++ {
			if pathResolves(info, b.Nodes[i], acq) {
				return false
			}
		}
		if b == cfg.Exit {
			return true
		}
		if b.Panics {
			return false // crash path: deferred releases run, direct ones never could
		}
		succs := b.Succs
		if len(succs) == 2 && len(b.Nodes) > 0 {
			if only, ok := pruneBranch(info, b.Nodes[len(b.Nodes)-1], acq); ok {
				succs = succs[only : only+1]
			}
		}
		for _, s := range succs {
			if visited[s] {
				continue
			}
			visited[s] = true
			if walk(s, 0) {
				return true
			}
		}
		return false
	}
	return walk(start, startIdx)
}

// pathResolves reports whether executing node n settles the resource's
// fate: releases it, escapes it, or reassigns the variable.
func pathResolves(info *types.Info, n ast.Node, acq *acquisition) bool {
	// Release: a release-method call on the variable anywhere in the
	// node, including inside defer statements and function literals.
	released := false
	ast.Inspect(n, func(c ast.Node) bool {
		call, ok := c.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(sel.X).(*ast.Ident)
		if ok && info.Uses[id] == acq.obj && acq.release[sel.Sel.Name] {
			released = true
			return false
		}
		return true
	})
	if released {
		return true
	}

	// Reassignment: the variable gets a new value; the old one's fate
	// was settled before this statement (or this is itself a fresh
	// acquisition, tracked separately).
	if as, ok := n.(*ast.AssignStmt); ok {
		for _, l := range as.Lhs {
			if id, ok := ast.Unparen(l).(*ast.Ident); ok && info.Uses[id] == acq.obj {
				return true
			}
		}
	}

	// Escape: the bare variable is used as anything but a method/field
	// receiver or a nil-comparison operand — returned, passed as an
	// argument, stored, sent, or captured. Conservatively safe: the new
	// holder owns the release.
	neutral := map[*ast.Ident]bool{}
	ast.Inspect(n, func(c ast.Node) bool {
		switch x := c.(type) {
		case *ast.SelectorExpr:
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
				neutral[id] = true
			}
		case *ast.BinaryExpr:
			if x.Op == token.EQL || x.Op == token.NEQ {
				if isNilExpr(info, x.X) {
					if id, ok := ast.Unparen(x.Y).(*ast.Ident); ok {
						neutral[id] = true
					}
				}
				if isNilExpr(info, x.Y) {
					if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
						neutral[id] = true
					}
				}
			}
		}
		return true
	})
	escaped := false
	ast.Inspect(n, func(c ast.Node) bool {
		if id, ok := c.(*ast.Ident); ok && !neutral[id] && info.Uses[id] == acq.obj {
			escaped = true
			return false
		}
		return true
	})
	return escaped
}

// pruneBranch inspects a two-successor block's final condition: when it
// tests the acquisition's error or the resource against nil, only one
// branch can hold the live resource. Returns the index of that branch
// (Succs[0] is the true branch) and whether pruning applies.
func pruneBranch(info *types.Info, last ast.Node, acq *acquisition) (int, bool) {
	expr, ok := last.(ast.Expr)
	if !ok {
		return 0, false
	}
	bin, ok := ast.Unparen(expr).(*ast.BinaryExpr)
	if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
		return 0, false
	}
	var id *ast.Ident
	switch {
	case isNilExpr(info, bin.Y):
		id, _ = ast.Unparen(bin.X).(*ast.Ident)
	case isNilExpr(info, bin.X):
		id, _ = ast.Unparen(bin.Y).(*ast.Ident)
	}
	if id == nil {
		return 0, false
	}
	eq := bin.Op == token.EQL
	switch info.Uses[id] {
	case nil:
		return 0, false
	case acq.errObj:
		// err == nil: the resource is live only on the true branch.
		// err != nil: live only on the false branch (Go convention: a
		// non-nil error means the other results are zero values).
		if eq {
			return 0, true
		}
		return 1, true
	case acq.obj:
		// x == nil: nothing to release on the true branch.
		if eq {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

func isNilExpr(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name != "nil" {
		return false
	}
	if info == nil {
		return true
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}
