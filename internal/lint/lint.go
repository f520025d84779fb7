// Package lint holds the engine's project-specific static analyzers: the
// distributed-correctness contracts the codebase relies on — deterministic
// coordinator merges, the paper's local/remote access gap priced into lock
// and read discipline, a single global lock-acquisition order, and byte
// accounting without throwaway encodings — expressed as build failures
// instead of prose. The checks are interprocedural where the contract
// demands it, built on the call graph and bottom-up pass in
// internal/lint/analysis. See docs/lint.md for the contract behind each
// analyzer, the suppression policy, and the leak checks that run in the
// tests instead.
package lint

import (
	"go/ast"
	"go/types"

	"a1/internal/lint/analysis"
)

const (
	corePath   = "a1/internal/core"
	farmPath   = "a1/internal/farm"
	fabricPath = "a1/internal/fabric"
	queryPath  = "a1/internal/query"
	bondPath   = "a1/internal/bond"
)

// All returns every analyzer in the suite, in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		MapOrder,
		Locks,
		BatchReads,
		MarshalSize,
	}
}

// ByName returns the named analyzers (names without the "a1/" prefix are
// accepted too); unknown names return false.
func ByName(names []string) ([]*analysis.Analyzer, bool) {
	var out []*analysis.Analyzer
	for _, n := range names {
		found := false
		for _, a := range All() {
			if a.Name == n || a.Name == "a1/"+n {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, false
		}
	}
	return out, true
}

// funcPkgPath returns the import path of fn's defining package ("" for
// builtins and universe-scope objects).
func funcPkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// namedOrAlias resolves t through pointers and aliases to its named type;
// nil when t has no name (struct literals, builtins, ...).
func namedOrAlias(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

// isNamedType reports whether t (through pointers and aliases) is the
// named type pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	n := namedOrAlias(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == name
}

// rootIdent peels selectors and index expressions off an lvalue and
// returns its base identifier (x for x.f.g[i]); nil for anything else.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// usesObject reports whether the subtree rooted at n mentions obj.
func usesObject(info *types.Info, n ast.Node, obj types.Object) bool {
	if n == nil || obj == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if found {
			return false
		}
		if id, ok := c.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return true
	})
	return found
}

// eachFunc passes the body of every function declaration in the package
// to fn; function literals are visited as part of their declaration's body.
func eachFunc(pkg *analysis.Package, fn func(body *ast.BlockStmt)) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn(fd.Body)
		}
	}
}
