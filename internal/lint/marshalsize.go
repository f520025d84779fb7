package lint

import (
	"go/ast"
	"go/types"

	"a1/internal/lint/analysis"
)

// MarshalSize flags byte accounting done through throwaway encodings: the
// hot-path allocation work gave bond zero-allocation sizing and in-place
// appending (bond.MarshalSize, bond.AppendMarshal), so taking len() of a
// fresh bond.Marshal buffer, or splicing one into another buffer with
// append(b, bond.Marshal(v)...), allocates an encoding only to discard
// it. Wire sizing (Row.wireBytes, group-state working-set charges) sits
// on the per-row query path, where that garbage is exactly what the
// allocs bench report is meant to keep out.
//
// The check is interprocedural: a helper whose every return is itself a
// fresh bond.Marshal encoding (directly or through another such helper)
// is summarized bottom-up, so len(helper(v)) and append(b, helper(v)...)
// are flagged with the chain to the primitive named in the message. The
// bond package itself is exempt — it implements the sizing primitives.
var MarshalSize = &analysis.Analyzer{
	Name: "a1/marshalsize",
	Doc: "sizing or splicing a throwaway bond.Marshal buffer must use " +
		"bond.MarshalSize / bond.AppendMarshal instead",
	RunProgram: runMarshalSize,
}

func runMarshalSize(pass *analysis.Pass) error {
	prog := pass.Program

	// isMarshal classifies a direct call of the allocating encoder.
	isMarshal := func(fn *types.Func) bool {
		return funcPkgPath(fn) == bondPath && fn.Name() == "Marshal"
	}

	// fresh maps a function every return of which is a freshly allocated
	// bond.Marshal encoding to the call path down to the primitive.
	fresh := map[*types.Func]string{}

	// freshCall resolves a call expression that returns a fresh Marshal
	// encoding: the primitive itself, or a wrapper in fresh. The second
	// result is the chain for the diagnostic.
	freshCall := func(info *types.Info, e ast.Expr) (*types.Func, string, bool) {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok {
			return nil, "", false
		}
		fn := analysis.StaticCallee(info, call)
		if fn == nil {
			return nil, "", false
		}
		if isMarshal(fn) {
			return fn, "", true
		}
		if chain, ok := fresh[fn]; ok && funcPkgPath(fn) != bondPath {
			return fn, chain, true
		}
		return nil, "", false
	}

	// Bottom-up, so wrapper-of-wrapper chains resolve. A function is a
	// fresh-Marshal source when it has at least one return and every
	// return's single result is a fresh-Marshal call. Returns inside
	// nested function literals belong to the literal, not the
	// declaration, and are skipped.
	analysis.BottomUp(prog.CallGraph(), func(n *analysis.CallNode) bool {
		if _, done := fresh[n.Func]; done || n.Pkg.Path == bondPath {
			return false
		}
		chain := ""
		for _, ret := range ownReturns(n.Decl.Body) {
			if len(ret.Results) != 1 {
				return false
			}
			callee, sub, ok := freshCall(n.Pkg.TypesInfo, ret.Results[0])
			if !ok {
				return false
			}
			chain = calleeLabel(callee)
			if sub != "" {
				chain = callee.Name() + " → " + sub
			}
		}
		if chain == "" {
			return false
		}
		fresh[n.Func] = chain
		return true
	})

	// Report: len() and append(..., x...) over fresh encodings.
	for _, pkg := range prog.Packages {
		if pkg.Path == bondPath {
			continue
		}
		info := pkg.TypesInfo
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				id, ok := ast.Unparen(call.Fun).(*ast.Ident)
				if !ok || info.Uses[id] != types.Universe.Lookup(id.Name) {
					return true
				}
				switch {
				case id.Name == "len" && len(call.Args) == 1:
					fn, chain, ok := freshCall(info, call.Args[0])
					if !ok {
						return true
					}
					if chain == "" {
						pass.Reportf(call.Pos(),
							"len(bond.Marshal(v)) allocates an encoding only to measure it; "+
								"use bond.MarshalSize(v)")
					} else {
						pass.Reportf(call.Pos(),
							"len() of a fresh encoding from %s (%s → %s) allocates it only to "+
								"measure it; size with bond.MarshalSize instead",
							fn.Name(), fn.Name(), chain)
					}
				case id.Name == "append" && call.Ellipsis.IsValid() && len(call.Args) == 2:
					fn, chain, ok := freshCall(info, call.Args[1])
					if !ok {
						return true
					}
					if chain == "" {
						pass.Reportf(call.Pos(),
							"append(b, bond.Marshal(v)...) allocates an intermediate encoding; "+
								"use b = bond.AppendMarshal(b, v)")
					} else {
						pass.Reportf(call.Pos(),
							"append of a fresh encoding from %s (%s → %s) allocates an "+
								"intermediate buffer; encode in place with bond.AppendMarshal",
							fn.Name(), fn.Name(), chain)
					}
				}
				return true
			})
		}
	}
	return nil
}

// ownReturns collects the return statements belonging to the function
// body itself, excluding those inside nested function literals.
func ownReturns(body *ast.BlockStmt) []*ast.ReturnStmt {
	var out []*ast.ReturnStmt
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			out = append(out, x)
		}
		return true
	})
	return out
}
