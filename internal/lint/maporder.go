package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"a1/internal/lint/analysis"
)

// MapOrder enforces the determinism contract behind byte-identical
// distributed merges (PR 5's tie parity) and stable plan structure: in
// internal/query and internal/bond, iterating a Go map must never decide
// anything output-visible. Two nondeterminism shapes are flagged:
//
//  1. appending to a slice that escapes the function (returned, or a
//     struct field) in map-iteration order, with no subsequent sort of
//     that slice in the same function — rows, group keys, predicates, and
//     encoded output built this way differ run to run;
//  2. returning from inside the loop with a value that mentions the loop
//     variables — "which key is visited first" picks the result (classic:
//     error messages naming an arbitrary unknown key).
//
// Iterations that only fill other maps, count, or accumulate
// commutatively are not flagged. The fix is almost always the same: pull
// the keys out, sort them, iterate the sorted slice.
var MapOrder = &analysis.Analyzer{
	Name: "a1/maporder",
	Doc: "map iteration order must not reach rows, group emission, sort keys, " +
		"continuation tokens, or encoded output",
	Run: runMapOrder,
}

func runMapOrder(pass *analysis.Pass) error {
	pkg := pass.Pkg
	if pkg.Path != queryPath && pkg.Path != bondPath {
		return nil
	}
	info := pkg.TypesInfo
	eachFunc(pkg, func(body *ast.BlockStmt) {
		ast.Inspect(body, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := info.Types[rs.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			checkMapRange(pass, info, body, rs)
			return true
		})
	})
	return nil
}

func checkMapRange(pass *analysis.Pass, info *types.Info, funcBody *ast.BlockStmt, rs *ast.RangeStmt) {
	mapName := types.ExprString(rs.X)

	// Loop variable objects, for the return-inside-loop rule.
	var loopVars []types.Object
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := info.Defs[id]; obj != nil {
				loopVars = append(loopVars, obj)
			}
		}
	}

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range stmt.Results {
				for _, lv := range loopVars {
					if usesObject(info, res, lv) {
						pass.Reportf(stmt.Pos(),
							"return inside iteration over map %s uses loop variable %s: "+
								"which key is visited first is nondeterministic; iterate sorted keys",
							mapName, lv.Name())
						return true
					}
				}
			}
		case *ast.AssignStmt:
			if len(stmt.Rhs) != 1 || len(stmt.Lhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(stmt.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" || info.Uses[id] != types.Universe.Lookup("append") {
				return true
			}
			lhs := ast.Unparen(stmt.Lhs[0])
			root := rootIdent(lhs)
			if root == nil {
				return true
			}
			obj := info.Uses[root]
			if obj == nil {
				obj = info.Defs[root]
			}
			if obj == nil {
				return true
			}
			_, isSelector := lhs.(*ast.SelectorExpr)
			if !isSelector && !appearsInReturn(info, funcBody, obj) {
				return true // purely local accumulation (e.g. a worklist)
			}
			if sortedAfter(info, funcBody, rs.End(), obj) {
				return true
			}
			pass.Reportf(stmt.Pos(),
				"%s is appended to in iteration order of map %s and escapes without a "+
					"subsequent sort: emitted order is nondeterministic (tie-parity contract); "+
					"sort the keys before iterating, or sort %s afterwards",
				types.ExprString(lhs), mapName, types.ExprString(lhs))
		}
		return true
	})
}

// appearsInReturn reports whether obj is mentioned in any return statement
// of the function body.
func appearsInReturn(info *types.Info, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if ret, ok := n.(*ast.ReturnStmt); ok {
			for _, res := range ret.Results {
				if usesObject(info, res, obj) {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// sortedAfter reports whether a sort.* or slices.Sort* call mentioning obj
// appears after pos in the function body.
func sortedAfter(info *types.Info, body *ast.BlockStmt, pos token.Pos, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		fn := analysis.StaticCallee(info, call)
		if fn == nil {
			return true
		}
		switch funcPkgPath(fn) {
		case "sort", "slices":
		default:
			return true
		}
		for _, arg := range call.Args {
			if usesObject(info, arg, obj) {
				found = true
			}
		}
		return true
	})
	return found
}
