package lint

import (
	"go/ast"
	"go/types"

	"a1/internal/lint/analysis"
)

// BatchReads flags per-ID vertex fetches issued inside a loop over a
// frontier/ID slice ([]core.VertexPtr, i.e. []farm.Ptr). Each such read
// is a potential fabric round trip, so a loop of them pays the paper's
// remote-access gap once per ID; frontiers must instead be partitioned by
// owner (farm.PrimaryOf) and evaluated near the data in batched RPCs, the
// way execLevel/runBatch do.
//
// The check is interprocedural over the module-wide call graph: a helper
// that performs a per-ID read any number of calls below the loop body is
// flagged at the loop's call site, with the chain to the primitive named
// in the message. A per-ID read site carrying a justified
// //lint:ignore a1/batchreads suppression is sanctioned machine-local
// and does not taint its callers. Loops that are provably machine-local
// — owner-side batch executors whose slice was already partitioned by
// the caller — carry an inline suppression stating exactly that.
var BatchReads = &analysis.Analyzer{
	Name: "a1/batchreads",
	Doc: "per-ID vertex reads in a loop over a frontier/ID slice must go through " +
		"the batched owner-side read path, including reads hidden below helpers",
	RunProgram: runBatchReads,
}

// per-ID read APIs: one or more fabric round trips per call.
var coreVertexReads = map[string]bool{
	"ReadVertex": true, "LookupVertex": true, "VertexPK": true,
}
var farmObjectReads = map[string]bool{
	"Read": true, "ReadSized": true,
}

var batchReadsExempt = map[string]bool{
	farmPath:          true,
	fabricPath:        true,
	"a1/internal/sim": true,
	corePath:          true, // the implementation layer under the batch APIs
}

func runBatchReads(pass *analysis.Pass) error {
	prog := pass.Program
	cg := prog.CallGraph()
	sups := analysis.CollectSuppressions(prog)

	// perIDAPI classifies a direct call to the read primitives.
	perIDAPI := func(fn *types.Func) bool {
		switch funcPkgPath(fn) {
		case corePath:
			return coreVertexReads[fn.Name()]
		case farmPath:
			return farmObjectReads[fn.Name()]
		}
		return false
	}

	// Bottom-up summaries: a non-exempt function that calls a per-ID
	// primitive (at an unsanctioned site), or calls a non-exempt helper
	// that does, performs per-ID reads itself; chain spells the call path
	// down to the primitive, for the diagnostic. Summaries do not
	// propagate through exempt packages: those are the implementation
	// layers under the batch APIs, already outside the contract's scope.
	chain := map[*types.Func]string{}
	analysis.BottomUp(cg, func(n *analysis.CallNode) bool {
		if _, done := chain[n.Func]; done || batchReadsExempt[n.Pkg.Path] {
			return false
		}
		for _, e := range n.Out {
			if e.Abstract {
				continue
			}
			if perIDAPI(e.Callee) {
				if analysis.SuppressedAt(sups, pass.Analyzer.Name, prog.Fset.Position(e.Site.Pos())) {
					continue // sanctioned machine-local site
				}
				chain[n.Func] = calleeLabel(e.Callee)
				return true
			}
			if c, ok := chain[e.Callee]; ok && !batchReadsExempt[funcPkgPath(e.Callee)] {
				chain[n.Func] = e.Callee.Name() + " → " + c
				return true
			}
		}
		return false
	})

	// Report: calls inside loops over frontier/ID slices, in non-exempt
	// packages, that directly or transitively perform per-ID reads.
	for _, pkg := range prog.Packages {
		if batchReadsExempt[pkg.Path] {
			continue
		}
		info := pkg.TypesInfo
		eachFunc(pkg, func(body *ast.BlockStmt) {
			ast.Inspect(body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if !rangesOverPtrSlice(info, rs) {
					return true
				}
				ast.Inspect(rs.Body, func(inner ast.Node) bool {
					call, ok := inner.(*ast.CallExpr)
					if !ok {
						return true
					}
					fn := analysis.StaticCallee(info, call)
					if fn == nil {
						return true
					}
					if perIDAPI(fn) {
						pass.Reportf(call.Pos(),
							"per-ID %s inside a loop over %s: each call is a potential fabric "+
								"round trip; partition the frontier by owner and ship a batched RPC "+
								"(see execLevel/runBatch), or justify machine-locality",
							fn.Name(), types.ExprString(rs.X))
						return true
					}
					if c, ok := chain[fn]; ok && !batchReadsExempt[funcPkgPath(fn)] {
						pass.Reportf(call.Pos(),
							"per-ID read hidden below %s inside a loop over %s (%s → %s): each "+
								"iteration is a potential fabric round trip; partition the frontier by "+
								"owner and ship a batched RPC (see execLevel/runBatch), or justify "+
								"machine-locality",
							fn.Name(), types.ExprString(rs.X), fn.Name(), c)
					}
					return true
				})
				return true
			})
		})
	}
	return nil
}

// calleeLabel names a primitive for chain messages: pkgshortname.Func.
func calleeLabel(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	return fn.Pkg().Name() + "." + fn.Name()
}

// rangesOverPtrSlice reports whether rs iterates a []farm.Ptr (which
// core.VertexPtr aliases).
func rangesOverPtrSlice(info *types.Info, rs *ast.RangeStmt) bool {
	tv, ok := info.Types[rs.X]
	if !ok {
		return false
	}
	sl, ok := tv.Type.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	return isNamedType(sl.Elem(), farmPath, "Ptr")
}
