package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"a1/internal/lint/analysis"
)

// LockFabric prices the paper's core premise — the orders-of-magnitude
// local/remote access gap (Buragohain et al., Figure 2) — into the lock
// discipline: a machine-local sync.Mutex/RWMutex acquired in a function
// must not still be held when that function calls into the fabric or farm
// remote surfaces. Holding a local lock across a fabric round trip turns
// every contending goroutine's nanosecond wait into a network wait; it is
// a performance bug, not a style nit.
//
// The analysis is a per-function, source-order approximation: Lock/RLock
// adds the receiver to the held set, Unlock/RUnlock removes it, deferred
// unlocks do not release for the remainder of the body, and each function
// literal is analyzed independently. Branch-sensitive flows it cannot
// prove are not flagged; calls it cannot prove safe should be restructured
// or suppressed with a justification. internal/fabric, internal/farm, and
// internal/sim are the implementation layers and exempt.
var LockFabric = &analysis.Analyzer{
	Name: "a1/lockfabric",
	Doc: "no fabric/farm remote call while a machine-local mutex acquired in the " +
		"same function is held",
	Run: runLockFabric,
}

// fabric.Ctx operations that cross the wire (or fan out work that does),
// and Work, which in Sim mode parks the caller on a CPU worker.
var fabricRemoteOps = map[string]bool{
	"RPC":         true,
	"ReadRemote":  true,
	"WriteRemote": true,
	"CASRemote":   true,
	"Parallel":    true,
	"Work":        true,
}

// farm entry points that may perform remote reads, writes, or commits.
var farmRemoteOps = map[string]bool{
	"Read": true, "ReadSized": true,
	"Alloc": true, "AllocOn": true, "Free": true, "OpenForWrite": true,
	"Get": true, "Put": true, "Delete": true,
	"Scan": true, "ScanDesc": true, "Count": true,
	"RunTransaction": true, "Commit": true, "CreateBTree": true,
}

// core data-plane entry points; each one reaches farm (and hence the
// fabric) internally.
var coreRemoteOps = map[string]bool{
	"ReadVertex": true, "LookupVertex": true, "VertexPK": true,
	"CreateVertex": true, "UpdateVertex": true, "DeleteVertex": true,
	"CreateEdge": true, "DeleteEdge": true, "EnumerateHalfEdges": true,
	"ScanVerticesByType": true, "ScanVertexPtrsByType": true, "CountVertices": true,
	"IndexScan": true, "IndexRangeScanBoundsDir": true,
	"Analyze": true,
}

var lockFabricExempt = map[string]bool{
	fabricPath:        true,
	farmPath:          true,
	"a1/internal/sim": true,
}

func runLockFabric(pass *analysis.Pass) error {
	pkg := pass.Pkg
	if lockFabricExempt[pkg.Path] {
		return nil
	}
	info := pkg.TypesInfo
	eachFunc(pkg, func(name string, decl ast.Node, body *ast.BlockStmt) {
		checkLockUnit(pass, info, name, body)
		// Each function literal is its own unit: its body runs with its
		// own call-time lock state.
		ast.Inspect(body, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				checkLockUnit(pass, info, name+" (func literal)", fl.Body)
			}
			return true
		})
	})
	return nil
}

// checkLockUnit walks one function body in source order tracking held
// mutexes, skipping nested function literals (separate units).
func checkLockUnit(pass *analysis.Pass, info *types.Info, name string, body *ast.BlockStmt) {
	held := map[string]token.Position{}
	deferred := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false // analyzed independently
		case *ast.DeferStmt:
			deferred[x.Call] = true
		case *ast.GoStmt:
			deferred[x.Call] = true
		case *ast.CallExpr:
			if deferred[x] {
				// defer mu.Unlock() releases at return, not here; a
				// deferred remote call runs after the body's lock scope.
				return true
			}
			if recv, op, ok := mutexOp(info, x); ok {
				switch op {
				case "Lock", "RLock":
					held[recv] = pass.Program.Fset.Position(x.Pos())
				case "Unlock", "RUnlock":
					delete(held, recv)
				}
				return true
			}
			if len(held) == 0 {
				return true
			}
			fn := calleeOf(info, x)
			if fn == nil {
				return true
			}
			remote := false
			switch funcPkgPath(fn) {
			case fabricPath:
				remote = fabricRemoteOps[fn.Name()]
			case farmPath:
				remote = farmRemoteOps[fn.Name()]
			case corePath:
				remote = coreRemoteOps[fn.Name()]
			}
			if !remote {
				return true
			}
			recvs := make([]string, 0, len(held))
			for recv := range held {
				recvs = append(recvs, recv)
			}
			sort.Strings(recvs)
			for _, recv := range recvs {
				lockPos := held[recv]
				pass.Reportf(x.Pos(),
					"%s calls %s while holding %s (locked at line %d): a machine-local "+
						"lock must not span a fabric round trip (remote access gap, paper Fig. 2); "+
						"release the lock before the remote call",
					name, fn.Name(), recv, lockPos.Line)
			}
		}
		return true
	})
}

// mutexOp recognizes x.Lock()/RLock()/Unlock()/RUnlock() on a
// sync.Mutex/RWMutex (including embedded promotion) and returns the
// receiver expression text and the operation.
func mutexOp(info *types.Info, call *ast.CallExpr) (recv, op string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return types.ExprString(sel.X), fn.Name(), true
	}
	return "", "", false
}
