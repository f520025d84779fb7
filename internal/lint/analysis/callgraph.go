package analysis

import (
	"go/ast"
	"go/types"
)

// CallGraph is a module-wide static call graph over the type-checked
// program: one node per function or method declared with a body in any
// analyzed package, one edge per call site whose callee resolves
// statically. Method calls are resolved by receiver type through the
// type-checker's use information; calls through an interface method are
// additionally fanned out to every concrete method in the program whose
// receiver type implements the interface (edges marked Abstract).
// Calls of function-typed values and builtins have no edge.
//
// Function literals are attributed to their enclosing declaration: a
// call made inside a closure appears as an edge from the declaring
// function, which is the conservative reading for "may perform" summaries
// (the closure may run while the caller's state — locks, transactions —
// is live).
type CallGraph struct {
	// Nodes maps each declared function to its node.
	Nodes map[*types.Func]*CallNode
	// order holds nodes in construction order (sorted packages, file
	// order, declaration order) so every traversal is deterministic.
	order []*CallNode
}

// CallNode is one declared function or method.
type CallNode struct {
	Func *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Out lists call edges in source order.
	Out []*CallEdge
}

// CallEdge is one resolved call site.
type CallEdge struct {
	Caller *CallNode
	// Callee is the invoked function; it has a node in the graph only
	// when it is declared in an analyzed package.
	Callee *types.Func
	// Site is the call expression, for diagnostics.
	Site *ast.CallExpr
	// Abstract marks an edge recovered from an interface method call by
	// searching the program for implementations: the call may not reach
	// this callee at runtime, but soundly might.
	Abstract bool
}

// StaticCallee resolves a call expression to the *types.Func it invokes
// (function, method, or qualified identifier); nil for builtins, calls
// of function-typed variables, and conversions.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// CallGraph builds (once) and returns the program's call graph.
func (prog *Program) CallGraph() *CallGraph {
	if prog.callGraph == nil {
		prog.callGraph = buildCallGraph(prog)
	}
	return prog.callGraph
}

// Functions returns every node in deterministic (construction) order.
func (g *CallGraph) Functions() []*CallNode { return g.order }

func buildCallGraph(prog *Program) *CallGraph {
	g := &CallGraph{Nodes: map[*types.Func]*CallNode{}}

	// Nodes: every declared function with a body, in deterministic order.
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				n := &CallNode{Func: obj, Decl: fd, Pkg: pkg}
				g.Nodes[obj] = n
				g.order = append(g.order, n)
			}
		}
	}

	// Named types in the program, for interface-call fan-out.
	var named []*types.Named
	for _, pkg := range prog.Packages {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() { // Names() is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok {
				named = append(named, n)
			}
		}
	}

	// Edges.
	for _, n := range g.order {
		info := n.Pkg.TypesInfo
		ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := StaticCallee(info, call)
			if callee == nil {
				return true
			}
			if recv := recvOf(callee); recv != nil && types.IsInterface(recv.Type()) {
				// Interface method: fan out to every program type that
				// implements it.
				iface, _ := recv.Type().Underlying().(*types.Interface)
				if iface != nil {
					for _, impl := range implementations(named, iface, callee.Name()) {
						n.Out = append(n.Out, &CallEdge{Caller: n, Callee: impl, Site: call, Abstract: true})
					}
				}
				return true
			}
			n.Out = append(n.Out, &CallEdge{Caller: n, Callee: callee, Site: call})
			return true
		})
	}
	return g
}

func recvOf(fn *types.Func) *types.Var {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return nil
	}
	return sig.Recv()
}

// implementations returns the concrete methods named name on program
// types satisfying iface, in the deterministic order of named.
func implementations(named []*types.Named, iface *types.Interface, name string) []*types.Func {
	var out []*types.Func
	for _, n := range named {
		if types.IsInterface(n.Underlying()) {
			continue
		}
		pt := types.NewPointer(n)
		if !types.Implements(pt, iface) && !types.Implements(n, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(pt, true, iface.Method(0).Pkg(), name)
		if m, ok := obj.(*types.Func); ok {
			out = append(out, m)
		}
	}
	return out
}

// callees returns the graph nodes n calls, in edge order; external
// callees have no node and are left out.
func (g *CallGraph) callees(n *CallNode) []*CallNode {
	var out []*CallNode
	for _, e := range n.Out {
		if w := g.Nodes[e.Callee]; w != nil {
			out = append(out, w)
		}
	}
	return out
}

// BottomUp visits the call graph callees-first, for summaries computed
// from what a function's callees do: each strongly connected component
// is visited after every component it calls into, and its members are
// revisited until no visit reports a change (mutual recursion). Analyzers
// keep their summaries in their own map[*types.Func]T; visit reads the
// callees' entries, which are final unless the callee shares n's
// component.
func BottomUp(g *CallGraph, visit func(n *CallNode) (changed bool)) {
	for _, comp := range SCCs(g.order, g.callees) {
		for changed := true; changed; {
			changed = false
			for _, n := range comp {
				if visit(n) {
					changed = true
				}
			}
		}
	}
}

// SCCs condenses a directed graph into strongly connected components
// with Tarjan's algorithm and returns them sinks-first: every component
// is emitted after all components it has edges into. Nodes are visited
// in the given order and successors in the order succs returns them, so
// the result is deterministic.
func SCCs[N comparable](nodes []N, succs func(N) []N) [][]N {
	index := map[N]int{}
	low := map[N]int{}
	onStack := map[N]bool{}
	var stack []N
	var out [][]N

	var visit func(v N)
	visit = func(v N) {
		index[v], low[v] = len(index), len(index)
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succs(v) {
			if _, seen := index[w]; !seen {
				visit(w)
				low[v] = min(low[v], low[w])
			} else if onStack[w] {
				low[v] = min(low[v], index[w])
			}
		}
		if low[v] != index[v] {
			return
		}
		var comp []N
		for {
			w := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			onStack[w] = false
			comp = append(comp, w)
			if w == v {
				break
			}
		}
		out = append(out, comp)
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			visit(v)
		}
	}
	return out
}
