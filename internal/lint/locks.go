package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"path/filepath"
	"slices"
	"strings"

	"a1/internal/lint/analysis"
)

// Locks checks the two contracts on sync.Mutex/RWMutex acquisitions with
// one source-order walk of every function body.
//
// Remote calls: the paper's core premise is the orders-of-magnitude
// local/remote access gap (Buragohain et al., Figure 2), so a
// machine-local lock acquired in a function must not still be held when
// that function calls into the fabric, farm or core remote surfaces.
// Holding a local lock across a fabric round trip turns every contending
// goroutine's nanosecond wait into a network wait; it is a performance
// bug, not a style nit. internal/fabric, internal/farm and internal/sim
// are the implementation layers and exempt from this rule.
//
// Lock order: locks are abstracted to classes — the named type and field
// that declare the mutex (objectstore.Store.mu, farm.Region.mu, ...), or
// the declaring function for function-local mutexes — and an edge A→B is
// recorded whenever code anywhere in the module acquires B while
// provably holding A, either directly or through any chain of calls
// (each function's transitive acquisition set is summarized bottom-up
// over the call graph, so the inner acquisition may be buried packages
// away). Two code paths that order the same two classes oppositely can
// interleave into a deadlock no test reliably reproduces; every cycle in
// the order graph is reported once, anchored at its lexicographically
// first contributing acquisition site, with every chain in the message.
//
// Approximations, chosen to keep findings high-signal: Lock/RLock adds
// the receiver to the held set and Unlock/RUnlock removes it; deferred
// unlocks do not release for the remainder of the body; deferred and
// goroutine-spawned calls acquire nothing and call nothing at the spawn
// point. A function literal is assumed to run where it is defined, with
// the definer's locks held, so its acquisitions order after them (the
// fabric.Parallel pattern); but only the locks it takes itself count
// against its remote calls, since it may equally run after the definer
// has released. Self-edges (re-acquiring one class, e.g. address-ordered
// region lock coupling) are intra-class instance ordering the class
// abstraction cannot judge, and are ignored. Branch-sensitive flows the
// walk cannot prove are not flagged.
var Locks = &analysis.Analyzer{
	Name: "a1/locks",
	Doc: "no fabric/farm/core remote call while a machine-local mutex acquired in the " +
		"same function is held, and lock classes are acquired in one global order " +
		"(any cycle is a potential deadlock)",
	RunProgram: runLocks,
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
	"Read": true, "ReadSized": true, "ReadSizedInto": true,
	"Alloc": true, "AllocOn": true, "Free": true, "OpenForWrite": true,
	"Get": true, "Put": true, "Delete": true,
	"Scan": true, "ScanDesc": true, "Count": true,
	"RunTransaction": true, "Commit": true, "CreateBTree": true,
}

var remoteCallExempt = map[string]bool{
	fabricPath:        true,
	farmPath:          true,
	"a1/internal/sim": true,
}

// isRemote reports whether a call of fn may cross the fabric. The core
// data plane reaches farm (and hence the fabric) only through the
// transaction or fabric context it is handed, so any core function or
// method taking one is remote, exported or not: an unexported helper
// (catGet under a proxy lock) reads farm just the same.
func isRemote(fn *types.Func) bool {
	switch funcPkgPath(fn) {
	case fabricPath:
		return fabricRemoteOps[fn.Name()]
	case farmPath:
		return farmRemoteOps[fn.Name()]
	case corePath:
		for p := range fn.Type().(*types.Signature).Params().Variables() {
			if isNamedType(p.Type(), farmPath, "Tx") || isNamedType(p.Type(), fabricPath, "Ctx") {
				return true
			}
		}
	}
	return false
}

// heldLock is one acquisition in a walk's held set.
type heldLock struct {
	class string // lock class; "" when none can be derived (unordered)
	recv  string // receiver expression text, for the remote-call message
	line  int    // line of the Lock call
}

// lockEdge is one observed ordering: "to" acquired while "from" held.
type lockEdge struct {
	from, to string
	pos      token.Position // acquisition site (first seen wins)
	fn       string         // function whose body orders them
	via      string         // "" for direct Lock; callee chain otherwise
}

type locksState struct {
	pass *analysis.Pass
	// acquires is each function's transitive acquisition set, sorted.
	acquires map[*types.Func][]string
	edges    map[[2]string]*lockEdge
}

func runLocks(pass *analysis.Pass) error {
	st := &locksState{pass: pass, acquires: map[*types.Func][]string{}, edges: map[[2]string]*lockEdge{}}
	cg := pass.Program.CallGraph()
	analysis.BottomUp(cg, st.updateAcquires)
	for _, n := range cg.Functions() {
		st.walkHeld(n, n.Decl.Name.Name, n.Decl.Body, nil)
	}
	st.reportCycles()
	return nil
}

// mutexOp recognizes x.Lock()/RLock()/Unlock()/RUnlock() on a
// sync.Mutex/RWMutex (including embedded promotion) and returns the
// selector and the operation.
func mutexOp(info *types.Info, call *ast.CallExpr) (sel *ast.SelectorExpr, op string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, "", false
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return sel, fn.Name(), true
	}
	return nil, "", false
}

// lockClassOf abstracts the receiver expression of a Lock/RLock call to
// a lock class: "pkg.Type.field" for a mutex field, "pkg.Type" for an
// embedded mutex, "pkg.Func.name" for a function-local mutex; "" when no
// stable class can be derived (dynamic expressions).
func lockClassOf(info *types.Info, recv ast.Expr, enclosing string) string {
	recv = ast.Unparen(recv)
	// An embedded mutex: the receiver expression's own type is the named
	// type that embeds it, and that type is the lock class — however the
	// instance was reached (parameter, field, index expression).
	if tv, ok := info.Types[recv]; ok {
		if n := namedOrAlias(tv.Type); n != nil && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() != "sync" {
			return n.Obj().Pkg().Path() + "." + n.Obj().Name()
		}
	}
	// A plain sync.Mutex/RWMutex field x.f: class is the named type of x
	// plus the field name.
	if sel, ok := recv.(*ast.SelectorExpr); ok {
		if tv, ok := info.Types[sel.X]; ok {
			if n := namedOrAlias(tv.Type); n != nil && n.Obj().Pkg() != nil {
				return n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + sel.Sel.Name
			}
		}
		return ""
	}
	// A bare local mutex variable: function-scoped class.
	if id, ok := recv.(*ast.Ident); ok {
		if obj := info.Uses[id]; obj != nil && obj.Pkg() != nil {
			return obj.Pkg().Path() + "." + enclosing + "." + id.Name
		}
	}
	return ""
}

// updateAcquires recomputes n's transitive acquisition set; reports change.
func (st *locksState) updateAcquires(n *analysis.CallNode) bool {
	set := map[string]bool{}
	for _, l := range st.acquires[n.Func] {
		set[l] = true
	}
	before := len(set)

	info := n.Pkg.TypesInfo
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, op, ok := mutexOp(info, call); ok && (op == "Lock" || op == "RLock") {
			if class := lockClassOf(info, sel.X, n.Decl.Name.Name); class != "" {
				set[class] = true
			}
		}
		return true
	})
	for _, e := range n.Out {
		for _, l := range st.acquires[e.Callee] {
			set[l] = true
		}
	}
	if len(set) == before {
		return false
	}
	st.acquires[n.Func] = slices.Sorted(maps.Keys(set))
	return true
}

// walkHeld processes one unit's statements in source order, starting
// from the held set its definer passes in. Function literals are walked
// with a copy of the current held set; their effects on it do not leak
// out. Deferred and go-spawned calls are skipped at the spawn point.
func (st *locksState) walkHeld(n *analysis.CallNode, name string, body ast.Node, held []heldLock) {
	info := n.Pkg.TypesInfo
	// held[:own] was taken by the unit's definer: it orders this unit's
	// acquisitions, but only held[own:] counts against its remote calls.
	own := len(held)
	checkRemote := !remoteCallExempt[n.Pkg.Path]
	skip := map[ast.Node]bool{}
	ast.Inspect(body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.DeferStmt:
			// Deferred unlocks release at return, not here: the lock
			// stays in the held set for the rest of the body, and a
			// deferred remote call runs after the body's lock scope.
			skip[x.Call] = true
		case *ast.GoStmt:
			skip[x.Call] = true // runs concurrently without our locks
		case *ast.FuncLit:
			st.walkHeld(n, name+" (func literal)", x.Body, slices.Clone(held))
			return false
		case *ast.CallExpr:
			if skip[x] {
				return true
			}
			if sel, op, ok := mutexOp(info, x); ok {
				recv := types.ExprString(sel.X)
				switch op {
				case "Lock", "RLock":
					class := lockClassOf(info, sel.X, n.Decl.Name.Name)
					for _, h := range held {
						st.addEdge(h.class, class, x.Pos(), name, "")
					}
					line := st.pass.Program.Fset.Position(x.Pos()).Line
					held = append(held, heldLock{class: class, recv: recv, line: line})
				case "Unlock", "RUnlock":
					for i := len(held) - 1; i >= 0; i-- {
						if held[i].recv == recv {
							held = slices.Delete(held, i, i+1)
							if i < own {
								own--
							}
							break
						}
					}
				}
				return true
			}
			callee := analysis.StaticCallee(info, x)
			if callee == nil || len(held) == 0 {
				return true
			}
			for _, h := range held {
				for _, l := range st.acquires[callee] {
					st.addEdge(h.class, l, x.Pos(), name, callee.Name())
				}
			}
			if checkRemote && len(held) > own && isRemote(callee) {
				// Remote-call findings name every literal after its
				// declaration alone, however deeply it is nested.
				unit := n.Decl.Name.Name
				if name != unit {
					unit += " (func literal)"
				}
				st.reportRemote(x, unit, callee, held[own:])
			}
		}
		return true
	})
}

// reportRemote flags a remote call once per distinct held receiver.
func (st *locksState) reportRemote(call *ast.CallExpr, name string, fn *types.Func, held []heldLock) {
	lines := map[string]int{}
	for _, h := range held {
		lines[h.recv] = h.line // the latest acquisition of a receiver wins
	}
	for _, recv := range slices.Sorted(maps.Keys(lines)) {
		st.pass.Reportf(call.Pos(),
			"%s calls %s while holding %s (locked at line %d): a machine-local "+
				"lock must not span a fabric round trip (remote access gap, paper Fig. 2); "+
				"release the lock before the remote call",
			name, fn.Name(), recv, lines[recv])
	}
}

func (st *locksState) addEdge(from, to string, pos token.Pos, fn, via string) {
	if from == "" || to == "" || from == to {
		return // unordered lock, or intra-class instance ordering: out of scope
	}
	key := [2]string{from, to}
	if _, ok := st.edges[key]; ok {
		return
	}
	st.edges[key] = &lockEdge{
		from: from, to: to,
		pos: st.pass.Program.Fset.Position(pos),
		fn:  fn, via: via,
	}
}

// reportCycles finds strongly connected components of the order graph
// and reports one diagnostic per cyclic component.
func (st *locksState) reportCycles() {
	adj := map[string][]string{}
	nodes := map[string]bool{}
	for key := range st.edges {
		adj[key[0]] = append(adj[key[0]], key[1])
		nodes[key[0]], nodes[key[1]] = true, true
	}
	for _, outs := range adj {
		slices.Sort(outs)
	}
	succs := func(v string) []string { return adj[v] }
	for _, comp := range analysis.SCCs(slices.Sorted(maps.Keys(nodes)), succs) {
		if len(comp) >= 2 {
			st.reportCycle(comp, adj)
		}
	}
}

// reportCycle reconstructs a minimal cycle within the component and
// reports it with every edge's acquisition site.
func (st *locksState) reportCycle(comp []string, adj map[string][]string) {
	slices.Sort(comp)
	inComp := map[string]bool{}
	for _, c := range comp {
		inComp[c] = true
	}
	start := comp[0]

	// BFS from start back to start within the component.
	type step struct {
		node string
		prev *step
	}
	q := []*step{{node: start}}
	seen := map[string]bool{}
	var cycle []string
	for len(q) > 0 && cycle == nil {
		s := q[0]
		q = q[1:]
		for _, nxt := range adj[s.node] {
			if !inComp[nxt] {
				continue
			}
			if nxt == start {
				// cycle holds each node once; the wrap-around edge back to
				// start is implied by indexing modulo len(cycle).
				for p := s; p != nil; p = p.prev {
					cycle = append([]string{p.node}, cycle...)
				}
				break
			}
			if !seen[nxt] {
				seen[nxt] = true
				q = append(q, &step{node: nxt, prev: s})
			}
		}
	}
	if cycle == nil {
		return // unreachable for a valid SCC
	}

	// Describe each edge of the cycle and anchor the diagnostic at the
	// lexicographically first site so the report (and any suppression)
	// has one stable home.
	var chains []string
	var anchor *lockEdge
	for i := range cycle {
		e := st.edges[[2]string{cycle[i], cycle[(i+1)%len(cycle)]}]
		if e == nil {
			return
		}
		site := fmt.Sprintf("%s:%d", filepath.Base(e.pos.Filename), e.pos.Line)
		how, via := "locks", "direct"
		if e.via != "" {
			how, via = "reaches a lock of", "via "+e.via
		}
		chains = append(chains, fmt.Sprintf("%s %s %s while holding %s (%s, %s)",
			e.fn, how, shortLock(e.to), shortLock(e.from), via, site))
		if anchor == nil || analysis.ComparePos(e.pos, anchor.pos) < 0 {
			anchor = e
		}
	}
	var ring []string
	for _, c := range append(cycle, cycle[0]) { // close the ring for display
		ring = append(ring, shortLock(c))
	}
	st.pass.ReportAt(anchor.pos,
		"lock-order cycle %s is a potential deadlock: %s; "+
			"acquire these lock classes in one global order (or break the hold "+
			"spans with the paper's release-before-remote discipline)",
		strings.Join(ring, " → "), strings.Join(chains, "; "))
}

// shortLock trims the module-internal prefix for readability; the full
// class name remains unambiguous within this module.
func shortLock(class string) string {
	return strings.TrimPrefix(class, "a1/internal/")
}
