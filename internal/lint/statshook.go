package lint

import (
	"go/types"

	"a1/internal/lint/analysis"
)

// StatsHook enforces the live-statistics contract from the cost-based
// planner work (PR 4): every exported function in internal/core that
// mutates vertex/edge/index state must reach a stats commit hook (one of
// the mutation funnels vertexChanged and edgeChanged, or a stats.Local
// delta method) somewhere on its call path, so committed mutations always
// feed the tracker and the planner's estimates never silently rot. The
// check is interprocedural over the module-wide call graph: both the
// mutation and the hook may sit any number of calls below the exported
// entry point, in any package — a mutator that reaches its hook through a
// cross-package helper needs no exemption.
// Catalog/schema-plane mutations that the statistics subsystem
// deliberately ignores are suppressed inline with a rationale.
var StatsHook = &analysis.Analyzer{
	Name: "a1/statshook",
	Doc: "exported internal/core functions that mutate vertex/edge/index state " +
		"must reach a stats commit hook on the non-abort path",
	RunProgram: runStatsHook,
}

const (
	corePath   = "a1/internal/core"
	statsPath  = "a1/internal/stats"
	farmPath   = "a1/internal/farm"
	fabricPath = "a1/internal/fabric"
	queryPath  = "a1/internal/query"
	bondPath   = "a1/internal/bond"
)

// farm-layer calls that mutate state the statistics tracker covers:
// vertex/edge objects and index entries. farm.CreateBTree is deliberately
// absent — a freshly created tree holds no entries, so bootstrap paths
// (Open, CreateGraph, CreateVertexType) change nothing the tracker
// counts.
var farmMutators = map[string]bool{
	"Put":          true, // BTree.Put — index insert
	"Delete":       true, // BTree.Delete — index remove
	"Alloc":        true, // Tx.Alloc — new object
	"AllocOn":      true, // Tx.AllocOn — placed new object
	"Free":         true, // Tx.Free — object removal
	"OpenForWrite": true, // Tx.OpenForWrite — in-place object update
}

// catalog-plane helpers: schema/metadata writes go through these, and the
// statistics subsystem deliberately does not track catalog state (it
// counts vertices, edges, and index entries, not type definitions). Call
// edges into them are not followed, so catalog-only mutators don't flag.
var coreCatalogPlane = map[string]bool{
	"catPut":    true,
	"catDelete": true,
}

// in-package stats commit hooks: the mutation funnels.
var coreStatsHooks = map[string]bool{
	"vertexChanged": true,
	"edgeChanged":   true,
}

// stats.Local delta methods, accepted as commit hooks wherever they are
// called from.
var statsLocalHooks = map[string]bool{
	"VertexAdded":       true,
	"VertexRemoved":     true,
	"FieldValueAdded":   true,
	"FieldValueRemoved": true,
	"EdgeAdded":         true,
	"EdgeRemoved":       true,
}

func runStatsHook(pass *analysis.Pass) error {
	cg := pass.Program.CallGraph()
	// mutates maps a function that (transitively) performs a farm-level
	// mutation the statistics tracker counts to the primitive or call
	// chain that introduced it; hooks marks the functions that
	// (transitively) reach a stats commit hook.
	mutates := map[*types.Func]string{}
	hooks := map[*types.Func]bool{}
	analysis.BottomUp(cg, func(n *analysis.CallNode) bool {
		_, hadMut := mutates[n.Func]
		hadHook := hooks[n.Func]
		mut, hook := hadMut, hadHook
		var reason string
		for _, e := range n.Out {
			if e.Abstract {
				continue // interface fan-out is too coarse for this contract
			}
			name := e.Callee.Name()
			switch funcPkgPath(e.Callee) {
			case farmPath:
				if farmMutators[name] && !mut {
					mut, reason = true, "farm."+name
				}
				continue
			case statsPath:
				hook = hook || statsLocalHooks[name]
				continue
			case corePath:
				hook = hook || coreStatsHooks[name]
				if coreCatalogPlane[name] {
					continue // catalog plane: deliberately not followed
				}
			}
			// Propagate the callee's summaries (cross-package included).
			if r, ok := mutates[e.Callee]; ok && !mut {
				mut, reason = true, "call to "+name+" ("+r+")"
			}
			hook = hook || hooks[e.Callee]
		}
		if mut && !hadMut {
			mutates[n.Func] = reason
		}
		hooks[n.Func] = hook
		return (mut && !hadMut) || (hook && !hadHook)
	})

	// Report: exported functions in internal/core that mutate tracked
	// state without reaching any hook.
	for _, n := range cg.Functions() {
		reason, mut := mutates[n.Func]
		if n.Pkg.Path != corePath || !n.Decl.Name.IsExported() || !mut || hooks[n.Func] {
			continue
		}
		pass.Reportf(n.Decl.Name.Pos(),
			"%s mutates graph state (%s) but never reaches a stats commit hook; "+
				"committed mutations must feed the planner's statistics (vertexChanged/edgeChanged) "+
				"or the cost model silently rots",
			n.Decl.Name.Name, reason)
	}
	return nil
}
