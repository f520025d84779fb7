package query

import (
	"sync"
	"sync/atomic"

	"a1/internal/core"
	"a1/internal/fabric"
)

// Prepared queries and the engine-side plan cache (paper §2.2 motivation:
// frontends parse and plan the same query shapes on every request; caching
// the compiled plan removes that work). Execute, Prepare and ExplainPlan
// share one path: the plan key (plankey.go) reduces a document to its shape
// and lifts its literals, the cache maps the shape to its parsed Query, and
// binding the literals back yields the document's own query. So
// `db.Query(doc)` runs as `Prepare(shape).Exec(literals)`: documents that
// differ in an `id`, a predicate constant or a `_limit` share one entry. A
// hit costs the key pass, a map probe and a bind — no decode, no parse, no
// CostParse. What the fast path cannot serve is parsed as written.

// planCacheCap bounds the cache; eviction is FIFO (query workloads are a
// small set of shapes executed many times, so recency hardly matters).
const planCacheCap = 1024

type planCache struct {
	mu      sync.Mutex
	entries map[string]*Query // shape key -> the shape's parsed query
	order   []string          // insertion order for FIFO eviction
	hits    atomic.Int64
	misses  atomic.Int64
}

func newPlanCache() *planCache {
	return &planCache{entries: make(map[string]*Query)}
}

// lookup finds a cached shape by its plan key; the caller accounts hits
// (per *execution* served without a parse) and misses.
func (pc *planCache) lookup(key []byte) (*Query, bool) {
	pc.mu.Lock()
	q, ok := pc.entries[string(key)]
	pc.mu.Unlock()
	return q, ok
}

func (pc *planCache) store(key []byte, q *Query) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	k := string(key)
	if _, ok := pc.entries[k]; !ok {
		for len(pc.entries) >= planCacheCap {
			delete(pc.entries, pc.order[0])
			pc.order = pc.order[1:]
		}
		pc.order = append(pc.order, k)
	}
	pc.entries[k] = q
}

// plan resolves a document to its query through the plan cache: a hit
// binds the lifted literals into the cached shape, a miss reads and parses
// the shape once. A shape that does not parse and literals that do not
// bind fall back to Parse, uncached, so errors read as the document was
// written. The query is the caller's own, user placeholders unbound.
// countHit is false for Prepare, whose hits Bind counts per Exec.
func (e *Engine) plan(doc []byte, countHit bool) (q *Query, hit bool, err error) {
	k := keyScans.Get().(*keyScan)
	defer keyScans.Put(k)
	if _, err := k.run(doc, inPattern, false); err != nil {
		e.plans.misses.Add(1)
		return nil, false, parseError(err)
	}
	shape, hit := e.plans.lookup(k.key)
	if !hit {
		// The shape: the document with each literal the key lifted
		// replaced by its synthetic placeholder.
		tree, _ := k.run(doc, inPattern, true) // the key pass has read doc
		if shape, err = parseRaw(tree); err == nil {
			e.plans.store(k.key, shape)
		}
	}
	if shape != nil {
		q, err = shape.bindLits(k.lits)
	}
	if err != nil {
		hit = false
		q, err = Parse(doc)
	}
	if !hit {
		e.plans.misses.Add(1)
	} else if countHit {
		e.plans.hits.Add(1)
	}
	return q, hit, err
}

// PlanCacheStats reports engine-wide plan cache hits and misses.
func (e *Engine) PlanCacheStats() (hits, misses int64) {
	return e.plans.hits.Load(), e.plans.misses.Load()
}

// Prepared is a parsed, validated query bound to a graph: Exec runs it
// with fresh bind values and no parsing. Handles are safe for concurrent
// use.
type Prepared struct {
	engine *Engine
	graph  *core.Graph
	q      *Query
}

// Prepare parses and validates an A1QL document once, caching the plan.
// Preparing another document of a cached shape reuses its AST.
func (e *Engine) Prepare(c *fabric.Ctx, g *core.Graph, doc []byte) (*Prepared, error) {
	q, _, err := e.plan(doc, false)
	if err != nil {
		return nil, err
	}
	return &Prepared{engine: e, graph: g, q: q}, nil
}

// ParamNames lists the placeholders the document references, sorted.
func (p *Prepared) ParamNames() []string { return p.q.ParamNames }

// Bind resolves placeholders and returns the executable query; the calling
// layer (engine or frontend tier) chooses where it runs.
func (p *Prepared) Bind(params Params) (*Query, error) {
	bound, err := p.q.Bind(params)
	if err != nil {
		return nil, err
	}
	// Exec never parses, so every execution counts as served-from-cache,
	// even when Bind returned the shared AST itself (no parameters).
	if bound == p.q {
		copied := *p.q
		bound = &copied
	}
	bound.fromCache = true
	p.engine.plans.hits.Add(1)
	return bound, nil
}

// Exec binds params and runs the statement with the calling context's
// machine as coordinator.
func (p *Prepared) Exec(c *fabric.Ctx, params Params) (*Result, error) {
	bound, err := p.Bind(params)
	if err != nil {
		return nil, err
	}
	return p.engine.Run(c, p.graph, bound)
}
