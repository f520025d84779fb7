package query

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/fabric"
	"a1/internal/farm"
)

// Execution: exec.go interprets the compiled Plan (plan.go). The planner
// decides *what* runs at each level — frontier source, index filters,
// residual filtering, traversal, shaping, grouping — and the executor
// supplies the distributed *how*: partitioning frontiers by primary host,
// shipping batched operators to the machines owning the data, and merging
// replies at the coordinator (paper §3.4, Figure 9). This file drives the
// levels and dispatches each to its operator, one file each: access.go
// (root access paths, the ordered top-K walk, index-membership filters),
// expand.go (read, filter, traverse), match.go (`_match`), recurse.go,
// groupstream.go and shape.go. scatter.go ships an operator to the owners
// and merges their replies; explain.go keeps the per-level est/act records.

// Errors surfaced by the engine.
var (
	// ErrWorkingSet fast-fails queries whose intermediate state outgrows
	// the coordinator's budget (paper §3.4: disk spill is infeasible in a
	// latency-optimized system, so large queries fail fast).
	ErrWorkingSet = errors.New("a1ql: query working set too large")
	// ErrNoStart means the root pattern matched no vertex.
	ErrNoStart = errors.New("a1ql: no starting vertex")
	// ErrBadToken rejects malformed or expired continuation tokens.
	ErrBadToken = errors.New("a1ql: bad or expired continuation token")
)

// Config tunes the engine.
type Config struct {
	// ShipThreshold is the minimum number of vertex operators bound for
	// one machine before they are batched into an RPC; smaller groups are
	// evaluated from the coordinator with one-sided reads (paper §3.4).
	ShipThreshold int
	// MaxWorkingSet bounds the query's accumulated intermediate state —
	// the frontier vertices across levels, each worker batch's group
	// partials, the vertices a `_recurse` visits — and past it the query
	// fails fast with ErrWorkingSet. The order-by-aggregate form sorts the
	// merge of the worker runs in memory, so it holds at most
	// machines·MaxWorkingSet groups.
	MaxWorkingSet int
	// PageSize caps the rows returned per response; the rest is cached at
	// the coordinator behind a continuation token.
	PageSize int
	// ResultTTL is how long continuation state is retained (paper: 60s).
	ResultTTL time.Duration
	// GroupChunk is how many sorted group entries a worker ships per
	// round: the first chunk rides the batch reply, the rest are pulled
	// chunk by chunk as the coordinator's merge drains. Coordinator
	// residency for the unordered `_groupby` form is
	// O(page + machines·GroupChunk).
	GroupChunk int

	// CPU cost model for the simulated fabric (no-ops in Direct mode).
	CostParse      time.Duration // coordinator: parse + plan
	CostVertexRead time.Duration // worker: materialize + deserialize vertex
	CostPredEval   time.Duration // worker: one predicate evaluation
	CostEdgeEnum   time.Duration // worker: per half-edge visited
	CostMerge      time.Duration // coordinator: per next-hop pointer merged

	// RDMASampler, when set, receives the (remote read count, total RDMA
	// read time) of every worker batch — the measurement behind the
	// paper's Figure 11.
	RDMASampler func(reads int, total time.Duration)
}

// DefaultConfig returns production-shaped parameters.
func DefaultConfig() Config {
	return Config{
		ShipThreshold:  4,
		MaxWorkingSet:  1 << 20,
		PageSize:       1000,
		ResultTTL:      60 * time.Second,
		GroupChunk:     256,
		CostParse:      10 * time.Microsecond,
		CostVertexRead: 1500 * time.Nanosecond,
		CostPredEval:   300 * time.Nanosecond,
		CostEdgeEnum:   150 * time.Nanosecond,
		CostMerge:      80 * time.Nanosecond,
	}
}

// Row is one projected result.
type Row struct {
	Vertex core.VertexPtr
	Values map[string]bond.Value

	// _orderby sort keys (parallel to the query's Orders), resolved where
	// the row was produced so the coordinator can merge shipped batches
	// without re-reading vertices.
	keys []sortKey
}

// Stats describes one query's execution, matching the accounting the paper
// reports in §6 (objects read, locality, RDMA time).
type Stats struct {
	Hops         int
	VerticesRead int64
	EdgesVisited int64
	ObjectsRead  int64
	RemoteReads  int64
	LocalFrac    float64
	RDMATime     time.Duration
	RPCs         int64
	Elapsed      time.Duration
	// RowsShipped / BytesShipped account the replies of batched worker
	// RPCs: with aggregate or top-K pushdown the workers return scalars or
	// pruned prefixes, so these drop versus shipping the raw rows.
	RowsShipped  int64
	BytesShipped int64
	// IndexFiltered counts frontier vertices dropped by a traversal-level
	// index-membership filter *before* any vertex read — the saving the
	// IndexFilter operator buys.
	IndexFiltered int64
	// GroupsShipped counts group partial states that crossed the fabric
	// (first-chunk replies plus later run pulls; `_having` tombstones ship
	// the key alone and are not counted). Their bytes — wire widths via
	// bond.MarshalSize — land in BytesShipped.
	GroupsShipped int64
	// GroupsFiltered counts groups a `_having` filter removed: worker-side
	// pushdown drops and tombstones plus coordinator post-merge re-checks.
	GroupsFiltered int64
	// PeakGroups is the peak number of group entries resident at the
	// coordinator: run-merge buffers plus the page, or the order-by-aggregate
	// form's sort buffer.
	PeakGroups int64
	// PlanCacheHits is 1 when this execution's plan came from the engine's
	// plan cache (a Prepared.Exec or a repeated document): the coordinator
	// performed zero parses, and in Sim mode paid no CostParse.
	PlanCacheHits int64
	// Levels reports, per traversal level, the access path that ran and the
	// planner's estimated vs. actual cardinality — the feedback loop behind
	// `est=N act=M` in Explain output and the a1shell stats line.
	Levels []LevelStats
}

// LevelStats is one level's estimated-vs-actual accounting.
type LevelStats struct {
	Depth int
	// Source is the operator that produced the level's vertices (the chosen
	// start candidate at depth 0, the traversal above it otherwise).
	Source string
	// EstRows is the planner's cardinality estimate for the level's
	// frontier (or terminal rows), -1 when statistics could not estimate.
	EstRows int64
	// ActRows is the observed cardinality.
	ActRows int64
}

// Result is a query response page.
type Result struct {
	Rows         []Row
	Count        int64
	HasCount     bool
	Aggregates   map[string]bond.Value // keyed by the _select entry, e.g. "_sum(popularity)"
	Groups       []GroupRow            // `_groupby` result groups, sorted by key
	Continuation string
	Stats        Stats
}

// Engine executes A1QL queries against a graph store.
type Engine struct {
	store  *core.Store
	cfg    Config
	caches []*ttlStore[pageSource]   // per machine (coordinator-parked continuation sources)
	runs   []*ttlStore[[]groupEntry] // per machine (worker-parked group-run tails)
	plans  *planCache                // parsed shapes keyed by plan key

	// noStats plans as if the graph had no statistics: the preference-order
	// fallback. Set only by tests that compare the cost-based choice with it.
	noStats bool
}

// NewEngine creates an engine over a store.
func NewEngine(store *core.Store, cfg Config) *Engine {
	if cfg.PageSize == 0 {
		cfg.PageSize = DefaultConfig().PageSize
	}
	if cfg.MaxWorkingSet == 0 {
		cfg.MaxWorkingSet = DefaultConfig().MaxWorkingSet
	}
	if cfg.ResultTTL == 0 {
		cfg.ResultTTL = DefaultConfig().ResultTTL
	}
	if cfg.GroupChunk == 0 {
		cfg.GroupChunk = DefaultConfig().GroupChunk
	}
	e := &Engine{store: store, cfg: cfg, plans: newPlanCache()}
	machines := store.Farm().Fabric().Machines()
	e.caches = make([]*ttlStore[pageSource], machines)
	e.runs = make([]*ttlStore[[]groupEntry], machines)
	for i := range e.caches {
		e.caches[i] = newTTLStore[pageSource]()
		e.runs[i] = newTTLStore[[]groupEntry]()
	}
	return e
}

// Store returns the engine's graph store.
func (e *Engine) Store() *core.Store { return e.store }

// Execute runs an A1QL document with the calling context's machine as
// coordinator. A document whose shape — all but literals, whitespace and
// key order — was executed or prepared before is a plan-cache hit: zero
// parses. A "$param" document must go through Prepare/Exec; executing one
// fails with CodeBadParam.
func (e *Engine) Execute(c *fabric.Ctx, g *core.Graph, doc []byte) (*Result, error) {
	q, cached, err := e.plan(doc, true)
	if err == nil {
		q, err = q.Bind(nil) // q is this execution's own copy
	}
	if err != nil {
		return nil, err
	}
	q.fromCache = cached
	return e.Run(c, g, q)
}

// Run executes a parsed query.
func (e *Engine) Run(c *fabric.Ctx, g *core.Graph, q *Query) (*Result, error) {
	res, err := e.run(c, g, q)
	if err != nil {
		return nil, classify(err)
	}
	return res, nil
}

// run executes a bound query at the snapshot the coordinator picks: the
// clock's current timestamp, pinned in the same step (Farm.PinCurrent) so
// version GC cannot pass it before the pin lands. All workers read at it.
func (e *Engine) run(c *fabric.Ctx, g *core.Graph, q *Query) (*Result, error) {
	if len(q.ParamNames) > 0 && !q.bound {
		return nil, paramError("unbound parameter $%s", q.ParamNames[0])
	}
	ts, unpin := e.store.Farm().PinCurrent()
	return e.runAt(c, g, q, ts, unpin)
}

// runAt executes a bound query against snapshot ts in four steps: plan (zip
// the compiled plan with this execution's patterns), open the root access
// path, drive the levels, and cut the first page. The caller has pinned ts;
// unpin runs when the query returns, unless a page source that reads on
// after the return (a `_recurse` expansion) has taken the pin over.
func (e *Engine) runAt(c *fabric.Ctx, g *core.Graph, q *Query, ts uint64, unpin func()) (*Result, error) {
	var ops fabric.OpStats
	qc := c.WithStats(&ops)
	start := qc.Now()
	if !q.fromCache {
		qc.Work(e.cfg.CostParse)
	}

	// The interpreter zips the compiled plan with the (possibly bound)
	// pattern chain: the plan holds operator choices, the patterns hold the
	// values this execution binds them to. The plan context snapshots the
	// statistics summary and index probe the candidate ranking costs
	// against.
	pl := q.Plan()
	pats := patternChain(q.Root)
	st := &execState{
		engine:  e,
		graph:   g,
		ts:      ts,
		unpin:   unpin,
		hints:   q.Hints,
		pc:      newPlanContext(qc, e, g),
		targets: map[*EdgePattern]core.VertexPtr{},
	}
	defer func() { st.unpin() }()
	tp := pats[len(pats)-1]
	if tp.Limit > 0 && len(tp.Aggs) == 0 {
		if len(tp.Orders) == 0 {
			// Unordered limit: any K rows satisfy the query, so workers
			// stop reading vertices once K(+skip) are collected anywhere.
			st.rowTarget = int64(tp.Limit + tp.Skip)
		} else {
			// Ordered limit: workers and the merging coordinator retain
			// only the top K(+skip) rows.
			st.keep = tp.Limit + tp.Skip
		}
	}
	ctx := e.store.Farm().CreateReadTransactionAt(qc, ts)
	if err := st.resolveMatchTargets(ctx, q.Root, false); err != nil {
		return nil, err
	}

	frontier, orderedRows, ordered, err := st.execStart(qc, ctx, pats[0], pl.Levels[0])
	if err != nil {
		return nil, err
	}
	st.initLevels(pl, pats)
	out := &levelOutput{rows: orderedRows}
	if ordered {
		// OrderedIndexScan produced the terminal rows directly, already in
		// result order.
		st.preOrdered = true
		st.stats.Hops = 1
		st.setActRows(0, len(orderedRows))
	} else {
		st.setActRows(0, len(frontier))
		if out, err = st.driveLevels(qc, ctx, frontier, pl, pats); err != nil {
			return nil, err
		}
	}

	res := &Result{Stats: st.stats}
	if src := st.shape(out, tp, res); src != nil {
		pageSize := e.cfg.PageSize
		if q.Hints.PageSize > 0 {
			pageSize = q.Hints.PageSize
		}
		if err := e.turnPage(qc, src, 0, 0, pageSize, res); err != nil {
			return nil, err
		}
	}
	res.Stats.setOps(&ops)
	res.Stats.Levels = st.levels
	res.Stats.Elapsed = qc.Now() - start
	if q.fromCache {
		res.Stats.PlanCacheHits = 1
	}
	return res, nil
}

// driveLevels walks the plan's levels from the root frontier to the
// terminal's product: each level builds its index-membership filter, runs
// its operator, and either ends the chain or hands the next frontier — its
// replies merged into per-owner sets as they arrived, so already distinct
// and split by owner — to the level below.
func (st *execState) driveLevels(qc *fabric.Ctx, ctx *farm.Tx, root []core.VertexPtr, pl *Plan, pats []*VertexPattern) (*levelOutput, error) {
	e := st.engine
	fr := newFrontier(e.store.Farm())
	defer func() { fr.release() }()
	for _, vp := range root {
		if err := fr.add(qc, vp); err != nil {
			return nil, err
		}
	}
	batches, n := fr.seal()
	working := n
	for level := 0; ; level++ {
		lp, pat := pl.Levels[level], pats[level]
		if lp.IndexFilter != nil && n > 0 {
			member, ok, err := st.buildMemberFilter(ctx, pat, lp.IndexFilter, n)
			if err != nil {
				return nil, err
			}
			if ok {
				st.member = member
			}
		}
		out, err := st.runLevel(qc, batches, n, level, pl, pats)
		putAddrSet(st.member)
		st.member = nil
		if err != nil || lp.Terminal || lp.Recurse != nil {
			return out, err
		}
		fr.release()
		fr = out.next
		batches, n = fr.seal()
		st.setActRows(level+1, n)
		if working += n; working > e.cfg.MaxWorkingSet {
			return nil, fmt.Errorf("%w: %d vertices", ErrWorkingSet, working)
		}
		if n == 0 {
			return &levelOutput{}, nil
		}
	}
}

// runLevel picks and runs one level's physical operator over its frontier:
// n vertices in owner batches.
func (st *execState) runLevel(qc *fabric.Ctx, batches []ownerBatch, n, level int, pl *Plan, pats []*VertexPattern) (*levelOutput, error) {
	lp, pat := pl.Levels[level], pats[level]
	// Recursive frontier expansion: `_recurse` consumes the rest of the
	// chain (host + `_vertex` terminal) in one bounded-depth BFS.
	if lp.Recurse != nil {
		return st.execRecurse(qc, batches, n, level, pl, pats)
	}
	// Ordered traversal terminal: when the statistics say per-machine
	// index-order partial scans beat materializing the frontier, each owner
	// walks the order field's index restricted to its slice of the frontier
	// and ships its top limit+skip rows; the coordinator k-way merges them.
	// Falls through to the sort path when no index exists (served=false).
	if lp.Terminal && lp.OrderedTraverse != nil && n > 0 {
		eligible, en := batches, n
		if st.member != nil {
			eligible, en = memberSubset(batches, st.member)
		}
		choice := st.pc.rankOrderedTraverse(pat, lp.OrderedTraverse, float64(en))
		if choice.use {
			rows, served, err := st.execOrderedTraverse(qc, eligible, pat, lp)
			if err != nil {
				return nil, err
			}
			if served {
				st.stats.IndexFiltered += int64(n - en)
				st.stats.Hops++
				// The terminal level reports the operator that ran with its
				// own estimated-vs-actual output rows.
				st.setLevelSource(level, choice.label, choice.est)
				st.setActRows(level, len(rows))
				st.preOrdered = true
				return &levelOutput{rows: rows}, nil
			}
		}
	}
	// Streaming grouped terminal: workers reduce and sort their group
	// partials into per-machine runs; a cursor k-way merges them in key
	// order as the result pages out, so the full group set is never
	// resident at the coordinator.
	if lp.Terminal && lp.Group != nil {
		src, err := st.execGroupedLevel(qc, batches, pat, lp)
		if err != nil {
			return nil, err
		}
		st.stats.Hops++
		return &levelOutput{page: src}, nil
	}
	out, err := st.execLevel(qc, batches, pat, lp)
	if err != nil {
		return nil, err
	}
	st.stats.Hops++
	return out, nil
}

// shape turns the levels' product into the Result's scalar parts (count,
// aggregates) and the source its rows or groups page out of — nil when the
// terminal is aggregate-only.
func (st *execState) shape(out *levelOutput, tp *VertexPattern, res *Result) pageSource {
	switch {
	case out.page != nil:
		return out.page
	case len(tp.GroupBy) > 0:
		return newPager[GroupRow](nil, nil, tp, groupsOf) // the frontier died out above the grouped terminal
	}
	if len(tp.Aggs) > 0 {
		aggs := out.aggs
		if aggs == nil {
			aggs = make([]aggState, len(tp.Aggs))
		}
		res.Aggregates = finalizeAggs(aggs, tp.Aggs)
		if tp.Count {
			for i, a := range tp.Aggs {
				if a.Kind == AggCount {
					res.Count = aggs[i].count
					res.HasCount = true
					break
				}
			}
		}
		// Rows are materialized unless the terminal is aggregate-only.
		if len(tp.Selects) == 0 {
			return nil
		}
	}
	if len(tp.Orders) > 0 && !st.preOrdered {
		sortRows(out.rows, tp.Orders)
	}
	return newPager(out.rows, nil, tp, rowsOf)
}

// execState carries one query's execution through its hops.
type execState struct {
	engine  *Engine
	graph   *core.Graph
	ts      uint64
	hints   Hints
	pc      *planContext                    // stats + probe the ranking costs against
	targets map[*EdgePattern]core.VertexPtr // pre-resolved _match ids
	// matchReads holds the read set of every `_match` subpattern vertex,
	// filled with targets before the levels run and read-only after.
	matchReads map[*VertexPattern]ReadSet

	// chosen is the start candidate that actually served the root frontier;
	// levels carries the per-level estimated-vs-actual accounting.
	chosen *startCandidate
	levels []LevelStats

	// Result-shaping pushdown (terminal level).
	rowTarget int64        // unordered _limit: stop producing rows at this count (0 = off)
	rowsOut   atomic.Int64 // rows produced across all batches
	keep      int          // _orderby+_limit: per-batch/merge top-K retention (0 = all)

	// unpin releases the snapshot pin on ts. runAt calls it on return; a
	// page source that reads on after the return takes it over and leaves a
	// no-op here.
	unpin func()

	// member, when non-nil, is the current level's index-membership filter:
	// frontier vertices outside it are dropped before any read. Set by the
	// coordinator before the level runs, read-only during it.
	member *addrSet
	// preOrdered marks rows produced by OrderedIndexScan: already in result
	// order, no coordinator sort needed.
	preOrdered bool

	mu    sync.Mutex
	stats Stats
}

// setOps records the fabric operations one entry point — a query's run or
// a continuation's Fetch — performed.
func (s *Stats) setOps(ops *fabric.OpStats) {
	s.ObjectsRead = ops.TotalReads()
	s.RemoteReads = ops.RemoteReads.Load()
	s.LocalFrac = ops.LocalFraction()
	s.RDMATime = time.Duration(ops.RDMAReadTime.Load())
	s.RPCs = ops.RPCs.Load()
}
