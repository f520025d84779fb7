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
	"a1/internal/objectstore"
)

// Execution: exec.go interprets the compiled Plan (plan.go). The planner
// decides *what* runs at each level — frontier source, index filters,
// residual filtering, traversal, shaping, grouping — and this file supplies
// the distributed *how*: partitioning frontiers by primary host, shipping
// batched operators to the machines owning the data, and merging replies at
// the coordinator (paper §3.4, Figure 9). The index access paths — root
// start candidates, the ordered top-K walk, index-membership filters — are
// in access.go.

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
	// MaxWorkingSet bounds the query's accumulated intermediate vertices.
	MaxWorkingSet int
	// PageSize caps the rows returned per response; the rest is cached at
	// the coordinator behind a continuation token.
	PageSize int
	// ResultTTL is how long continuation state is retained (paper: 60s).
	ResultTTL time.Duration
	// GroupChunk is how many sorted group entries a worker ships per
	// round: the first chunk rides the batch reply, the rest are pulled
	// chunk by chunk as the coordinator's merge drains. It also sizes the
	// read-back chunks of spilled group runs. Coordinator residency for
	// the unordered `_groupby` form is O(page + machines·GroupChunk).
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
	// GroupSpills counts sorted group runs the coordinator spilled to the
	// objectstore (order-by-aggregate form past MaxWorkingSet).
	GroupSpills int64
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

	// spill holds sorted group runs the order-by-aggregate form writes past
	// MaxWorkingSet (groupstream.go); spillSeq names the run tables.
	spill    *objectstore.Store
	spillSeq atomic.Uint64

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
	e := &Engine{store: store, cfg: cfg, plans: newPlanCache(), spill: objectstore.New()}
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
				st.setLevelSource(level, choice.label)
				st.setLevelEst(level, choice.est)
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

// initLevels builds the per-level estimated-vs-actual records once the
// start candidate is known: estimates chain the chosen source's cardinality
// through residual selectivities and edge fan-outs.
func (st *execState) initLevels(pl *Plan, pats []*VertexPattern) {
	if st.chosen == nil {
		return
	}
	ests := estimateLevels(pl, pats, st.pc, st.chosen)
	st.levels = make([]LevelStats, len(pl.Levels))
	for i := range pl.Levels {
		src := "Frontier"
		if i == 0 {
			src = st.chosen.label
		} else if ep := pats[i-1].Edge; ep != nil {
			dir := "out"
			if !ep.Out {
				dir = "in"
			}
			src = fmt.Sprintf("Traverse(%s %s)", dir, ep.Type)
		} else if rp := pats[i-1].Recurse; rp != nil {
			dir := "out"
			if !rp.Edge.Out {
				dir = "in"
			}
			src = fmt.Sprintf("Recurse(%s %s)", dir, rp.Edge.Type)
		}
		st.levels[i] = LevelStats{Depth: i, Source: src, EstRows: roundEst(ests[i])}
	}
	// A `_recurse` chain appends one record per iteration after the level
	// entries — the est half of the per-iteration est/act feedback; the
	// expansion fills act as iterations run (never-reached iterations
	// report 0 new vertices).
	for i, vp := range pats {
		rp := vp.Recurse
		if rp == nil || rp.Max < 1 {
			continue
		}
		exclude := ""
		if i == 0 {
			exclude = st.chosen.field
		}
		roots := float64(estUnknown)
		if ests[i] >= 0 {
			roots = ests[i] * st.pc.residualSelectivity(vp, exclude)
		}
		iters, _ := st.pc.recurseEstimates(rp, pats[i+1], roots)
		for k := 1; k <= rp.Max; k++ {
			est := float64(estUnknown)
			if k-1 < len(iters) {
				est = iters[k-1]
			}
			st.levels = append(st.levels, LevelStats{Depth: i + k, Source: fmt.Sprintf("Iter %d/%d", k, rp.Max), EstRows: roundEst(est)})
		}
	}
}

func (st *execState) setActRows(level, n int) {
	if level < len(st.levels) {
		st.levels[level].ActRows = int64(n)
	}
}

// setLevelSource overrides a level's reported access path once a runtime
// decision (e.g. OrderedTraverse) replaces the structural default.
func (st *execState) setLevelSource(level int, src string) {
	if level < len(st.levels) {
		st.levels[level].Source = src
	}
}

func (st *execState) setLevelEst(level int, est float64) {
	if level < len(st.levels) && est >= 0 {
		st.levels[level].EstRows = roundEst(est)
	}
}

// resolveMatchTargets walks the pattern tree once, before any level runs:
// `_match` subpatterns that terminate in a primary-key lookup are
// pre-resolved so workers test star-pattern membership by pointer
// comparison instead of remote reads, and every other subpattern vertex
// (sub=true: vp sits inside a `_match`) gets the read set matchVertex will
// visit it with.
func (st *execState) resolveMatchTargets(tx *farm.Tx, vp *VertexPattern, sub bool) error {
	if vp == nil {
		return nil
	}
	if sub {
		rs := readSetOf(vp, false)
		if st.matchReads == nil {
			st.matchReads = map[*VertexPattern]ReadSet{}
		}
		st.matchReads[vp] = rs
	}
	for _, m := range vp.Matches {
		if m.Vertex != nil && m.Vertex.ID != "" && m.Vertex.Edge == nil &&
			len(m.Vertex.Preds) == 0 && len(m.Vertex.Matches) == 0 {
			ptr, ok, err := st.lookupByID(tx, m.Vertex)
			if err != nil {
				return err
			}
			if ok {
				st.targets[m] = ptr
			} else {
				st.targets[m] = core.VertexPtr{} // unresolvable: never matches
			}
		} else if err := st.resolveMatchTargets(tx, m.Vertex, true); err != nil {
			return err
		}
	}
	if vp.Edge != nil {
		return st.resolveMatchTargets(tx, vp.Edge.Vertex, sub)
	}
	return nil
}

// buildTerminalRow reads one candidate vertex with the level's read set,
// applies the terminal level's residual filters (type, predicates, _match),
// and materializes its row with projections and sort keys.
func (st *execState) buildTerminalRow(sc *fabric.Ctx, tx *farm.Tx, vp core.VertexPtr, pat *VertexPattern, read ReadSet, bc *batchCounts) (row Row, ok bool, err error) {
	err = st.materialize(sc, tx, []core.VertexPtr{vp}, pat, read, true, bc, func(v *core.VertexVisit, pass bool) (bool, error) {
		if pass {
			row, ok = newRow(vp, v.Data, pat, v.Schema), true
		}
		return false, nil
	})
	return row, ok, err
}

// newRow materializes one terminal row from a vertex's pre-shape data.
// Projections and `_orderby` sort keys both resolve against the stored
// vertex value, never against the shaped projection: a `_select` that
// omits the order key must not change the ordering (a shaped-out key would
// otherwise compare as a zero value). Every row producer — worker batches,
// ordered scans, ordered traversals — funnels through here so the sort
// fallback and the index-order paths agree byte for byte.
func newRow(vp core.VertexPtr, data bond.Value, pat *VertexPattern, schema *bond.Schema) Row {
	row := Row{Vertex: vp}
	if len(pat.Selects) > 0 {
		row.Values = getValues()
		for _, sel := range pat.Selects {
			if val, ok := resolvePath(data, sel, schema); ok {
				row.Values[sel.Raw] = val
			}
		}
	}
	if len(pat.Orders) > 0 {
		row.keys = getKeys(len(pat.Orders))
		for i, ob := range pat.Orders {
			val, ok := resolvePath(data, ob.Path, schema)
			row.keys[i] = sortKey{val: val, ok: ok}
		}
	}
	return row
}

// levelOutput is the product of one level: what one owner's batch replies
// with, and what the coordinator merges those replies into.
type levelOutput struct {
	next   *frontier // next hops: a reply's raw ones, or the merged frontier
	rows   []Row
	aggs   []aggState             // partial aggregates, parallel to the level's Aggs
	groups map[string]*groupState // one owner's grouped-aggregate partials (buildGroupRun input)

	accepted int // `_recurse`: candidates that survived the owners' visited filters

	// A terminal level may leave a live producer instead of rows: the
	// pager over streamed groups or an unshaped `_recurse` expansion.
	page pageSource

	mu sync.Mutex // absorb: replies merge concurrently
}

// release returns a dropped output's frontier to the pool.
func (o *levelOutput) release() {
	if o != nil {
		o.next.release()
	}
}

// absorb merges one owner's reply into the coordinator's running product,
// in the scatter body cc that received it. The next hops go straight into
// their owners' sets, each under its owner's lock alone, and the merge's
// CostMerge per raw pointer is charged afterwards, holding no lock. pat is
// the pattern whose Aggs and Orders shaped the reply's rows.
func (o *levelOutput) absorb(cc *fabric.Ctx, st *execState, in *levelOutput, pat *VertexPattern) {
	if in.next != nil {
		raw := in.next.raw
		o.next.merge(in.next)
		cc.Work(time.Duration(raw) * st.engine.cfg.CostMerge)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.accepted += in.accepted
	o.rows = append(o.rows, in.rows...)
	// The reply's rows were copied out by the append above; only the slice
	// header dies here, never the rows' own buffers.
	putRows(in.rows)
	if in.aggs != nil {
		if o.aggs == nil {
			o.aggs = make([]aggState, len(pat.Aggs))
		}
		mergeAggStates(o.aggs, in.aggs, pat.Aggs)
	}
	// Ordered-limit merge: never hold more than the top K(+skip) rows.
	if st.keep > 0 && len(o.rows) > 2*st.keep {
		o.rows = topK(o.rows, pat.Orders, st.keep)
	}
}

// ptrWireBytes is the encoded size of a fat pointer (addr + size).
const ptrWireBytes = 12

// wireBytes is the Bond-encoded width of one row on the wire: the vertex
// fat pointer, each projected value (field name + compact-binary value),
// and the resolved _orderby keys when present.
func (r *Row) wireBytes() int {
	n := ptrWireBytes
	for k, v := range r.Values {
		n += len(k) + bond.MarshalSize(v)
	}
	for _, sk := range r.keys {
		if sk.ok {
			n += bond.MarshalSize(sk.val)
		}
	}
	return n
}

// wireBytes is the encoded width of one aggregate partial: count, the two
// running sums, one byte for the float flag and the overflow carry (zero
// unless the sum leaves int64), and the min/max value when present.
func (a *aggState) wireBytes() int {
	n := 17
	if a.seenMM {
		n += bond.MarshalSize(a.mm)
	}
	return n
}

// wireBytes is the encoded width of one group partial: the encoded key
// plus each aggregate's partial state.
func (g *groupState) wireBytes(enc string) int {
	n := len(enc)
	for i := range g.aggs {
		n += g.aggs[i].wireBytes()
	}
	return n
}

// wire sizes one batch's reply: fat pointers for the next frontier,
// Bond-encoded projected rows, and aggregate partials. Group partials never
// ship in a levelOutput: they leave the owner as a run (workerRun).
func (o *levelOutput) wire() wireSize {
	n := 0
	if o.next != nil {
		n = o.next.raw * ptrWireBytes
	}
	for i := range o.rows {
		n += o.rows[i].wireBytes()
	}
	for i := range o.aggs {
		n += o.aggs[i].wireBytes()
	}
	return wireSize{rows: len(o.rows), bytes: n}
}

// ownerBatch is one owner's share of a frontier.
type ownerBatch struct {
	m    fabric.MachineID
	ptrs []core.VertexPtr
	i, n int // scatter: position among the n owners
}

// wireSize is what one shipped reply put on the fabric: its bytes, and the
// rows or group partials they carried.
type wireSize struct{ rows, groups, bytes int }

// scatter is the engine's one distributed mechanism (paper §3.4, Figure
// 9). It runs work near the data of a frontier already split by owner,
// concurrently per owner: an owner holding at least ShipThreshold of the
// frontier receives its batch as one RPC (query shipping) and work runs
// there; stragglers, the coordinator's own share, and everything under the
// no_shipping hint run work from the coordinator over one-sided reads.
// Each reply is merged in the coordinator-side body cc that received it, as
// soon as it arrives and concurrently with the other bodies, so merge
// guards whatever its replies share; b.i is the owner's position in
// batches, the stable order when it matters. The first error from work,
// the fabric, or merge is the scatter's error; replies that arrive after it
// are still merged so their owners' state stays accounted for, and a reply
// the fabric lost after its work ran is released.
func scatter[T interface{ wire() wireSize }](st *execState, qc *fabric.Ctx, batches []ownerBatch,
	work func(sc *fabric.Ctx, b ownerBatch) (T, error), merge func(cc *fabric.Ctx, b ownerBatch, out T) error) error {
	var mu sync.Mutex
	var firstErr error
	qc.Parallel(len(batches), func(i int, cc *fabric.Ctx) {
		b := batches[i]
		b.i, b.n = i, len(batches)
		var out T
		var err error
		if !st.hints.NoShipping && b.m != cc.M && len(b.ptrs) >= st.engine.cfg.ShipThreshold {
			var w wireSize
			err = cc.RPC(b.m, len(b.ptrs)*ptrWireBytes+128, func(sc *fabric.Ctx) (int, error) {
				var err error
				if out, err = work(sc, b); err != nil {
					return 0, err
				}
				w = out.wire()
				return w.bytes, nil
			})
			if err == nil {
				st.mu.Lock()
				st.stats.RowsShipped += int64(w.rows)
				st.stats.GroupsShipped += int64(w.groups)
				st.stats.BytesShipped += int64(w.bytes)
				st.mu.Unlock()
			}
		} else {
			out, err = work(cc, b)
		}
		if err == nil {
			err = merge(cc, b, out)
		} else if r, ok := any(out).(interface{ release() }); ok {
			r.release()
		}
		mu.Lock()
		defer mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
	})
	return firstErr
}

// execLevel runs the level's operators near the data (runBatch) and merges
// rows, aggregate partials and the next frontier at the coordinator. A
// level that consumes nothing of its vertices and follows no edge — a bare
// `_count(*)` or pointer-row terminal — has no data to be near: the
// coordinator answers it from the frontier's batches with no scatter, no
// RPC and no read. That is sound because DeleteVertex removes every
// incident half-edge and index entry in the vertex's own transaction and
// the query reads one pinned snapshot, so every pointer the frontier holds
// names a vertex alive at that snapshot.
func (st *execState) execLevel(qc *fabric.Ctx, batches []ownerBatch, pat *VertexPattern, lp *LevelPlan) (*levelOutput, error) {
	op := st.opFor(pat, lp)
	if op.pointerOnly() && op.member == nil {
		merged := &levelOutput{}
		for _, b := range batches {
			out, err := st.runBatch(qc, b.ptrs, op)
			if err != nil {
				return nil, err
			}
			merged.absorb(qc, st, out, pat)
		}
		return merged, nil
	}
	return st.expand(qc, batches, pat, op.edge != nil, func(sc *fabric.Ctx, b ownerBatch) (*levelOutput, error) {
		return st.runBatch(sc, b.ptrs, op)
	})
}

// expand scatters batches and merges the replies of work: rows and
// aggregate partials into one output, next hops (when next) into its
// per-owner next frontier.
func (st *execState) expand(qc *fabric.Ctx, batches []ownerBatch, pat *VertexPattern, next bool,
	work func(sc *fabric.Ctx, b ownerBatch) (*levelOutput, error)) (*levelOutput, error) {
	merged := &levelOutput{}
	if next {
		merged.next = newFrontier(st.engine.store.Farm())
	}
	err := scatter(st, qc, batches, work, func(cc *fabric.Ctx, _ ownerBatch, out *levelOutput) error {
		merged.absorb(cc, st, out, pat)
		return nil
	})
	if err != nil {
		merged.release()
		return nil, err
	}
	return merged, nil
}

// levelOp is what one owner does to each vertex of its batch: filter it
// through pat, feed survivors to pat's terminal shaping, follow an edge out
// of them. Plan levels, `_recurse` seeds and `_recurse` iterations are all
// instances; runBatch is the one loop that executes them.
type levelOp struct {
	pat  *VertexPattern // residual filters and (emit) terminal shaping; nil: neither
	read ReadSet        // what pat's operators consume of each vertex
	// member, when non-nil, is the level's index-membership filter: batch
	// vertices outside it are dropped before any read.
	member *addrSet
	emit   bool         // survivors feed pat's rows and aggregates...
	group  bool         // ...or, with emit, its group partials
	edge   *EdgePattern // half-edges to follow into the next frontier; nil: none
	// through: vertices failing pat still follow edge — a `_recurse`
	// iteration, whose terminal filters gate output only.
	through bool
	hops    int      // `_shortest`: the `_hops` value of emitted rows (0: no column)
	mark    *addrSet // `_recurse` seed: survivors enter this visited set
}

// opFor is the op of a plan level over its pattern.
func (st *execState) opFor(pat *VertexPattern, lp *LevelPlan) levelOp {
	return levelOp{pat: pat, read: lp.Read, member: st.member, emit: lp.Terminal, group: lp.Group != nil, edge: pat.Edge}
}

// pointerOnly: the op consumes nothing of a vertex but its pointer.
func (op levelOp) pointerOnly() bool { return op.read.Kind == ReadNone && op.edge == nil }

// batchCounts is one batch's share of the execution counters, kept in
// plain integers on the owner's goroutine and folded into the query's
// stats once per batch.
type batchCounts struct{ vertices, edges, indexFiltered int64 }

func (st *execState) fold(bc *batchCounts) {
	st.mu.Lock()
	st.stats.VerticesRead += bc.vertices
	st.stats.EdgesVisited += bc.edges
	st.stats.IndexFiltered += bc.indexFiltered
	st.mu.Unlock()
}

// runBatch runs one level op over a batch of vertices on whatever machine
// the context lives on, inside a read-only transaction at the query's
// snapshot timestamp.
func (st *execState) runBatch(sc *fabric.Ctx, batch []core.VertexPtr, op levelOp) (*levelOutput, error) {
	e := st.engine
	if e.cfg.RDMASampler != nil {
		// Measure this batch's one-sided reads separately, then fold them
		// back into the query's stats.
		local := &fabric.OpStats{}
		parent := sc.Stats
		sc = sc.WithStats(local)
		defer func() {
			e.cfg.RDMASampler(int(local.RemoteReads.Load()), time.Duration(local.RDMAReadTime.Load()))
			if parent != nil {
				parent.Merge(local)
			}
		}()
	}
	pat := op.pat
	out := &levelOutput{}
	var bc batchCounts
	defer st.fold(&bc)
	buildRows := false
	switch {
	case op.group:
		out.groups = make(map[string]*groupState)
	case op.emit:
		if len(pat.Aggs) > 0 {
			out.aggs = make([]aggState, len(pat.Aggs))
		}
		if buildRows = len(pat.Selects) > 0 || len(pat.Aggs) == 0; buildRows {
			out.rows = getRows()
		}
	}
	if op.edge != nil {
		out.next = newFrontier(e.store.Farm())
	}
	// Traversal-level pushdown: the index-membership filter runs first.
	work := batch
	if op.member != nil {
		filtered := getPtrs()
		for _, vp := range batch {
			if !op.member.has(vp.Addr) {
				bc.indexFiltered++
				continue
			}
			filtered = append(filtered, vp)
		}
		work = filtered
		defer putPtrs(filtered)
	}
	// Unordered _limit short-circuit: once enough rows exist anywhere in
	// the cluster, stop reading vertices.
	full := func() bool {
		return op.emit && st.rowTarget > 0 && st.rowsOut.Load() >= st.rowTarget
	}
	var gkScratch []byte
	emit := func(vp core.VertexPtr, data bond.Value, schema *bond.Schema) error {
		if op.group {
			gkScratch = accumGroup(out.groups, pat.GroupBy, pat.Aggs, data, schema, gkScratch)
			// Per-worker incremental cap: a single batch's partial map must
			// respect the working-set budget too, checked as it grows
			// rather than after the batch.
			if len(out.groups) > e.cfg.MaxWorkingSet {
				return fmt.Errorf("%w: %d group partials", ErrWorkingSet, len(out.groups))
			}
			return nil
		}
		for i := range out.aggs {
			accumAgg(&out.aggs[i], pat.Aggs[i], data, schema)
		}
		if !buildRows {
			return nil
		}
		row := newRow(vp, data, pat, schema)
		if op.hops > 0 {
			if row.Values == nil {
				row.Values = getValues()
			}
			row.Values[HopsColumn] = bond.Int64(int64(op.hops))
		}
		out.rows = append(out.rows, row)
		st.rowsOut.Add(1)
		// Ordered-limit pruning: keep this batch's working set at the top
		// K(+skip) so large frontiers never ship large replies.
		if st.keep > 0 && len(out.rows) >= 2*st.keep {
			out.rows = topK(out.rows, pat.Orders, st.keep)
		}
		return nil
	}
	switch {
	case !op.pointerOnly():
		if full() {
			break
		}
		tx := e.store.Farm().CreateReadTransactionAt(sc, st.ts)
		var ef *inPlace // edge predicates' filter, shared by the batch
		if op.edge != nil && len(op.edge.Preds) > 0 {
			ef = getInPlace()
			defer putInPlace(ef)
		}
		err := st.materialize(sc, tx, work, pat, op.read, op.emit, &bc, func(v *core.VertexVisit, pass bool) (bool, error) {
			if pass {
				if op.emit {
					if err := emit(v.Ptr, v.Data, v.Schema); err != nil {
						return false, err
					}
				}
				if op.mark != nil {
					op.mark.add(v.Ptr.Addr)
					out.accepted++
				}
			}
			if op.edge != nil && (pass || op.through) {
				if err := st.traverse(sc, tx, v, op.edge, ef, out.next, &bc); err != nil {
					return false, err
				}
			}
			return !full(), nil
		})
		if err != nil {
			out.next.release()
			return nil, err
		}
	case buildRows:
		// Pointer-only rows: nothing of the vertex is consumed.
		for _, vp := range work {
			if full() {
				break
			}
			if err := emit(vp, bond.Null, nil); err != nil {
				return nil, err
			}
		}
	default:
		// Pointer-only aggregates: a terminal that reads nothing can only
		// hold `_count(*)` entries, and each counts the whole batch.
		for i := range out.aggs {
			out.aggs[i].count = int64(len(work))
		}
	}
	if st.keep > 0 && len(out.rows) > st.keep {
		out.rows = topK(out.rows, pat.Orders, st.keep)
	}
	return out, nil
}

// materialize is the engine's one read step: every vertex the executor
// touches — level batches, `_recurse` seeds and iterations, ordered-scan
// candidates, `_match` subpattern endpoints — is read here, through the
// store's batched visitor, with exactly the read set its pattern consumes.
// Each visited vertex is tested against pat's residual filters (type,
// predicates, `id`, `_match`; nil pat: none) and handed to each with the
// verdict; each returning more=false ends the batch before the next read.
// Predicates and the `id` test run on the encoded data object; a vertex
// that passes has the fields pat's shaping operators read decoded into
// v.Data when emit is set, and a vertex that fails has nothing decoded.
// Stats.VerticesRead counts the headers read here, and CostVertexRead is
// charged exactly when a data object is read.
func (st *execState) materialize(sc *fabric.Ctx, tx *farm.Tx, batch []core.VertexPtr, pat *VertexPattern, read ReadSet, emit bool, bc *batchCounts,
	each func(v *core.VertexVisit, pass bool) (more bool, err error)) error {
	cfg := &st.engine.cfg
	var f *inPlace
	if read.Kind == ReadFields {
		f = getInPlace()
		defer putInPlace(f)
	}
	return st.graph.VisitVertices(tx, batch, read.projection(), func(v *core.VertexVisit) (bool, error) {
		bc.vertices++
		if f != nil {
			sc.Work(cfg.CostVertexRead)
			if f.filterLayout == nil || f.schema != v.Schema || f.pk != v.PKField() {
				f.use(read.layout(v, pat))
			}
			if err := f.locate(v.Encoded); err != nil {
				return false, err
			}
		}
		pass := true
		if pat != nil {
			pass = pat.Type == "" || v.TypeName == pat.Type
			if pass && len(pat.Preds) > 0 {
				sc.Work(time.Duration(len(pat.Preds)) * cfg.CostPredEval)
				pass = f.holds(pat.Preds)
			}
			if pass && read.Key {
				pass = f.keyIs(pat.ID)
			}
			// `_match`: every subpattern (conjunction) must find an edge —
			// the star patterns of Q3 (§6).
			for i := 0; pass && i < len(pat.Matches); i++ {
				var err error
				if pass, err = st.evalMatchEdge(sc, tx, v, pat.Matches[i], bc); err != nil {
					return false, err
				}
			}
		}
		if pass && emit && f != nil {
			var err error
			if v.Data, err = f.decode(); err != nil {
				return false, err
			}
		}
		return each(v, pass)
	})
}

// traverse adds to next, split by owner, the far endpoints of v's
// half-edges matching the pattern, enumerated off the header the visit
// already read. Edge-data predicates run in place through ef, the batch's
// edge filter (nil when the pattern has none).
func (st *execState) traverse(sc *fabric.Ctx, tx *farm.Tx, v *core.VertexVisit, ep *EdgePattern, ef *inPlace, next *frontier, bc *batchCounts) error {
	cfg := &st.engine.cfg
	if ef != nil {
		s, err := st.graph.EdgeTypeSchema(sc, ep.Type)
		if err != nil {
			return err
		}
		if ef.filterLayout == nil || ef.schema != s {
			ef.use(edgeLayout(s, ep.Preds))
		}
	}
	var innerErr error
	err := v.Edges(edgeDir(ep), ep.Type, func(he core.HalfEdge) bool {
		bc.edges++
		sc.Work(cfg.CostEdgeEnum)
		if ef != nil {
			if he.Data.IsNil() {
				return true
			}
			buf, err := tx.Read(he.Data)
			if err == nil {
				err = ef.locate(buf.Data())
			}
			if err != nil {
				innerErr = err
				return false
			}
			sc.Work(time.Duration(len(ep.Preds)) * cfg.CostPredEval)
			if !ef.holds(ep.Preds) {
				return true
			}
		}
		innerErr = next.add(sc, he.Other)
		return innerErr == nil
	})
	if err == nil {
		err = innerErr
	}
	return err
}

func edgeDir(ep *EdgePattern) core.Direction {
	if ep.Out {
		return core.DirOut
	}
	return core.DirIn
}

// evalMatchEdge tests one `_match` subpattern against a visited vertex:
// does any of its half-edges matching ep lead to a vertex matching
// ep.Vertex? Pre-resolved targets compare by pointer.
func (st *execState) evalMatchEdge(sc *fabric.Ctx, tx *farm.Tx, v *core.VertexVisit, ep *EdgePattern, bc *batchCounts) (bool, error) {
	target, hasTarget := st.targets[ep]
	matched := false
	var innerErr error
	err := v.Edges(edgeDir(ep), ep.Type, func(he core.HalfEdge) bool {
		bc.edges++
		sc.Work(st.engine.cfg.CostEdgeEnum)
		if hasTarget {
			matched = !target.IsNil() && he.Other.Addr == target.Addr
		} else {
			matched, innerErr = st.matchVertex(sc, tx, he.Other, ep.Vertex, bc)
		}
		return !matched && innerErr == nil
	})
	if err == nil {
		err = innerErr
	}
	return matched, err
}

// matchVertex recursively tests an existence subpattern against a vertex.
func (st *execState) matchVertex(sc *fabric.Ctx, tx *farm.Tx, vp core.VertexPtr, pat *VertexPattern, bc *batchCounts) (bool, error) {
	if pat == nil {
		return true, nil
	}
	read := st.matchReads[pat]
	if read.Kind == ReadNone && pat.Edge == nil {
		return true, nil
	}
	matched := false
	err := st.materialize(sc, tx, []core.VertexPtr{vp}, pat, read, false, bc, func(v *core.VertexVisit, pass bool) (bool, error) {
		var err error
		if pass && pat.Edge != nil {
			pass, err = st.evalMatchEdge(sc, tx, v, pat.Edge, bc)
		}
		matched = pass
		return false, err
	})
	return matched, err
}
