package query

import (
	"slices"
	"strings"
	"sync"

	"a1/internal/core"
)

// The planner: a parsed Query is lowered once into a Plan — a small tree of
// physical operators — and exec.go interprets that tree (paper §3.4: A1 has
// no cost-based optimizer; the plan is derived from the document's
// structure, with user hints shaping the physical side). The split follows
// the classical logical-plan/physical-operator architecture graph-database
// surveys describe: compile once, execute many.
//
// Plans are structural: they record *which* operator serves each level and
// *where* its inputs live in the pattern (predicate positions, field
// names), never bound parameter values. One compilation therefore serves
// every binding of a prepared document, and the engine's plan cache stores
// the compiled plan alongside the AST.
//
// Index availability is not known at plan time (the planner has no schema
// access, and types may gain indexes later), so index-using operators are
// *candidates*. At execution time the candidates are ranked cost-based
// against live statistics (cost.go): each gets an estimated row count and a
// cost from the engine's cost constants, the cheapest runs first, and the
// structural preference order survives as the tiebreak (and as the whole
// order when statistics are missing).
// The interpreter still falls through on ErrNotFound, and Explain resolves
// the same ranking against the live catalog and statistics so the printed
// operator — annotated `est=N` — is the one that will actually run.

// StartPlan chooses how the root frontier is produced, from five source
// operators: IDLookup (primary key), IndexScan (secondary-index equality),
// OrderedIndexScan (index walk in `_orderby` order with top-K early stop),
// IndexRangeScan (secondary-index inequality bounds on the first indexed
// range-predicated field, resolved at ranking: indexedRangeField), and
// TypeScan (full primary-index scan). Candidate operators are ordered by
// preference; the interpreter falls through when the index an operator
// needs does not exist.
type StartPlan struct {
	// ByID: the root is a primary-key lookup (id or "$id" param).
	ByID bool
	// EqPreds indexes the root pattern's plain equality predicates, in
	// document order — secondary-index scan candidates.
	EqPreds []int
	// Ordered, when non-nil, is the ordered-index-scan candidate: the
	// terminal `_orderby` key is a plain field of the root type, so index
	// order is result order and top-K can stop the scan early.
	Ordered *OrderedScanPlan
	// ScanCapped: unfiltered, unordered, limited terminal — a full type
	// scan may stop after _limit+_skip hits.
	ScanCapped bool
}

// OrderedScanPlan describes the ordered index scan candidate.
type OrderedScanPlan struct {
	Field string // the `_orderby` field (must be secondary-indexed to serve)
	Desc  bool
}

// IndexFilterPlan pushes an indexed predicate into a traversal level: the
// incoming frontier is filtered by index *membership* before any vertex is
// read, instead of materializing every neighbor.
type IndexFilterPlan struct {
	// EqPreds indexes the level's plain equality predicates (candidates).
	EqPreds []int
	// HasRange: plain inequality predicates exist (range candidate).
	HasRange bool
}

// GroupPlan computes grouped aggregates: each worker reduces its batch to
// per-group partial states shipped as a key-sorted run, the coordinator
// k-way merges the runs in key order, and only group partials — never rows
// — cross the fabric. Having marks a `_having` filter: pushed to workers
// wherever a local partial proves the outcome, re-checked after the merge.
type GroupPlan struct {
	By     []FieldPath
	Having bool
}

// LevelPlan is the compiled form of one traversal level.
type LevelPlan struct {
	Depth    int
	Terminal bool
	// Start is the frontier source (depth 0 only).
	Start *StartPlan
	// IndexFilter pre-filters the incoming frontier by index membership
	// (depth >= 1 only, when an indexed predicate candidate exists).
	IndexFilter *IndexFilterPlan
	// HasFilter: the level re-evaluates predicates / type / _match against
	// each vertex (residual filtering keeps index over-approximation safe).
	HasFilter bool
	// Traverse: the level feeds the next frontier through its edge pattern
	// (nil on the terminal level).
	Traverse bool
	// Group computes grouped aggregates (terminal `_groupby`).
	Group *GroupPlan
	// OrderedTraverse, when non-nil, is the ordered-traversal-terminal
	// candidate (terminal levels at depth >= 1 only): the level's single
	// `_orderby` key is a plain field of the level's type and a `_limit`
	// bounds the result, so each machine can walk the field's secondary
	// index in result order restricted to its slice of the frontier and ship
	// only its top limit+skip rows, which the coordinator k-way merges. Like
	// every index candidate it resolves at run time: no index — or a cost
	// estimate that favors materialize-and-sort — falls back to the sort
	// path.
	OrderedTraverse *OrderedScanPlan
	// Recurse marks a level hosting a `_recurse` frontier expansion; the
	// next (and last) level is the recursion terminal.
	Recurse *RecursePlan
	// Read is what the level's operators consume of each vertex, and the
	// only thing that decides which FaRM objects a vertex costs.
	Read ReadSet
}

// ReadKind grades how much of a vertex a pattern's operators consume.
type ReadKind uint8

const (
	// ReadNone: nothing — the vertex pointer answers the level.
	ReadNone ReadKind = iota
	// ReadHeader: the header object alone (`_type`, `_match`).
	ReadHeader
	// ReadFields: the header plus the named fields of the data object.
	ReadFields
)

// ReadSet is the part of a vertex a pattern's operators consume, derived
// from the pattern alone: `_type` and `_match` need the header (type id,
// edge lists); predicates, an `id` test below the root, `_select` paths,
// field aggregates and `_orderby`/`_groupby` keys need their top-level
// fields; `_count(*)` needs nothing. The executor's one materialize step
// reads exactly this: no header for ReadNone (following an edge still reads
// it — the edge lists hang off the header), no data object short of
// ReadFields. The data object is filtered in place and decoded only for
// survivors, and only in the fields their shaping operators emit.
type ReadSet struct {
	Kind ReadKind
	// Fields holds the consumed top-level field names, sorted and distinct.
	Fields []string
	// All: a "*" path consumes the whole value.
	All bool
	// Key: an `id` test reads the primary-key field, which only the type
	// directory names.
	Key bool
	// layouts caches the in-place filter's layout per vertex schema, shared
	// by every copy of the read set (set for ReadFields).
	layouts *sync.Map
}

// readSetOf derives a pattern's read set. root marks the root level, whose
// access path already proves `_type` and `id`: every root source reads an
// index of the pattern's own type, and an `id` root is its key's lookup.
func readSetOf(vp *VertexPattern, root bool) ReadSet {
	var rs ReadSet
	add := func(fp *FieldPath) {
		rs.Kind = ReadFields
		if fp.Wildcard {
			rs.All = true
		} else {
			rs.Fields = append(rs.Fields, fp.Field)
		}
	}
	if (vp.Type != "" && !root) || len(vp.Matches) > 0 {
		rs.Kind = ReadHeader
	}
	if hasID(vp) && !root {
		rs.Kind, rs.Key = ReadFields, true
	}
	for i := range vp.Preds {
		add(&vp.Preds[i].Path)
	}
	emittedPaths(vp, add)
	slices.Sort(rs.Fields)
	rs.Fields = slices.Compact(rs.Fields)
	if rs.Kind == ReadFields {
		rs.layouts = new(sync.Map)
	}
	return rs
}

// emittedPaths calls fn with each field path a level's shaping operators
// read from a vertex that passed its filters: `_select` paths, field
// aggregates, `_groupby` keys and plain `_orderby` keys.
func emittedPaths(vp *VertexPattern, fn func(fp *FieldPath)) {
	for i := range vp.Selects {
		fn(&vp.Selects[i])
	}
	for i := range vp.Aggs {
		if vp.Aggs[i].Kind != AggCount {
			fn(&vp.Aggs[i].Path)
		}
	}
	for i := range vp.GroupBy {
		fn(&vp.GroupBy[i])
	}
	if len(vp.GroupBy) == 0 { // grouped `_orderby` keys name aggregate columns
		for i := range vp.Orders {
			fn(&vp.Orders[i].Path)
		}
	}
}

// hasID reports whether a pattern carries an `id`, literal or "$param".
func hasID(vp *VertexPattern) bool { return vp.ID != "" || vp.IDParam != "" }

// idLabel renders a pattern's `id` for Explain. A bound copy keeps IDParam
// alongside the substituted ID, so the "$param" placeholder renders only
// while the value is still unbound.
func idLabel(vp *VertexPattern) string {
	if vp.ID == "" && vp.IDParam != "" {
		return "$" + vp.IDParam
	}
	return vp.ID
}

// projection is the read set as the store's visitor takes it: the data
// object stays encoded for the in-place filter.
func (rs ReadSet) projection() core.Projection {
	if rs.Kind != ReadFields {
		return core.VisitHeader
	}
	return core.VisitEncoded
}

func (rs ReadSet) String() string {
	switch {
	case rs.Kind == ReadNone:
		return "none"
	case rs.Kind == ReadHeader:
		return "header"
	case rs.All:
		return "fields{*}"
	}
	names := rs.Fields
	if rs.Key {
		names = append([]string{"<key>"}, names...)
	}
	return "fields{" + strings.Join(names, ", ") + "}"
}

// RecursePlan is the compiled form of a `_recurse` expansion. Bounds live
// in the (possibly bound) pattern, not the structural plan.
type RecursePlan struct {
	Type string // edge label expanded
	Out  bool   // direction
}

// Plan is a compiled query: one LevelPlan per traversal level.
type Plan struct {
	Levels []*LevelPlan
}

// terminalOf returns the main chain's terminal pattern. A `_recurse` level
// terminates the chain at the recursion's `_vertex`.
func terminalOf(vp *VertexPattern) *VertexPattern {
	for {
		if vp.Recurse != nil {
			return vp.Recurse.Edge.Vertex
		}
		if vp.Edge == nil {
			return vp
		}
		vp = vp.Edge.Vertex
	}
}

// patternChain returns the main-chain patterns, one per level. A level
// hosting `_recurse` contributes two entries: the host and the recursion
// terminal (`_recurse`'s `_vertex`).
func patternChain(root *VertexPattern) []*VertexPattern {
	var pats []*VertexPattern
	for vp := root; vp != nil; {
		pats = append(pats, vp)
		if vp.Recurse != nil {
			pats = append(pats, vp.Recurse.Edge.Vertex)
			break
		}
		if vp.Edge == nil {
			break
		}
		vp = vp.Edge.Vertex
	}
	return pats
}

// plainEqPreds returns the positions of equality predicates on plain
// top-level fields — the only shape a secondary index can serve exactly.
func plainEqPreds(preds []Predicate) []int {
	var out []int
	for i, p := range preds {
		if p.Op == OpEq && p.Path.plain() {
			out = append(out, i)
		}
	}
	return out
}

// rangePred reports whether p is an inequality on a plain top-level field —
// a bound a secondary-index range walk can serve.
func rangePred(p Predicate) bool {
	switch p.Op {
	case OpGt, OpGe, OpLt, OpLe:
		return p.Path.plain()
	}
	return false
}

// orderedCandidate is the index-order candidate of a terminal pattern: a
// single plain `_orderby` key, a `_limit` to stop at, and no aggregation —
// the top-K shape whose result order the key's secondary index supplies.
// nil when the pattern is not of that shape.
func orderedCandidate(vp *VertexPattern) *OrderedScanPlan {
	if len(vp.Orders) != 1 || len(vp.Aggs) > 0 || len(vp.GroupBy) > 0 ||
		(vp.Limit <= 0 && vp.LimitParam == "") || !vp.Orders[0].Path.plain() {
		return nil
	}
	ob := vp.Orders[0]
	return &OrderedScanPlan{Field: ob.Path.Field, Desc: ob.Desc}
}

// compilePlan lowers a parsed query into its physical plan.
func compilePlan(q *Query) *Plan {
	pats := patternChain(q.Root)
	pl := &Plan{}
	for depth, vp := range pats {
		afterRecurse := depth > 0 && pats[depth-1].Recurse != nil
		lp := &LevelPlan{
			Depth:     depth,
			Terminal:  vp.Edge == nil && vp.Recurse == nil,
			HasFilter: len(vp.Preds) > 0 || len(vp.Matches) > 0 || vp.Type != "" || (depth > 0 && hasID(vp)),
			Traverse:  vp.Edge != nil,
		}
		lp.Read = readSetOf(vp, depth == 0)
		if vp.Recurse != nil {
			lp.Recurse = &RecursePlan{Type: vp.Recurse.Edge.Type, Out: vp.Recurse.Edge.Out}
		}
		if lp.Terminal && len(vp.GroupBy) > 0 {
			lp.Group = &GroupPlan{By: vp.GroupBy, Having: len(vp.Having) > 0}
		}
		if depth == 0 {
			lp.Start = compileStart(vp)
		} else if vp.Type != "" && !afterRecurse {
			// Traversal-level pushdown candidates: an indexed predicate can
			// filter the frontier by membership before any vertex read. The
			// type constraint is required — it names the index to consult.
			eq := plainEqPreds(vp.Preds)
			hasRange := slices.ContainsFunc(vp.Preds, rangePred)
			if len(eq) > 0 || hasRange {
				lp.IndexFilter = &IndexFilterPlan{EqPreds: eq, HasRange: hasRange}
			}
			// Ordered traversal terminal: the root OrderedIndexScan's shape,
			// but the frontier arrives from a traversal instead of an index.
			if lp.Terminal {
				lp.OrderedTraverse = orderedCandidate(vp)
			}
		}
		pl.Levels = append(pl.Levels, lp)
	}
	return pl
}

// compileStart chooses the root-frontier source candidates.
func compileStart(root *VertexPattern) *StartPlan {
	sp := &StartPlan{}
	if hasID(root) {
		sp.ByID = true
		return sp
	}
	sp.EqPreds = plainEqPreds(root.Preds)
	terminal := root.Edge == nil && root.Recurse == nil
	// Ordered index scan: only worthwhile (and only correct without a
	// second pass for every keyless vertex) when a limit bounds the walk —
	// the top-K case the operator exists for.
	if terminal && root.Type != "" {
		sp.Ordered = orderedCandidate(root)
	}
	if terminal && len(root.Orders) == 0 && len(root.Aggs) == 0 &&
		len(root.GroupBy) == 0 && len(root.Preds) == 0 && len(root.Matches) == 0 &&
		(root.Limit > 0 || root.LimitParam != "") {
		sp.ScanCapped = true
	}
	return sp
}

// Plan returns q's compiled physical plan, compiling on first use for
// queries constructed outside Parse.
func (q *Query) Plan() *Plan {
	if q.plan == nil {
		q.plan = compilePlan(q)
	}
	return q.plan
}

// indexProbe reports whether a vertex type has a secondary index on a
// field. Candidate ranking and Explain use it to resolve candidate
// operators against the live catalog; errors degrade to "not indexed".
type indexProbe func(typeName, field string) bool
