package query

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/fabric"
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
	if root.ID != "" || root.IDParam != "" {
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

// PlanNode is one operator of the structured Explain tree. Est and Act are
// row cardinalities; -1 means unknown (no statistics, or — for Act — a tree
// produced without executing the query).
type PlanNode struct {
	Op       string      `json:"op"`
	Detail   string      `json:"detail,omitempty"`
	Est      int64       `json:"est"`
	Act      int64       `json:"act"`
	Children []*PlanNode `json:"children,omitempty"`
}

// PlanTree is the structured form of Explain: one node per traversal level
// (Op "Level", Detail the frontier-source operator), with the level's
// operators — IndexFilter, Filter, Read (the level's read set), Traverse,
// Recurse (and its per-iteration Iter children), GroupAgg, Having,
// Aggregate, Shape — as children. The string Explain rendering is derived
// from this tree, so the two forms always agree.
type PlanTree struct {
	Levels []*PlanNode `json:"levels"`
}

// Explain renders the compiled operator tree for a query document,
// resolving index-candidate operators against the live catalog and ranking
// them against live statistics, so the printed operator is the one that
// will run; levels carry their estimated cardinalities (`est=N`). The
// document may reference unbound "$name" parameters; they print as
// placeholders and estimate as average values.
func (e *Engine) Explain(c *fabric.Ctx, g *core.Graph, doc []byte) (string, error) {
	pt, err := e.ExplainPlan(c, g, doc, nil)
	if err != nil {
		return "", err
	}
	return pt.String(), nil
}

// ExplainPlan is the structured Explain: the same resolved operator tree
// the string form renders, as typed nodes. params, when non-empty, bind the
// document's placeholders loosely (present names bound, absent names left
// as placeholders) so plan-affecting parameters — predicate constants,
// `_limit`, `_recurse` bounds — shape the tree the way they would shape the
// execution.
func (e *Engine) ExplainPlan(c *fabric.Ctx, g *core.Graph, doc []byte, params Params) (*PlanTree, error) {
	q, _, err := e.plan(doc, false)
	if err != nil {
		return nil, err
	}
	if len(params) > 0 {
		if q, err = q.bind(params, true); err != nil {
			return nil, err
		}
	}
	return q.Plan().Tree(q, newPlanContext(c, e, g)), nil
}

// Tree resolves the plan's candidate operators against the live catalog and
// statistics and returns the structured operator tree.
func (pl *Plan) Tree(q *Query, pc *planContext) *PlanTree {
	pats := patternChain(q.Root)
	var ests []float64
	var start startCandidate
	if len(pl.Levels) > 0 && pl.Levels[0].Start != nil {
		cands := rankStartCandidates(pl.Levels[0].Start, pats[0], pc)
		start = cands[0]
		ests = estimateLevels(pl, pats, pc, &start)
	}
	pt := &PlanTree{}
	for i, lp := range pl.Levels {
		if i >= len(pats) {
			break
		}
		vp := pats[i]
		src := "Frontier"
		if i == 0 && lp.Start != nil {
			src = start.label
		} else if lp.OrderedTraverse != nil && i < len(ests) && ests[i] >= 0 {
			// Ordered traversal terminal: resolve the candidate against the
			// live index catalog and statistics with the chained frontier
			// estimate, so the printed operator is the one that will run.
			if choice := pc.rankOrderedTraverse(vp, lp.OrderedTraverse, ests[i]); choice.use {
				src = choice.label
			}
		}
		est := int64(estUnknown)
		if i < len(ests) && ests[i] >= 0 {
			est = roundEst(ests[i])
		}
		lv := &PlanNode{Op: "Level", Detail: src, Est: est, Act: estUnknown}
		if lp.IndexFilter != nil {
			fest := int64(estUnknown)
			if n, ok := pc.filterEstimate(vp, lp.IndexFilter); ok {
				fest = roundEst(n)
			}
			lv.Children = append(lv.Children, &PlanNode{
				Op: "IndexFilter", Detail: describeIndexFilter(lp.IndexFilter, vp, pc.probe),
				Est: fest, Act: estUnknown,
			})
		}
		if lp.HasFilter {
			lv.Children = append(lv.Children, &PlanNode{
				Op: "Filter", Detail: describeFilter(vp, i == 0), Est: estUnknown, Act: estUnknown,
			})
		}
		lv.Children = append(lv.Children, &PlanNode{
			Op: "Read", Detail: lp.Read.String(), Est: estUnknown, Act: estUnknown,
		})
		switch {
		case lp.Recurse != nil:
			rootsEst := float64(estUnknown)
			if i < len(ests) && ests[i] >= 0 && pc.sum != nil {
				exclude := ""
				if i == 0 {
					exclude = start.field
				}
				rootsEst = ests[i] * pc.residualSelectivity(vp, exclude)
			}
			lv.Children = append(lv.Children, recurseNode(vp.Recurse, pats[i+1], pc, rootsEst))
		case lp.Terminal:
			lv.Children = append(lv.Children, terminalNodes(vp)...)
		default:
			ep := vp.Edge
			dir := "out"
			if !ep.Out {
				dir = "in"
			}
			lv.Children = append(lv.Children, &PlanNode{
				Op: "Traverse", Detail: dir + " " + ep.Type, Est: estUnknown, Act: estUnknown,
			})
		}
		pt.Levels = append(pt.Levels, lv)
	}
	return pt
}

// recurseNode builds the Recurse operator node with one Iter child per
// expansion iteration, each carrying its newly-visited estimate.
func recurseNode(rp *RecursePattern, term *VertexPattern, pc *planContext, rootsEst float64) *PlanNode {
	dir := "out"
	if !rp.Edge.Out {
		dir = "in"
	}
	lo := strconv.Itoa(rp.Min)
	if rp.MinParam != "" && rp.Min == 0 {
		lo = "$" + rp.MinParam
	}
	hi := strconv.Itoa(rp.Max)
	if rp.MaxParam != "" && rp.Max == 0 {
		hi = "$" + rp.MaxParam
	}
	detail := fmt.Sprintf("%s %s, %s..%s", dir, rp.Edge.Type, lo, hi)
	if rp.Shortest {
		detail += ", shortest"
	}
	n := &PlanNode{Op: "Recurse", Detail: detail, Est: estUnknown, Act: estUnknown}
	iters, emitted := pc.recurseEstimates(rp, term, rootsEst)
	if emitted >= 0 {
		n.Est = roundEst(emitted)
	}
	for k, it := range iters {
		n.Children = append(n.Children, &PlanNode{
			Op: "Iter", Detail: fmt.Sprintf("%d/%d", k+1, rp.Max),
			Est: roundEst(it), Act: estUnknown,
		})
	}
	return n
}

// estSuffix renders a node cardinality annotation: ` est=N`, plus ` act=M`
// when the tree carries execution feedback.
func estSuffix(n *PlanNode) string {
	s := ""
	if n.Est >= 0 {
		s += fmt.Sprintf(" est=%d", n.Est)
	}
	if n.Act >= 0 {
		s += fmt.Sprintf(" act=%d", n.Act)
	}
	return s
}

// String renders the tree in the indented `L%d <op> est=N` form the string
// Explain has always produced.
func (pt *PlanTree) String() string {
	var b strings.Builder
	for i, lv := range pt.Levels {
		indent := strings.Repeat("  ", i)
		fmt.Fprintf(&b, "%sL%d %s%s\n", indent, i, lv.Detail, estSuffix(lv))
		for _, ch := range lv.Children {
			renderNode(&b, ch, indent+"  ")
		}
	}
	return b.String()
}

func renderNode(b *strings.Builder, n *PlanNode, indent string) {
	fmt.Fprintf(b, "%s%s(%s)%s\n", indent, n.Op, n.Detail, estSuffix(n))
	for _, ch := range n.Children {
		renderNode(b, ch, indent+"  ")
	}
}

// describeIndexFilter resolves which membership index a traversal level
// would consult.
func describeIndexFilter(ifp *IndexFilterPlan, vp *VertexPattern, indexed indexProbe) string {
	for _, pi := range ifp.EqPreds {
		p := vp.Preds[pi]
		if indexed(vp.Type, p.Path.Field) {
			return fmt.Sprintf("%s.%s = %s", vp.Type, p.Path.Field, predValue(p))
		}
	}
	if f, ok := indexedRangeField(vp, indexed); ok {
		return fmt.Sprintf("%s.%s range", vp.Type, f)
	}
	return "no usable index; full reads"
}

// describeFilter summarizes a level's residual predicates. The root's `id`
// is its access path's (IDLookup), not a filter.
func describeFilter(vp *VertexPattern, root bool) string {
	var parts []string
	if vp.Type != "" {
		parts = append(parts, "_type="+vp.Type)
	}
	if hasID(vp) && !root {
		parts = append(parts, "id="+strconv.Quote(idLabel(vp)))
	}
	for _, p := range vp.Preds {
		parts = append(parts, fmt.Sprintf("%s %s %s", p.Path.Raw, opName(p.Op), predValue(p)))
	}
	if len(vp.Matches) > 0 {
		parts = append(parts, fmt.Sprintf("%d _match", len(vp.Matches)))
	}
	return strings.Join(parts, ", ")
}

// terminalNodes builds the terminal level's shaping operator nodes.
func terminalNodes(vp *VertexPattern) []*PlanNode {
	node := func(op, detail string) *PlanNode {
		return &PlanNode{Op: op, Detail: detail, Est: estUnknown, Act: estUnknown}
	}
	var lines []*PlanNode
	if len(vp.GroupBy) > 0 {
		var keys, aggs []string
		for _, fp := range vp.GroupBy {
			keys = append(keys, fp.Raw)
		}
		for _, a := range vp.Aggs {
			aggs = append(aggs, a.Raw)
		}
		lines = append(lines, node("GroupAgg", fmt.Sprintf("by %s: %s",
			strings.Join(keys, ", "), strings.Join(aggs, ", "))))
		if len(vp.Having) > 0 {
			var hps []string
			for _, hp := range vp.Having {
				hps = append(hps, fmt.Sprintf("%s %s %s", hp.Raw, opName(hp.Op), havingValue(hp)))
			}
			lines = append(lines, node("Having", strings.Join(hps, ", ")))
		}
	} else if len(vp.Aggs) > 0 {
		var aggs []string
		for _, a := range vp.Aggs {
			aggs = append(aggs, a.Raw)
		}
		lines = append(lines, node("Aggregate", strings.Join(aggs, ", ")))
	}
	var shape []string
	if len(vp.Orders) > 0 {
		var keys []string
		for _, ob := range vp.Orders {
			k := ob.Path.Raw
			if ob.Desc {
				k = "-" + k
			}
			keys = append(keys, k)
		}
		shape = append(shape, "orderby "+strings.Join(keys, ", "))
	}
	if vp.Limit > 0 {
		shape = append(shape, fmt.Sprintf("limit %d", vp.Limit))
	} else if vp.LimitParam != "" {
		shape = append(shape, "limit $"+vp.LimitParam)
	}
	if vp.Skip > 0 {
		shape = append(shape, fmt.Sprintf("skip %d", vp.Skip))
	} else if vp.SkipParam != "" {
		shape = append(shape, "skip $"+vp.SkipParam)
	}
	if len(vp.Selects) > 0 {
		var sels []string
		for _, s := range vp.Selects {
			sels = append(sels, s.Raw)
		}
		shape = append(shape, "select "+strings.Join(sels, ", "))
	}
	if len(shape) > 0 {
		lines = append(lines, node("Shape", strings.Join(shape, "; ")))
	}
	return lines
}

// predValue renders a predicate's constant. A bound copy keeps Param
// alongside the substituted Value, so the placeholder renders only while
// the value is still unbound (the zero Value, KindNone).
func predValue(p Predicate) string {
	if p.Param != "" && p.Value.Kind() == bond.KindNone {
		return "$" + p.Param
	}
	return fmt.Sprintf("%v", p.Value)
}

func havingValue(hp HavingPred) string {
	if hp.Param != "" && hp.Value.Kind() == bond.KindNone {
		return "$" + hp.Param
	}
	return fmt.Sprintf("%v", hp.Value)
}

func opName(op Op) string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpPrefix:
		return "prefix"
	}
	return "?"
}
