package query

import (
	"fmt"
	"strconv"
	"strings"

	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/fabric"
)

// Explain renders the compiled plan as an operator tree with its estimated
// cardinalities, and an execution reports the same estimates per level in
// Stats.Levels beside the actual ones: both come from one estimate walk
// (estimateLevels).

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
	start := rankStartCandidates(pl.Levels[0].Start, pats[0], pc)[0]
	ests, iters := estimateLevels(pl, pats, pc, &start)
	pt := &PlanTree{}
	for i, lp := range pl.Levels {
		vp := pats[i]
		src := "Frontier"
		if i == 0 {
			src = start.label
		} else if lp.OrderedTraverse != nil && ests[i] >= 0 {
			// Ordered traversal terminal: resolve the candidate against the
			// live index catalog and statistics with the chained frontier
			// estimate, so the printed operator is the one that will run.
			if choice := pc.rankOrderedTraverse(vp, lp.OrderedTraverse, ests[i]); choice.use {
				src = choice.label
			}
		}
		lv := &PlanNode{Op: "Level", Detail: src, Est: roundEst(ests[i]), Act: estUnknown}
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
			lv.Children = append(lv.Children, recurseNode(vp.Recurse, iters, ests[i+1]))
		case lp.Terminal:
			lv.Children = append(lv.Children, terminalNodes(vp)...)
		default:
			lv.Children = append(lv.Children, &PlanNode{
				Op: "Traverse", Detail: dirLabel(vp.Edge) + " " + vp.Edge.Type, Est: estUnknown, Act: estUnknown,
			})
		}
		pt.Levels = append(pt.Levels, lv)
	}
	return pt
}

// dirLabel names an edge pattern's direction in Explain and Stats.Levels.
func dirLabel(ep *EdgePattern) string {
	if ep.Out {
		return "out"
	}
	return "in"
}

// recurseNode builds the Recurse operator node, estimated to emit emitted
// rows, with one Iter child per expansion iteration carrying its
// newly-visited estimate.
func recurseNode(rp *RecursePattern, iters []float64, emitted float64) *PlanNode {
	lo := strconv.Itoa(rp.Min)
	if rp.MinParam != "" && rp.Min == 0 {
		lo = "$" + rp.MinParam
	}
	hi := strconv.Itoa(rp.Max)
	if rp.MaxParam != "" && rp.Max == 0 {
		hi = "$" + rp.MaxParam
	}
	detail := fmt.Sprintf("%s %s, %s..%s", dirLabel(rp.Edge), rp.Edge.Type, lo, hi)
	if rp.Shortest {
		detail += ", shortest"
	}
	n := &PlanNode{Op: "Recurse", Detail: detail, Est: roundEst(emitted), Act: estUnknown}
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
			return fmt.Sprintf("%s.%s = %s", vp.Type, p.Path.Field, p.valueLabel())
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
		parts = append(parts, fmt.Sprintf("%s %s %s", p.Path.Raw, opName(p.Op), p.valueLabel()))
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
				hps = append(hps, fmt.Sprintf("%s %s %s", hp.Raw, opName(hp.Op), hp.valueLabel()))
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

// valueLabel renders the comparison's constant. A bound copy keeps Param
// alongside the substituted Value, so the placeholder renders only while
// the value is still unbound (the zero Value, KindNone).
func (c comparison) valueLabel() string {
	if c.Param != "" && c.Value.Kind() == bond.KindNone {
		return "$" + c.Param
	}
	return fmt.Sprintf("%v", c.Value)
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

// initLevels builds the per-level estimated-vs-actual records once the
// start candidate is known, from the same estimate walk Explain renders.
func (st *execState) initLevels(pl *Plan, pats []*VertexPattern) {
	if st.chosen == nil {
		return
	}
	ests, iters := estimateLevels(pl, pats, st.pc, st.chosen)
	st.levels = make([]LevelStats, len(pl.Levels))
	for i := range pl.Levels {
		src := "Frontier"
		if i == 0 {
			src = st.chosen.label
		} else if ep := pats[i-1].Edge; ep != nil {
			src = fmt.Sprintf("Traverse(%s %s)", dirLabel(ep), ep.Type)
		} else if rp := pats[i-1].Recurse; rp != nil {
			src = fmt.Sprintf("Recurse(%s %s)", dirLabel(rp.Edge), rp.Edge.Type)
		}
		st.levels[i] = LevelStats{Depth: i, Source: src, EstRows: roundEst(ests[i])}
	}
	// A `_recurse` chain appends one record per iteration after the level
	// entries — the est half of the per-iteration est/act feedback; the
	// expansion fills act as iterations run (never-reached iterations
	// report 0 new vertices).
	for i, vp := range pats {
		rp := vp.Recurse
		if rp == nil {
			continue
		}
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

// setLevelSource overrides a level's reported access path and estimate once
// a runtime decision (e.g. OrderedTraverse) replaces the structural default.
func (st *execState) setLevelSource(level int, src string, est float64) {
	if level < len(st.levels) {
		st.levels[level].Source = src
		if est >= 0 {
			st.levels[level].EstRows = roundEst(est)
		}
	}
}
