package query

import (
	"fmt"

	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/fabric"
	"a1/internal/stats"
)

// Cost-based access-path selection. Plans stay structural (plan.go): they
// enumerate *candidate* operators per level. At execution (and Explain)
// time this file ranks the candidates against live statistics — per-type
// cardinalities, per-indexed-field distinct/heavy-hitter estimates, mean
// edge fan-outs — using the engine's CPU cost constants, and the cheapest
// candidate runs. When statistics are unavailable the fixed preference
// order survives as the tiebreak and fallback, so behavior degrades to the
// structural planner, never worse.

// Default selectivities when statistics cannot answer (the System R
// classics), and the fan-out assumed for edge labels never seen.
const (
	defaultEqSel    = 0.1
	defaultRangeSel = 1.0 / 3
	defaultFanout   = 8.0
)

// estUnknown marks estimates statistics could not produce.
const estUnknown = -1

// planContext carries one execution's planner inputs: the cluster-wide
// stats summary (nil without statistics: the structural fallback), the live
// index probe and catalog, the cluster size (per-machine partial scans fan
// out across it), and the cost model.
type planContext struct {
	sum      *stats.GraphSummary
	probe    indexProbe
	c        *fabric.Ctx
	graph    *core.Graph
	cfg      *Config
	machines int
}

// newPlanContext snapshots the planner inputs for one execution or Explain.
func newPlanContext(c *fabric.Ctx, e *Engine, g *core.Graph) *planContext {
	pc := &planContext{
		cfg:      &e.cfg,
		probe:    indexProbeFor(c, g),
		c:        c,
		graph:    g,
		machines: e.store.Farm().Fabric().Machines(),
	}
	if !e.noStats {
		pc.sum = e.store.StatsSummary(c, g.Tenant(), g.Name())
	}
	return pc
}

// indexProbeFor resolves index existence against the live catalog; errors
// degrade to "not indexed".
func indexProbeFor(c *fabric.Ctx, g *core.Graph) indexProbe {
	return func(typeName, field string) bool {
		_, secondary, err := g.VertexTypeIndexInfo(c, typeName)
		if err != nil {
			return false
		}
		for _, f := range secondary {
			if f == field {
				return true
			}
		}
		return false
	}
}

// costModel returns the per-entry costs in abstract units, substituting the
// default constants when the engine was configured without a cost model
// (zero values) so ranking still discriminates.
func (pc *planContext) costModel() (read, merge, pred float64) {
	def := DefaultConfig()
	read = float64(pc.cfg.CostVertexRead)
	if read == 0 {
		read = float64(def.CostVertexRead)
	}
	merge = float64(pc.cfg.CostMerge)
	if merge == 0 {
		merge = float64(def.CostMerge)
	}
	pred = float64(pc.cfg.CostPredEval)
	if pred == 0 {
		pred = float64(def.CostPredEval)
	}
	return read, merge, pred
}

// typeCount returns a type's cluster-wide cardinality.
func (pc *planContext) typeCount(typ string) (float64, bool) {
	n, ok := pc.sum.TypeCount(typ)
	if !ok {
		return 0, false
	}
	return float64(n), true
}

// eqRows estimates how many vertices of a type match an equality predicate.
// Unbound parameters ("$name" before Bind — the Explain path) estimate as
// an average value; fields without recorded values fall back to the default
// equality selectivity. The constant is looked up as the index probes it
// (eqConst), and one no stored value can equal matches nothing.
func (pc *planContext) eqRows(typ string, p Predicate) (float64, bool) {
	tc, ok := pc.typeCount(typ)
	if !ok {
		return 0, false
	}
	fs, ok := pc.sum.FieldStats(typ, p.Path.Field)
	if !ok {
		return tc * defaultEqSel, true
	}
	if p.Param != "" && p.Value.Kind() == 0 {
		d := fs.Distinct
		if d < 1 {
			d = 1
		}
		return float64(fs.Count) / float64(d), true
	}
	v, ok := pc.eqConst(typ, &p)
	if !ok {
		return 0, true
	}
	return fs.EqEstimate(v), true
}

// eqConst is an equality predicate's constant as its field's secondary
// index is probed with: coerced to the field's stored kind as the range
// [v, v], so `"f": 3` on a double field finds 3.0. ok=false means no value
// of that kind equals it; the constant comes back as written, and its
// foreign kind tag matches no index key.
func (pc *planContext) eqConst(typ string, p *Predicate) (bond.Value, bool) {
	v := p.Value
	schema, err := pc.graph.VertexTypeSchema(pc.c, typ)
	if err != nil {
		return v, true
	}
	f, ok := schema.FieldByName(p.Path.Field)
	if !ok || v.Kind() == f.Type.Kind {
		return v, true
	}
	lo, _, st := coerceBound(v, true, f.Type.Kind, true)
	if c, _ := bond.Compare(lo, v); st == boundOK && c == 0 {
		return lo, true
	}
	return v, false
}

// rangeRows estimates how many vertices an indexed range predicate admits.
func (pc *planContext) rangeRows(typ, field string) (float64, bool) {
	tc, ok := pc.typeCount(typ)
	if !ok {
		return 0, false
	}
	if fs, ok := pc.sum.FieldStats(typ, field); ok {
		return float64(fs.Count) * defaultRangeSel, true
	}
	return tc * defaultRangeSel, true
}

// predSelectivity estimates the fraction of a type's vertices one residual
// predicate passes.
func (pc *planContext) predSelectivity(typ string, p Predicate) float64 {
	switch p.Op {
	case OpEq:
		if tc, ok := pc.typeCount(typ); ok && tc > 0 {
			if rows, ok := pc.eqRows(typ, p); ok {
				sel := rows / tc
				if sel > 1 {
					sel = 1
				}
				return sel
			}
		}
		return defaultEqSel
	case OpGt, OpGe, OpLt, OpLe:
		return defaultRangeSel
	default:
		// _ne / _prefix: assume they filter little.
		return 1
	}
}

// residualSelectivity multiplies the selectivities of a pattern's
// predicates, excluding the field the access path already consumed.
func (pc *planContext) residualSelectivity(pat *VertexPattern, exclude string) float64 {
	sel := 1.0
	for _, p := range pat.Preds {
		if p.Path.Field == exclude {
			continue
		}
		sel *= pc.predSelectivity(pat.Type, p)
	}
	return sel
}

// fanout estimates an edge pattern's mean fan-out per frontier vertex.
func (pc *planContext) fanout(ep *EdgePattern) float64 {
	if deg, ok := pc.sum.MeanOutDegree(ep.Type); ok {
		return deg
	}
	return defaultFanout
}

// sourceKind identifies a root-frontier operator.
type sourceKind int

const (
	srcIDLookup sourceKind = iota
	srcIndexScan
	srcOrderedScan
	srcRangeScan
	srcTypeScan
)

// startCandidate is one costed root access path.
type startCandidate struct {
	kind    sourceKind
	predIdx int     // Preds position for srcIndexScan
	field   string  // the predicate field an index scan serves: residual selectivity excludes it
	est     float64 // estimated frontier rows produced (estUnknown without stats)
	cost    float64 // estimated cost (estUnknown without stats)
	label   string  // operator rendering for Explain and Stats.Levels
}

// rankStartCandidates enumerates the servable root access paths in the
// structural preference order — IDLookup, equality IndexScan (document
// order), OrderedIndexScan, IndexRangeScan, TypeScan — costs each against
// statistics, and reorders by cost when statistics cover the type. The
// stable sort keeps the preference order as the tiebreak, and a type
// without statistics gets the preference order untouched.
func rankStartCandidates(sp *StartPlan, pat *VertexPattern, pc *planContext) []startCandidate {
	if sp.ByID {
		return []startCandidate{{kind: srcIDLookup, est: 1, label: fmt.Sprintf("IDLookup(id=%q)", idLabel(pat))}}
	}
	read, merge, pred := pc.costModel()
	tc, haveTC := pc.typeCount(pat.Type)
	cands := make([]startCandidate, 0, 4)

	for _, pi := range sp.EqPreds {
		p := pat.Preds[pi]
		if !pc.probe(pat.Type, p.Path.Field) {
			continue
		}
		c := startCandidate{kind: srcIndexScan, predIdx: pi, field: p.Path.Field, est: estUnknown, cost: estUnknown,
			label: fmt.Sprintf("IndexScan(%s.%s = %s)", pat.Type, p.Path.Field, p.valueLabel())}
		if rows, ok := pc.eqRows(pat.Type, p); ok {
			c.est = rows
			c.cost = rows * (merge + read)
		}
		cands = append(cands, c)
	}

	if sp.Ordered != nil && pc.probe(pat.Type, sp.Ordered.Field) {
		dir := "asc"
		if sp.Ordered.Desc {
			dir = "desc"
		}
		target := float64(pat.Limit + pat.Skip)
		stop := ""
		if pat.Limit > 0 {
			stop = fmt.Sprintf(", stop after %d", pat.Limit+pat.Skip)
		} else if pat.LimitParam != "" {
			stop = ", stop after $" + pat.LimitParam
			target = float64(pc.cfg.PageSize) // unbound: assume a page
		}
		c := startCandidate{kind: srcOrderedScan, est: estUnknown, cost: estUnknown,
			label: fmt.Sprintf("OrderedIndexScan(%s.%s %s%s)", pat.Type, sp.Ordered.Field, dir, stop)}
		if haveTC {
			// The walk reads vertices until `target` survive the residual
			// predicates, so expected reads scale inversely with their
			// selectivity, capped by the type itself.
			sel := pc.residualSelectivity(pat, sp.Ordered.Field)
			reads := tc
			if sel > 0 {
				reads = target / sel
			}
			if reads > tc {
				reads = tc
			}
			est := target
			if est > tc*sel {
				est = tc * sel
			}
			c.est = est
			c.cost = reads * (merge + read)
		}
		cands = append(cands, c)
	}

	if f, ok := indexedRangeField(pat, pc.probe); ok {
		c := startCandidate{kind: srcRangeScan, field: f, est: estUnknown, cost: estUnknown,
			label: fmt.Sprintf("IndexRangeScan(%s.%s)", pat.Type, f)}
		if rows, ok := pc.rangeRows(pat.Type, f); ok {
			c.est = rows
			c.cost = rows * (merge + read)
		}
		cands = append(cands, c)
	}

	ts := startCandidate{kind: srcTypeScan, est: estUnknown, cost: estUnknown,
		label: fmt.Sprintf("TypeScan(%s)", pat.Type)}
	if sp.ScanCapped {
		ts.label = fmt.Sprintf("TypeScan(%s, capped)", pat.Type)
	}
	if haveTC {
		entries := tc
		if sp.ScanCapped && pat.Limit > 0 && float64(pat.Limit+pat.Skip) < entries {
			entries = float64(pat.Limit + pat.Skip)
		}
		ts.est = entries
		ts.cost = entries*(merge+read) + entries*float64(len(pat.Preds))*pred
	}
	cands = append(cands, ts)

	if !haveTC {
		return cands
	}
	// Stable insertion keeps the preference order for equal costs.
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].cost < cands[j-1].cost; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	return cands
}

// orderedTraverseChoice is the costed decision for an ordered traversal
// terminal: whether per-machine index-order partial scans beat reading the
// whole frontier and sorting it at the coordinator.
type orderedTraverseChoice struct {
	use   bool
	label string // operator rendering for Explain and Stats.Levels
	est   float64
}

// rankOrderedTraverse costs the OrderedTraverse candidate against the
// materialize-and-sort fallback for a terminal frontier of the given size.
// frontier is the actual frontier length at execution time and the chained
// level estimate during Explain.
//
// The fallback reads every frontier vertex, so its cost scales with the
// frontier. The ordered traversal instead has each of the (up to) M
// machines holding frontier vertices walk the order field's index until
// `limit+skip` of *its* members survive the residual predicates — expected
// walk length per machine is the index size scaled by the fraction of hits
// needed (index entries are cheap: no vertex read), and only member hits
// are read. Statistics supply the index entry count; without them the
// decision degrades to the sort fallback.
func (pc *planContext) rankOrderedTraverse(pat *VertexPattern, otp *OrderedScanPlan, frontier float64) orderedTraverseChoice {
	no := orderedTraverseChoice{est: estUnknown}
	if pc.sum == nil || frontier <= 0 {
		return no
	}
	if !pc.probe(pat.Type, otp.Field) {
		return no
	}
	target := float64(pat.Limit + pat.Skip)
	if pat.Limit <= 0 {
		if pat.LimitParam == "" {
			return no
		}
		target = float64(pc.cfg.PageSize) // unbound $limit: assume a page
	}
	fs, ok := pc.sum.FieldStats(pat.Type, otp.Field)
	if !ok || fs.Count <= 0 {
		return no
	}
	indexEntries := float64(fs.Count)
	read, merge, pred := pc.costModel()
	enum := float64(pc.cfg.CostEdgeEnum)
	if enum == 0 {
		enum = float64(DefaultConfig().CostEdgeEnum)
	}
	npreds := float64(len(pat.Preds))

	sel := pc.residualSelectivity(pat, otp.Field)
	if sel <= 0 {
		sel = defaultEqSel
	}
	// Machines holding frontier vertices (random placement spreads them).
	m := float64(pc.machines)
	if frontier < m {
		m = frontier
	}
	if m < 1 {
		m = 1
	}
	perMachine := frontier / m
	// Member hits needed per machine before target rows survive residual
	// filtering, capped by the machine's share of the frontier.
	hits := target / sel
	if hits > perMachine {
		hits = perMachine
	}
	// Expected index entries walked per machine to encounter that many of
	// its members (hits are spread uniformly through the index).
	walk := indexEntries
	if perMachine > 0 && hits < perMachine {
		walk = indexEntries * hits / perMachine
	}
	orderedCost := m * (walk*enum + hits*(read+npreds*pred))
	fallbackCost := frontier * (merge + read + npreds*pred)

	dir := "asc"
	if otp.Desc {
		dir = "desc"
	}
	stop := fmt.Sprintf("stop after %d", int64(target))
	if pat.Limit <= 0 {
		stop = "stop after $" + pat.LimitParam
	}
	est := target
	if est > frontier*sel {
		est = frontier * sel
	}
	return orderedTraverseChoice{
		use:   orderedCost < fallbackCost,
		label: fmt.Sprintf("OrderedTraverse(%s.%s %s, %s)", pat.Type, otp.Field, dir, stop),
		est:   est,
	}
}

// filterEstimate estimates the membership-set size of a traversal level's
// first servable IndexFilter candidate (used to size the scan budget).
func (pc *planContext) filterEstimate(pat *VertexPattern, ifp *IndexFilterPlan) (float64, bool) {
	if pc.sum == nil {
		return 0, false
	}
	for _, pi := range ifp.EqPreds {
		p := pat.Preds[pi]
		if !pc.probe(pat.Type, p.Path.Field) {
			continue
		}
		return pc.eqRows(pat.Type, p)
	}
	if f, ok := indexedRangeField(pat, pc.probe); ok {
		return pc.rangeRows(pat.Type, f)
	}
	return 0, false
}

// estimateLevels chains the chosen start estimate through the traversal:
// each hop multiplies the surviving rows by the level's residual predicate
// selectivity and the edge label's mean fan-out. A level without usable
// statistics poisons the rest of the chain to estUnknown. iters is the
// chain's `_recurse` expansion, one newly-visited estimate per iteration
// (nil without one, or without an estimate for its roots). Explain and
// Stats.Levels both render this one walk.
func estimateLevels(pl *Plan, pats []*VertexPattern, pc *planContext, start *startCandidate) (levels, iters []float64) {
	levels = make([]float64, len(pl.Levels))
	cur := start.est
	levels[0] = cur
	for i := 0; i+1 < len(pl.Levels); i++ {
		if cur < 0 || pc.sum == nil {
			levels[i+1] = estUnknown
			cur = estUnknown
			continue
		}
		pat := pats[i]
		exclude := ""
		if i == 0 {
			exclude = start.field
		}
		if pat.Recurse != nil {
			iters, cur = pc.recurseEstimates(pat.Recurse, pats[i+1], cur*pc.residualSelectivity(pat, exclude))
			levels[i+1] = cur
			continue
		}
		cur = cur * pc.residualSelectivity(pat, exclude) * pc.fanout(pat.Edge)
		levels[i+1] = cur
	}
	return levels, iters
}

// recurseEstimates predicts a `_recurse` expansion from the edge label's
// degree statistics: iteration k's newly-visited estimate is the previous
// frontier times the label's mean fan-out, capped by the unvisited
// remainder of the terminal type's population (the visited set makes the
// reachable set — not the path count — the ceiling). iters holds one entry
// per iteration 1..Max; emitted sums the iterations >= Min, scaled by the
// terminal pattern's residual selectivity. An unbound `_max` (Explain on
// an unbound document) returns no iterations and estUnknown.
func (pc *planContext) recurseEstimates(rp *RecursePattern, term *VertexPattern, roots float64) (iters []float64, emitted float64) {
	if rp.Max < 1 || roots < 0 || pc.sum == nil {
		return nil, estUnknown
	}
	fan := pc.fanout(rp.Edge)
	capN, haveCap := 0.0, false
	if term.Type != "" {
		capN, haveCap = pc.typeCount(term.Type)
	}
	min := rp.Min
	if min < 1 {
		min = 1 // unbound $min: assume the default
	}
	visited := roots
	cur := roots
	total := 0.0
	iters = make([]float64, 0, rp.Max)
	for k := 1; k <= rp.Max; k++ {
		next := cur * fan
		if haveCap {
			if remaining := capN - visited; next > remaining {
				next = remaining
			}
			if next < 0 {
				next = 0
			}
		}
		iters = append(iters, next)
		visited += next
		if k >= min {
			total += next
		}
		cur = next
	}
	return iters, total * pc.residualSelectivity(term, "")
}

// roundEst converts a float estimate to the int64 the Stats report.
func roundEst(v float64) int64 {
	if v < 0 {
		return estUnknown
	}
	return int64(v + 0.5)
}
