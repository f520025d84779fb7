package query

import (
	"math"
	"sort"

	"a1/internal/bond"
	"a1/internal/fabric"
)

// Result shaping: distributed partial aggregation (scalar and grouped) and
// ordered top-K merging. Each worker batch reduces its slice of the
// terminal frontier to scalars (aggregates), per-group partial states
// (grouped aggregates), or a pruned, locally ordered row prefix
// (orderby+limit); the coordinator merges the shipped partials. This keeps
// the bytes returned per RPC proportional to the answer, not to the
// frontier (paper §3.4 ships operators to data for the same reason).

// aggState is one aggregate's partial result for a batch of vertices. Only
// the fields the aggregate kind needs are populated.
type aggState struct {
	count int64 // rows counted (AggCount) or numeric values seen (AggSum/AggAvg)

	sum      float64 // running sum as float
	isum     int64   // exact integer sum is hi·2^64 + isum
	hi       int64   // carries out of isum; nonzero: the sum overflows int64
	floatSum bool    // a float contributed: report the float sum

	mm     bond.Value // current min or max
	seenMM bool
}

// accumAgg folds one vertex's data into an aggregate state.
func accumAgg(st *aggState, a Aggregate, data bond.Value, schema *bond.Schema) {
	if a.Kind == AggCount {
		st.count++
		return
	}
	v, ok := resolvePath(data, a.Path, schema)
	if !ok || v.IsNull() {
		return
	}
	switch a.Kind {
	case AggSum, AggAvg:
		if !v.Kind().Numeric() {
			return
		}
		st.count++
		st.sum += v.AsFloat()
		switch v.Kind() {
		case bond.KindFloat, bond.KindDouble:
			st.floatSum = true
		case bond.KindUInt64:
			st.addInt(int64(v.AsUint()))
			if v.AsUint() > math.MaxInt64 {
				st.hi++ // int64(u) is u − 2^64
			}
		default:
			st.addInt(v.AsInt())
		}
	case AggMin, AggMax:
		st.foldMM(a.Kind, v)
	}
}

// addInt adds n to the exact integer sum, carrying an overflow of isum
// into hi, so the sum depends only on the values, not on their order.
func (st *aggState) addInt(n int64) {
	s := st.isum + n
	if n > 0 && s < st.isum {
		st.hi++
	} else if n < 0 && s > st.isum {
		st.hi--
	}
	st.isum = s
}

// foldMM folds v into a _min (kind AggMin) or _max state under
// bond.Compare's total order, so the result is the same in every input
// order.
func (st *aggState) foldMM(kind AggKind, v bond.Value) {
	if c, _ := bond.Compare(v, st.mm); !st.seenMM || (kind == AggMin && c < 0) || (kind == AggMax && c > 0) {
		st.mm, st.seenMM = v, true
	}
}

// mergeAggStates folds a batch's partial aggregates into the coordinator's
// running states (dst and src are parallel to aggs).
func mergeAggStates(dst, src []aggState, aggs []Aggregate) {
	for i := range src {
		d, s := &dst[i], &src[i]
		d.count += s.count
		d.sum += s.sum
		d.floatSum = d.floatSum || s.floatSum
		d.hi += s.hi
		d.addInt(s.isum)
		if s.seenMM {
			d.foldMM(aggs[i].Kind, s.mm)
		}
	}
}

// finalizeAggs converts merged states into the Result's aggregate values.
func finalizeAggs(states []aggState, aggs []Aggregate) map[string]bond.Value {
	out := make(map[string]bond.Value, len(aggs))
	for i, a := range aggs {
		out[a.Raw] = finalAggValue(&states[i], a)
	}
	return out
}

// finalAggValue converts one merged aggregate state into its result value.
func finalAggValue(s *aggState, a Aggregate) bond.Value {
	switch a.Kind {
	case AggCount:
		return bond.Int64(s.count)
	case AggSum:
		if s.floatSum || s.hi != 0 {
			return bond.Double(s.sum)
		}
		return bond.Int64(s.isum)
	case AggAvg:
		if s.count == 0 {
			return bond.Null
		}
		return bond.Double(s.sum / float64(s.count))
	case AggMin, AggMax:
		if !s.seenMM {
			return bond.Null
		}
		return s.mm
	}
	return bond.Null
}

// evalHavingState tests a fully merged group state against the `_having`
// conjunction. A null aggregate (empty _min/_max, _avg over no values)
// fails every comparison.
func evalHavingState(gs *groupState, having []HavingPred, aggs []Aggregate) bool {
	for _, hp := range having {
		v := finalAggValue(&gs.aggs[hp.AggIdx], aggs[hp.AggIdx])
		if v.IsNull() || !evalValue(v, hp.Op, &hp.Value) {
			return false
		}
	}
	return true
}

// havingProvesFail reports whether a *local* partial state already proves
// the group fails a `_having` predicate globally, no matter what other
// machines contribute. Only merge-monotone aggregates admit proofs:
// _count(*) and _max only grow under merge, so a local value at or past an
// upper bound is final; _min only shrinks, so a local value at or below a
// lower bound is final. Sums and averages prove nothing (values may be
// negative; averages move both ways).
func havingProvesFail(gs *groupState, having []HavingPred, aggs []Aggregate) bool {
	for _, hp := range having {
		a := aggs[hp.AggIdx]
		s := &gs.aggs[hp.AggIdx]
		var v bond.Value
		var grows bool // true: global >= local; false: global <= local
		switch a.Kind {
		case AggCount:
			v, grows = bond.Int64(s.count), true
		case AggMax:
			if !s.seenMM {
				continue
			}
			v, grows = s.mm, true
		case AggMin:
			if !s.seenMM {
				continue
			}
			v, grows = s.mm, false
		default:
			continue
		}
		cmp, ok := bond.Compare(v, hp.Value)
		if !ok {
			continue
		}
		switch hp.Op {
		case OpLt:
			if grows && cmp >= 0 {
				return true
			}
		case OpLe:
			if grows && cmp > 0 {
				return true
			}
		case OpGt:
			if !grows && cmp <= 0 {
				return true
			}
		case OpGe:
			if !grows && cmp < 0 {
				return true
			}
		case OpEq:
			if (grows && cmp > 0) || (!grows && cmp < 0) {
				return true
			}
		}
	}
	return false
}

// Grouped aggregates: workers reduce their batches to per-group partial
// states keyed by the group key's order-preserving encoding, the
// coordinator merges states group by group, and only ⟨key, partials⟩ pairs
// — never rows — cross the fabric.

// groupState is one group's partial aggregates plus its key values.
type groupState struct {
	keys []bond.Value
	aggs []aggState
}

// appendGroupKey appends one key component's canonical encoding. Scalar
// kinds use the order-preserving index encoding, so byte-sorting encoded
// keys yields value-sorted groups, and values bond.Compare calls equal
// within a kind (−0.0 and 0.0, every NaN) share one group, the first
// vertex seen giving its key value, while equal values of different kinds
// (Int64 3, Double 3.0) group apart; composite values (lists, maps) group by
// their serialized image — deterministic, though byte order is not value
// order for them.
func appendGroupKey(b []byte, v bond.Value) []byte {
	switch v.Kind() {
	case bond.KindNone, bond.KindBool, bond.KindInt32, bond.KindInt64, bond.KindDate,
		bond.KindUInt64, bond.KindFloat, bond.KindDouble, bond.KindString, bond.KindBlob:
		return bond.OrderedEncode(b, v)
	default:
		b = append(b, 0xFE)
		return bond.AppendMarshal(b, v)
	}
}

// accumGroup folds one vertex into a batch's group states. The group key
// is encoded into scratch (returned for reuse across the batch loop) and
// only materialized — key values and map entry — the first time a group
// is seen: the steady state of a skewed grouping is a map hit, which this
// way costs zero allocations.
func accumGroup(groups map[string]*groupState, by []FieldPath, aggs []Aggregate, data bond.Value, schema *bond.Schema, scratch []byte) []byte {
	enc := scratch[:0]
	for _, fp := range by {
		v, ok := resolvePath(data, fp, schema)
		if !ok {
			v = bond.Null
		}
		enc = appendGroupKey(enc, v)
	}
	gs := groups[string(enc)] // map index conversion: no allocation
	if gs == nil {
		keys := make([]bond.Value, len(by))
		for i, fp := range by {
			v, ok := resolvePath(data, fp, schema)
			if !ok {
				v = bond.Null
			}
			keys[i] = v
		}
		gs = &groupState{keys: keys, aggs: make([]aggState, len(aggs))}
		groups[string(enc)] = gs
	}
	for i := range aggs {
		accumAgg(&gs.aggs[i], aggs[i], data, schema)
	}
	return enc
}

// GroupRow is one `_groupby` result group: its key values (keyed by the
// `_groupby` entry verbatim) and its finalized aggregates (keyed by the
// `_select` entry verbatim).
type GroupRow struct {
	Keys       map[string]bond.Value
	Aggregates map[string]bond.Value
}

// groupRowOf finalizes one merged group state into its result group.
func groupRowOf(gs *groupState, by []FieldPath, aggs []Aggregate) GroupRow {
	gr := GroupRow{
		Keys:       make(map[string]bond.Value, len(by)),
		Aggregates: finalizeAggs(gs.aggs, aggs),
	}
	for i, fp := range by {
		gr.Keys[fp.Raw] = gs.keys[i]
	}
	return gr
}

// sortKey is one resolved `_orderby` key of a row.
type sortKey struct {
	val bond.Value
	ok  bool
}

// rowLess orders terminal rows by their `_orderby` keys, most significant
// first, under bond.Compare (a total order: values of different classes
// order by class). Rows missing a key sort after keyed rows on that
// component; ties fall through to the next key and finally break on the
// stable vertex address so distributed merges are deterministic.
func rowLess(a, b *Row, orders []OrderBy) bool {
	for i := range orders {
		var ak, bk sortKey
		if i < len(a.keys) {
			ak = a.keys[i]
		}
		if i < len(b.keys) {
			bk = b.keys[i]
		}
		if ak.ok != bk.ok {
			return ak.ok
		}
		if !ak.ok {
			continue
		}
		if cmp, _ := bond.Compare(ak.val, bk.val); cmp != 0 {
			if orders[i].Desc {
				return cmp > 0
			}
			return cmp < 0
		}
	}
	return a.Vertex.Addr < b.Vertex.Addr
}

// sortRows orders rows by their `_orderby` keys.
func sortRows(rows []Row, orders []OrderBy) {
	sort.Slice(rows, func(i, j int) bool { return rowLess(&rows[i], &rows[j], orders) })
}

// topK sorts rows into result order (key ties, and keyless rows, ascending
// by address) and keeps the best k — the pruning step workers (before
// shipping), the coordinator (while merging) and the ordered index walks
// apply when _orderby and _limit are present. The pruned suffix is released
// back to the buffer pool: every call site prunes rows it built itself
// (worker batches, index walks) or rows whose only copies live in the list
// being pruned (the coordinator merge), so the dropped rows have no other
// referent.
func topK(rows []Row, orders []OrderBy, k int) []Row {
	sortRows(rows, orders)
	if len(rows) > k {
		releaseRows(rows[k:])
		rows = rows[:k]
	}
	return rows
}

// sortedRun is one input of a runMerge: a buffered chunk of an ordered
// run, and whether more of the run is still parked elsewhere.
type sortedRun[T any] struct {
	buf  []T
	pos  int
	more bool
}

// runTails pulls the next chunk of run i's parked tail; more=false marks
// the run's last chunk.
type runTails[T any] interface {
	pull(c *fabric.Ctx, stats *Stats, i int) (chunk []T, more bool, err error)
}

// runMerge is the coordinator's one k-way merge over sorted runs: the
// owners' group runs and OrderedTraverse's per-owner row lists. The scan
// for the least head is linear on purpose: the run count is bounded by the
// cluster size and every merge here emits a page or a query limit at a
// time, so a heap would not pay for itself.
type runMerge[T any] struct {
	runs []sortedRun[T]
	less func(a, b *T) bool
}

// head refills from tails every drained run that has more to pull, in run
// order, and returns the run holding the least head — the first of equal
// heads, so equal keys pop in run (owner) order — or -1 once every run is
// exhausted. Only group runs pull, so each refill reports the merge's
// residency as PeakGroups.
func (m *runMerge[T]) head(c *fabric.Ctx, stats *Stats, tails runTails[T]) (int, error) {
	best := -1
	for i := range m.runs {
		r := &m.runs[i]
		if r.pos == len(r.buf) && r.more {
			chunk, more, err := tails.pull(c, stats, i)
			if err != nil {
				return -1, err
			}
			r.buf, r.pos, r.more = chunk, 0, more
			stats.PeakGroups = max(stats.PeakGroups, m.resident())
		}
		if r.pos < len(r.buf) && (best < 0 || m.less(&r.buf[r.pos], m.peek(best))) {
			best = i
		}
	}
	return best, nil
}

// peek returns run i's buffered head, nil when its buffer is drained.
func (m *runMerge[T]) peek(i int) *T {
	if r := &m.runs[i]; r.pos < len(r.buf) {
		return &r.buf[r.pos]
	}
	return nil
}

// pop consumes run i's buffered head.
func (m *runMerge[T]) pop(i int) T {
	r := &m.runs[i]
	r.pos++
	return r.buf[r.pos-1]
}

// resident counts the items buffered across the runs.
func (m *runMerge[T]) resident() int64 {
	var n int64
	for i := range m.runs {
		n += int64(len(m.runs[i].buf) - m.runs[i].pos)
	}
	return n
}

// mergeSortedRows streams the coordinator's k-way merge over per-machine
// ordered partial results (OrderedTraverse), emitting the global top k.
// Each input list is already totally ordered by rowLess (ties broken on the
// vertex address, and addresses never repeat across machines), so
// repeatedly taking the least head reproduces exactly what sorting the
// concatenation would — without ever materializing it.
func mergeSortedRows(lists [][]Row, orders []OrderBy, k int) []Row {
	m := runMerge[Row]{
		runs: make([]sortedRun[Row], len(lists)),
		less: func(a, b *Row) bool { return rowLess(a, b, orders) },
	}
	total := 0
	for i, l := range lists {
		m.runs[i].buf = l
		total += len(l)
	}
	out := make([]Row, 0, min(total, k))
	for len(out) < k {
		best, _ := m.head(nil, nil, nil) // the lists are whole: nothing to pull
		if best < 0 {
			break
		}
		out = append(out, m.pop(best))
	}
	// Rows the merge never consumed can't reach the result; hand their
	// buffers back. The consumed prefix escaped into out and is left alone.
	for _, r := range m.runs {
		releaseRows(r.buf[r.pos:])
	}
	return out
}
