package query

import (
	"sort"

	"a1/internal/bond"
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

	sum     float64 // running sum as float
	isum    int64   // exact integer sum while no fractional value was seen
	fracSum bool    // a float/double contributed; report the float sum

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
		if !isNumeric(v.Kind()) {
			return
		}
		st.count++
		st.sum += asFloat(v)
		switch v.Kind() {
		case bond.KindFloat, bond.KindDouble:
			st.fracSum = true
		case bond.KindUInt64:
			st.isum += int64(v.AsUint())
		default:
			st.isum += v.AsInt()
		}
	case AggMin:
		if !st.seenMM {
			st.mm, st.seenMM = v, true
		} else if cmp, ok := compareValues(v, st.mm); ok && cmp < 0 {
			st.mm = v
		}
	case AggMax:
		if !st.seenMM {
			st.mm, st.seenMM = v, true
		} else if cmp, ok := compareValues(v, st.mm); ok && cmp > 0 {
			st.mm = v
		}
	}
}

// mergeAggStates folds a batch's partial aggregates into the coordinator's
// running states (dst and src are parallel to aggs).
func mergeAggStates(dst, src []aggState, aggs []Aggregate) {
	for i := range src {
		d, s := &dst[i], &src[i]
		d.count += s.count
		d.sum += s.sum
		d.isum += s.isum
		d.fracSum = d.fracSum || s.fracSum
		if !s.seenMM {
			continue
		}
		if !d.seenMM {
			d.mm, d.seenMM = s.mm, true
			continue
		}
		cmp, ok := compareValues(s.mm, d.mm)
		if !ok {
			continue
		}
		if (aggs[i].Kind == AggMin && cmp < 0) || (aggs[i].Kind == AggMax && cmp > 0) {
			d.mm = s.mm
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
// keys yields value-sorted groups; composite values (lists, maps) group by
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
// first. Rows missing a key sort after keyed rows on that component; ties
// (and incomparable kinds) fall through to the next key and finally break
// on the stable vertex address so distributed merges are deterministic.
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
		if cmp, ok := compareValues(ak.val, bk.val); ok && cmp != 0 {
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

// topK sorts rows and keeps the best k — the pruning step both workers
// (before shipping) and the coordinator (while merging) apply when
// _orderby and _limit are present. The pruned suffix is released back to
// the buffer pool: every call site prunes rows it built itself (worker
// batches) or rows whose only copies live in the list being pruned (the
// coordinator merge), so the dropped rows have no other referent.
func topK(rows []Row, orders []OrderBy, k int) []Row {
	sortRows(rows, orders)
	if len(rows) > k {
		releaseRows(rows[k:])
		rows = rows[:k]
	}
	return rows
}

// leastHead picks the next element of a k-way merge: the index of the
// least live head among n sources (the first of equals), or -1 when every
// source is drained. The scan is linear on purpose: n is bounded by the
// cluster size (or the spilled-run count) and every merge here emits a
// page or a query limit at a time, so a heap would not pay for itself.
func leastHead(n int, live func(i int) bool, less func(i, j int) bool) int {
	best := -1
	for i := 0; i < n; i++ {
		if live(i) && (best < 0 || less(i, best)) {
			best = i
		}
	}
	return best
}

// mergeSortedRows streams the coordinator's k-way merge over per-machine
// ordered partial results (OrderedTraverse), emitting the global top k.
// Each input list is already totally ordered by rowLess (ties broken on the
// vertex address, and addresses never repeat across machines), so
// repeatedly taking the least head reproduces exactly what sorting the
// concatenation would — without ever materializing it.
func mergeSortedRows(lists [][]Row, orders []OrderBy, k int) []Row {
	pos := make([]int, len(lists))
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	if total > k {
		total = k
	}
	out := make([]Row, 0, total)
	live := func(i int) bool { return pos[i] < len(lists[i]) }
	less := func(i, j int) bool { return rowLess(&lists[i][pos[i]], &lists[j][pos[j]], orders) }
	for len(out) < k {
		best := leastHead(len(lists), live, less)
		if best < 0 {
			break
		}
		out = append(out, lists[best][pos[best]])
		pos[best]++
	}
	// Rows the merge never consumed can't reach the result; hand their
	// buffers back. The consumed prefix escaped into out and is left alone.
	for i := range lists {
		releaseRows(lists[i][pos[i]:])
	}
	return out
}
