package query

import (
	"sync"

	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/farm"
)

// Hot-path buffer pooling. One query allocates frontier slices, row
// batches, projection maps, sort-key slices, and address sets in
// proportion to the vertices it touches, then drops all of them at the
// next hop or prune; the pools below recirculate those buffers across
// hops and across queries instead of leaving them to the collector.
//
// Ownership discipline — the only rule that keeps this safe:
//
//   - A buffer is recycled ONLY at a point where it provably has no other
//     referent: a worker's local top-K prune, the coordinator merge's
//     prune, a batch slice whose Row/VertexPtr values were already copied
//     out by append, or a scratch set that never left its function.
//   - Rows that escape — into a Result page, the continuation cache, or a
//     merged list that will become either — are never released. The pool
//     simply does not get those buffers back; the collector does.
//
// The pools are package-level, so buffers recirculate across queries and
// across the machines of a Direct-mode cluster.

// maxPooledCap bounds what the pools retain: a pathological query's huge
// frontier or row batch should not stay pinned for the next small one.
const maxPooledCap = 1 << 16

var (
	ptrPool    = sync.Pool{New: func() any { s := make([]core.VertexPtr, 0, 64); return &s }}
	rowPool    = sync.Pool{New: func() any { s := make([]Row, 0, 32); return &s }}
	keyPool    = sync.Pool{New: func() any { s := make([]sortKey, 0, 4); return &s }}
	valuesPool = sync.Pool{New: func() any { return make(map[string]bond.Value, 8) }}
	addrPool   = sync.Pool{New: func() any { return new(addrSet) }}
)

func getPtrs() []core.VertexPtr {
	return (*ptrPool.Get().(*[]core.VertexPtr))[:0]
}

func putPtrs(s []core.VertexPtr) {
	if cap(s) == 0 || cap(s) > maxPooledCap {
		return
	}
	s = s[:0]
	ptrPool.Put(&s)
}

func getRows() []Row {
	return (*rowPool.Get().(*[]Row))[:0]
}

// putRows recycles a row batch's slice header and backing array only. The
// rows' Values maps and key slices are NOT released: callers recycle batch
// slices after appending the Row values elsewhere (execLevel's merge), so
// the maps are still live in the copies.
func putRows(s []Row) {
	if cap(s) == 0 || cap(s) > maxPooledCap {
		return
	}
	s = s[:0]
	rowPool.Put(&s)
}

// getValues returns an empty projection map. Pooled maps keep their bucket
// arrays, so the steady state of a paging query writes into warm buckets.
func getValues() map[string]bond.Value {
	return valuesPool.Get().(map[string]bond.Value)
}

// getKeys returns a length-n sort-key slice. Elements are NOT zeroed: the
// single caller (newRow) assigns every index before the row is visible.
func getKeys(n int) []sortKey {
	s := *keyPool.Get().(*[]sortKey)
	if cap(s) < n {
		return make([]sortKey, n)
	}
	return s[:n]
}

// addrSet is the engine's address set (frontier dedup, index-membership
// filters, `_recurse` visited sets): open addressing over a slice whose
// slots carry the generation that filled them, so emptying the set is a
// generation bump. A pooled set that once held a large frontier therefore
// costs the one-vertex frontiers after it nothing, where clearing a map
// costs its whole retained bucket array. The zero value is an empty set and
// a nil *addrSet reads as empty.
type addrSet struct {
	slots []addrSlot // power-of-two length, at most half full
	gen   uint32     // a slot of another generation is empty
	n     int
}

type addrSlot struct {
	addr farm.Addr
	gen  uint32
}

// probe returns the slot holding a, or the empty slot where a belongs.
func (s *addrSet) probe(a farm.Addr) *addrSlot {
	mask := len(s.slots) - 1
	// Offsets are multiples of 32 and region ids small; the high half of a
	// multiplicative hash spreads both.
	for i := int(uint64(a)*0x9E3779B97F4A7C15>>32) & mask; ; i = (i + 1) & mask {
		if sl := &s.slots[i]; sl.gen != s.gen || sl.addr == a {
			return sl
		}
	}
}

func (s *addrSet) has(a farm.Addr) bool {
	return s != nil && s.n > 0 && s.probe(a).gen == s.gen
}

// add inserts a and reports whether it was absent.
func (s *addrSet) add(a farm.Addr) bool {
	if 2*(s.n+1) > len(s.slots) {
		old, oldGen := s.slots, s.gen
		s.slots, s.gen, s.n = make([]addrSlot, max(2*len(old), 64)), 1, 0
		for _, sl := range old {
			if sl.gen == oldGen {
				s.add(sl.addr)
			}
		}
	}
	sl := s.probe(a)
	if sl.gen == s.gen {
		return false
	}
	*sl = addrSlot{addr: a, gen: s.gen}
	s.n++
	return true
}

func (s *addrSet) len() int { return s.n }

func getAddrSet() *addrSet {
	return addrPool.Get().(*addrSet)
}

func putAddrSet(s *addrSet) {
	if s == nil || len(s.slots) > maxPooledCap {
		return
	}
	s.n = 0
	if s.gen++; s.gen == 0 { // wrapped: stale slots could read as current
		clear(s.slots)
		s.gen = 1
	}
	addrPool.Put(s)
}

// releaseRow returns one dropped row's buffers to the pools. The caller
// asserts the row has no other referent — it was pruned or deduplicated
// away before any copy of it could escape.
func releaseRow(r *Row) {
	if r.Values != nil {
		clear(r.Values)
		valuesPool.Put(r.Values)
		r.Values = nil
	}
	if r.keys != nil {
		if cap(r.keys) <= maxPooledCap {
			k := r.keys[:0]
			keyPool.Put(&k)
		}
		r.keys = nil
	}
}

// releaseRows releases every row in a dropped suffix (see releaseRow).
func releaseRows(rows []Row) {
	for i := range rows {
		releaseRow(&rows[i])
	}
}
