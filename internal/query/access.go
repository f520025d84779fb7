package query

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"time"

	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/fabric"
	"a1/internal/farm"
)

// Access paths: every way a level reads an index instead of its vertices.
// The root's start candidates (execStart), one ordered top-K walk that
// serves both the root OrderedIndexScan and each owner's half of an
// OrderedTraverse terminal (orderedWalk), and a traversal level's
// index-membership filter (buildMemberFilter). Range predicates become
// index bounds in one place (walkRange, boundsOf).

// lookupByID resolves a pattern's `id` against the primary index of the
// pattern's type, or of every type when unspecified (the knowledge graph
// uses a single `entity` type, §5).
func (st *execState) lookupByID(tx *farm.Tx, vp *VertexPattern) (core.VertexPtr, bool, error) {
	pk := bond.String(vp.ID)
	if vp.Type != "" {
		return st.graph.LookupVertex(tx, vp.Type, pk)
	}
	return st.graph.LookupVertexAnyType(tx, pk)
}

// execStart interprets the root level's StartPlan. Candidates run in
// cost-ranked order (rankStartCandidates): cheapest estimated access path
// first, the structural preference order — IDLookup, IndexScan (equality),
// OrderedIndexScan, IndexRangeScan, TypeScan — as tiebreak and
// statistics-free fallback. Each index-using candidate falls through when
// its index does not exist. OrderedIndexScan is the one source that
// produces terminal *rows* (ordered=true) instead of a frontier.
func (st *execState) execStart(qc *fabric.Ctx, tx *farm.Tx, root *VertexPattern, lp *LevelPlan) (frontier []core.VertexPtr, rows []Row, ordered bool, err error) {
	sp := lp.Start
	if !sp.ByID && root.Type == "" {
		return nil, nil, false, errors.New("a1ql: root pattern requires id or _type")
	}
	collect := func(vp core.VertexPtr) bool {
		frontier = append(frontier, vp)
		return true
	}
	cands := rankStartCandidates(sp, root, st.pc)
	for i := range cands {
		cand := &cands[i]
		switch cand.kind {
		case srcIDLookup:
			ptr, ok, err := st.lookupByID(tx, root)
			if err != nil {
				return nil, nil, false, err
			}
			if !ok {
				return nil, nil, false, fmt.Errorf("%w: id %q", ErrNoStart, root.ID)
			}
			st.chosen = cand
			return []core.VertexPtr{ptr}, nil, false, nil
		case srcIndexScan:
			// Secondary-index equality scan.
			p := &root.Preds[cand.predIdx]
			key, _ := st.pc.eqConst(root.Type, p)
			err := st.graph.IndexScan(tx, root.Type, p.Path.Field, key, collect)
			if !errors.Is(err, core.ErrNotFound) {
				st.chosen = cand
				return frontier, nil, false, err
			}
		case srcOrderedScan:
			// Ordered index scan: result order off the index, top-K early
			// stop, every vertex of the type eligible.
			rows, served, err := st.orderedWalk(qc, tx, root, sp.Ordered, lp.Read, nil)
			if served || err != nil {
				st.chosen = cand
				return nil, rows, served, err
			}
		case srcRangeScan:
			// Secondary-index range scan for inequality predicates: the
			// index B-trees are ordered, so `{"f": {"_ge": lo, "_lt": hi}}`
			// reads only the matching key range instead of the whole type.
			served, err := st.walkRange(tx, root, collect)
			if served {
				st.chosen = cand
				return frontier, nil, false, err
			}
		case srcTypeScan:
			// Full primary-index scan of the type. When the plan marked the
			// scan cappable (unfiltered, unordered, limited terminal), any K
			// vertices of the type answer the query — stop scanning as soon
			// as enough are found.
			scanCap := 0
			if sp.ScanCapped && root.Limit > 0 {
				scanCap = root.Limit + root.Skip
			}
			err = st.graph.ScanVertexPtrsByType(tx, root.Type, func(vp core.VertexPtr) bool {
				frontier = append(frontier, vp)
				return scanCap == 0 || len(frontier) < scanCap
			})
			st.chosen = cand
			return frontier, nil, false, err
		}
	}
	// Unreachable: TypeScan is always enumerated last.
	return nil, nil, false, errors.New("a1ql: no runnable access path")
}

// indexBounds is one secondary-index walk's key range; a Null side is
// unbounded, so the zero value walks the whole index.
type indexBounds struct {
	lo, hi       bond.Value
	loInc, hiInc bool
}

// boundsOf coerces a range spec to its field's stored kind in schema (the
// index's ordered key encoding is kind-tagged). ok=false means the spec
// cannot bound the index (unknown field, or no bound survives coercion);
// empty=true means no stored value satisfies it.
func boundsOf(schema *bond.Schema, spec *rangeSpec) (b indexBounds, ok, empty bool) {
	f, found := schema.FieldByName(spec.field)
	if !found {
		return indexBounds{}, false, false
	}
	b.lo, b.loInc, b.hi, b.hiInc, ok, empty = coerceRange(spec, f.Type.Kind)
	return b, ok, empty
}

// indexedRangeField names the field of pat's first plain range predicate
// that has a secondary index — the field the planner costs an
// IndexRangeScan start or a range IndexFilter on.
func indexedRangeField(pat *VertexPattern, indexed indexProbe) (string, bool) {
	for _, p := range pat.Preds {
		if rangePred(p) && indexed(pat.Type, p.Path.Field) {
			return p.Path.Field, true
		}
	}
	return "", false
}

// walkRange serves pat's range predicates from the first secondary index
// that can bound them, trying fields in first-predicate order and passing
// over any the type lacks, whose bounds do not coerce to its stored kind,
// or that have no index. fn sees each hit in ascending key order and may
// stop the walk. Coercion is exact, so the hits are the vertices whose
// field satisfies its range predicates; the caller still evaluates every
// predicate per vertex. served=false means no index could bound the
// predicates; a range that excludes every stored value is served with no
// hits.
func (st *execState) walkRange(tx *farm.Tx, pat *VertexPattern, fn func(core.VertexPtr) bool) (served bool, err error) {
	schema, err := st.graph.VertexTypeSchema(tx.Ctx(), pat.Type)
	if err != nil {
		return false, nil // unknown type: the fallback surfaces the error
	}
	for _, spec := range rangeSpecs(pat.Preds) {
		b, ok, empty := boundsOf(schema, spec)
		if empty {
			return true, nil
		}
		if !ok {
			continue
		}
		err := st.graph.IndexRangeScanBoundsDir(tx, pat.Type, spec.field, b.lo, b.loInc, b.hi, b.hiInc, false,
			func(_ []byte, vp core.VertexPtr) bool { return fn(vp) })
		if !errors.Is(err, core.ErrNotFound) {
			return true, err
		}
	}
	return false, nil
}

// maxWalkWindow caps the index hits a root ordered walk reads together.
const maxWalkWindow = 64

// walkHit is one index hit an ordered walk buffered and, once its window
// is read, what reading it gave.
type walkHit struct {
	vp   core.VertexPtr
	attr []byte // the hit's index attribute key (a copy)
	row  Row
	ok   bool
	err  error
	bc   batchCounts
}

// orderedWalk is the ordered top-K access path: walk the `_orderby`
// field's secondary index in result order (descending via the B-tree's
// reverse scan), read and residually filter each hit, and stop once
// limit+skip rows survive — O(limit) vertex reads instead of the
// candidates' cardinality. The root OrderedIndexScan calls it with a nil
// batch, so every vertex of the type is eligible; each owner's half of an
// OrderedTraverse calls it with its slice of the frontier, and entries of
// other vertices are passed over without a read. Range predicates on the
// order field bound the walk. served=false means no index serves the
// field (or the type is unknown) and the caller falls back.
//
// The root walk buffers its hits in windows and issues each window's
// vertex reads together through Parallel, each body reading the query's
// read-only snapshot on a process of its own (farm.Tx.On), so a walk that
// filters out most of its hits waits one round trip per window rather than
// per hit. The first window holds the hits the target still needs, each
// later one twice the last, up to maxWalkWindow. A window's hits are then
// taken strictly in index order by the rules below, so the rows, their
// order and every error surfaced are those of a walk that reads one hit at
// a time; the hits read past the stop, at most one window, are released
// and their errors dropped. An owner's walk reads its hits one at a time:
// its reads are local, with no round trip to hide. So does the root walk
// where concurrent reads hide no latency (fabric.Ctx.Overlaps false:
// Direct mode): there a window would only read past the stop.
//
// Exact parity with materialize-and-sort: the sort breaks key ties
// ascending by address while a descending walk yields them
// address-descending, so the walk collects the whole boundary tie-run
// before the final sort picks the same winners; and vertices the index
// never lists (null or missing order key) sort after every keyed row, so
// an under-filled walk tops up from the eligible vertices it did not see.
func (st *execState) orderedWalk(c *fabric.Ctx, tx *farm.Tx, pat *VertexPattern, osp *OrderedScanPlan, read ReadSet, batch []core.VertexPtr) ([]Row, bool, error) {
	if pat.Limit <= 0 {
		// Unbounded, the top-up would read every keyless vertex; the
		// sort-based path is no worse there.
		return nil, false, nil
	}
	g := st.graph
	var bc batchCounts
	defer st.fold(&bc)
	schema, err := g.VertexTypeSchema(c, pat.Type)
	if err != nil {
		return nil, false, nil // unknown type: the fallback surfaces the error
	}
	var members *addrSet
	if batch != nil {
		members = getAddrSet()
		defer putAddrSet(members)
		for _, vp := range batch {
			members.add(vp.Addr)
		}
	}
	var b indexBounds
	for _, spec := range rangeSpecs(pat.Preds) {
		if spec.field != osp.Field {
			continue
		}
		sb, ok, empty := boundsOf(schema, spec)
		if empty {
			// A range predicate never matches a missing field: no rows.
			return nil, true, nil
		}
		if ok {
			b = sb
		}
		break
	}
	target := pat.Limit + pat.Skip
	var rows []Row
	var lastAttr []byte
	var innerErr error
	seen := getAddrSet()
	defer putAddrSet(seen)
	var hits []walkHit // the window buffered so far: hits[:n]
	n, size := 0, 1
	overlap := batch == nil && c.Overlaps()
	if overlap {
		size = min(target, maxWalkWindow)
	}
	readHit := func(i int, c *fabric.Ctx, tx *farm.Tx) {
		h := &hits[i]
		h.row, h.ok, h.err = st.buildTerminalRow(c, tx, h.vp, pat, read, &h.bc)
	}
	// flush reads the window and takes its hits in index order; more=false
	// means the walk stopped inside it.
	flush := func() (more bool) {
		if overlap {
			c.Parallel(n, func(i int, c *fabric.Ctx) { readHit(i, c, tx.On(c)) })
		} else {
			readHit(0, c, tx)
		}
		more = true
		for i := range hits[:n] {
			h := &hits[i]
			bc.add(h.bc)
			// Past the target, only key-ties with the boundary row still
			// matter.
			if more && len(rows) >= target && !bytes.Equal(h.attr, lastAttr) {
				more = false
			}
			kept := false
			if more {
				seen.add(h.vp.Addr)
				if h.err != nil {
					innerErr, more = h.err, false
				} else if h.ok {
					rows = append(rows, h.row)
					lastAttr = append(lastAttr[:0], h.attr...)
					kept = true
				}
			}
			if h.ok && !kept {
				releaseRow(&h.row)
			}
			h.row, h.ok, h.err, h.bc = Row{}, false, nil, batchCounts{}
		}
		n = 0
		return more
	}
	walked := 0
	err = g.IndexRangeScanBoundsDir(tx, pat.Type, osp.Field, b.lo, b.loInc, b.hi, b.hiInc, osp.Desc, func(attrKey []byte, vp core.VertexPtr) bool {
		walked++
		if members != nil && !members.has(vp.Addr) {
			return true
		}
		// The attribute key stops the walk without a read. rows and
		// lastAttr stand as of the last window: every hit buffered since
		// is a tie with the boundary row, which moves neither.
		if len(rows) >= target && !bytes.Equal(attrKey, lastAttr) {
			return false
		}
		if n == len(hits) {
			hits = append(hits, walkHit{})
		}
		h := &hits[n]
		h.vp, h.attr = vp, append(h.attr[:0], attrKey...)
		if n++; n < size {
			return true
		}
		if overlap {
			size = min(2*size, maxWalkWindow)
		}
		return flush()
	})
	if n > 0 && !flush() {
		// The walk stopped inside the last window, before whatever ended
		// the scan: an error past the stop was never reached.
		err = nil
	}
	if members != nil {
		// A frontier slice's walk passes over other vertices' entries: each
		// is priced as enumeration work, not a vertex read — the saving
		// OrderedTraverse buys over reading the whole slice.
		c.Work(time.Duration(walked) * st.engine.cfg.CostEdgeEnum)
	}
	if errors.Is(err, core.ErrNotFound) {
		return nil, false, nil // no index on the order field
	}
	if err == nil {
		err = innerErr
	}
	if err != nil {
		return nil, true, err
	}
	rows = topK(rows, pat.Orders, target)
	// A walk that stopped early holds the target; an under-filled one saw
	// every keyed eligible vertex, so the unseen ones are keyless — unless a
	// predicate constrains the order field (a missing field fails every
	// predicate).
	if len(rows) >= target || slices.ContainsFunc(pat.Preds, func(p Predicate) bool { return p.Path.Field == osp.Field }) {
		return rows, true, nil
	}
	unseen := getPtrs()
	defer putPtrs(unseen)
	if batch == nil {
		err = g.ScanVertexPtrsByType(tx, pat.Type, func(vp core.VertexPtr) bool {
			if !seen.has(vp.Addr) {
				unseen = append(unseen, vp)
			}
			return true
		})
	} else {
		for _, vp := range batch {
			if !seen.has(vp.Addr) {
				unseen = append(unseen, vp)
			}
		}
	}
	var tail []Row
	if err == nil {
		err = st.materialize(c, tx, unseen, pat, read, true, &bc, func(v *core.VertexVisit, pass bool) (bool, error) {
			if !pass {
				return true, nil
			}
			row := newRow(v.Ptr, v.Data, pat, v.Schema)
			if len(row.keys) > 0 && row.keys[0].ok {
				releaseRow(&row) // keyed rows already came off the index
			} else {
				tail = append(tail, row)
			}
			return true, nil
		})
	}
	if err != nil {
		releaseRows(tail)
		return nil, true, err
	}
	return append(rows, topK(tail, pat.Orders, target-len(rows))...), true, nil
}

// execOrderedTraverse runs an ordered traversal terminal: each owner walks
// the `_orderby` field's index restricted to its slice of the frontier
// (orderedWalk) and ships only its top limit+skip rows, and the
// coordinator k-way merges the per-owner ordered lists. served=false means
// the order field has no index (or the type is unknown) and the caller
// falls back to materialize-and-sort. The merge is exact: per-owner lists
// are totally ordered by rowLess (address tiebreak), and an owner's rows
// beyond its top limit+skip are dominated by its own shipped rows, so the
// merge of the shipped prefixes is the fallback's global sort prefix.
func (st *execState) execOrderedTraverse(qc *fabric.Ctx, batches []ownerBatch, pat *VertexPattern, lp *LevelPlan) ([]Row, bool, error) {
	if pat.Limit <= 0 {
		return nil, false, nil
	}
	lists := make([][]Row, len(batches))
	served := make([]bool, len(batches))
	err := scatter(st, qc, batches,
		func(sc *fabric.Ctx, b ownerBatch) (orderedReply, error) {
			tx := st.engine.store.Farm().CreateReadTransactionAt(sc, st.ts)
			rows, ok, err := st.orderedWalk(sc, tx, pat, lp.OrderedTraverse, lp.Read, b.ptrs)
			return orderedReply{rows: rows, served: ok}, err
		},
		func(_ *fabric.Ctx, b ownerBatch, out orderedReply) error {
			lists[b.i], served[b.i] = out.rows, out.served
			return nil
		})
	if err != nil || slices.Contains(served, false) {
		return nil, false, err
	}
	merged := mergeSortedRows(lists, pat.Orders, pat.Limit+pat.Skip)
	qc.Work(time.Duration(len(merged)) * st.engine.cfg.CostMerge)
	// Per-owner list slices are dead once merged (their kept rows were
	// copied into merged); recycle the headers.
	for i := range lists {
		putRows(lists[i])
	}
	return merged, true, nil
}

// orderedReply is one owner's ordered partial result; served=false means
// no index serves the order field there.
type orderedReply struct {
	rows   []Row
	served bool
}

func (r orderedReply) wire() wireSize {
	w := wireSize{rows: len(r.rows)}
	for i := range r.rows {
		w.bytes += r.rows[i].wireBytes()
	}
	return w
}

// buildMemberFilter interprets a traversal level's IndexFilter: it resolves
// the first servable indexed predicate — equality candidates in document
// order, then the range resolver — into a membership set of vertex
// addresses, so the frontier is filtered before any vertex read. Both
// coerce their constants exactly to the field's stored kind; residual
// predicate evaluation still runs per surviving vertex. ok=false means no
// index was usable — or the matching side outweighs the frontier, where
// reading the frontier directly is cheaper than enumerating the index.
//
// The scan budget is sized from estimated selectivity when statistics
// cover the predicate: an indexed side estimated to dwarf the frontier is
// skipped without touching the index at all, and an indexed side estimated
// small gets a budget of twice its estimate (slack for sketch error). The
// structural 4·frontier+64 formula survives as the statistics-free
// fallback and overflow guard.
func (st *execState) buildMemberFilter(tx *farm.Tx, pat *VertexPattern, ifp *IndexFilterPlan, frontier int) (*addrSet, bool, error) {
	budget := 4*frontier + 64
	if est, ok := st.pc.filterEstimate(pat, ifp); ok {
		if est > float64(budget) {
			return nil, false, nil
		}
		budget = int(2*est) + 64
	}
	member := getAddrSet()
	overflow := false
	add := func(vp core.VertexPtr) bool {
		member.add(vp.Addr)
		overflow = member.len() > budget
		return !overflow
	}
	served := false
	var err error
	for _, pi := range ifp.EqPreds {
		p := &pat.Preds[pi]
		key, _ := st.pc.eqConst(pat.Type, p)
		if e := st.graph.IndexScan(tx, pat.Type, p.Path.Field, key, add); !errors.Is(e, core.ErrNotFound) {
			served, err = true, e
			break
		}
	}
	if !served && ifp.HasRange {
		served, err = st.walkRange(tx, pat, add)
	}
	if !served || overflow || err != nil {
		putAddrSet(member)
		return nil, false, err
	}
	return member, true, nil
}

// memberSubset returns the frontier vertices inside an index-membership
// set, preserving order and dropping owners left with none, and their
// number.
func memberSubset(batches []ownerBatch, member *addrSet) (out []ownerBatch, n int) {
	for _, b := range batches {
		var ptrs []core.VertexPtr
		for _, vp := range b.ptrs {
			if member.has(vp.Addr) {
				ptrs = append(ptrs, vp)
			}
		}
		if len(ptrs) > 0 {
			out = append(out, ownerBatch{m: b.m, ptrs: ptrs})
			n += len(ptrs)
		}
	}
	return out, n
}
