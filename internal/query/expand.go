package query

import (
	"fmt"
	"time"

	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/fabric"
	"a1/internal/farm"
)

// Expansion: the owner-side loop (runBatch) that reads a batch of vertices
// through the one read step (materialize), filters them, shapes the
// terminal's rows and aggregates, and follows their edges into the next
// frontier.

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

func (bc *batchCounts) add(o batchCounts) {
	bc.vertices += o.vertices
	bc.edges += o.edges
	bc.indexFiltered += o.indexFiltered
}

func (st *execState) fold(bc *batchCounts) {
	st.mu.Lock()
	st.stats.VerticesRead += bc.vertices
	st.stats.EdgesVisited += bc.edges
	st.stats.IndexFiltered += bc.indexFiltered
	st.mu.Unlock()
}

// runBatch runs one level op over a batch of vertices on whatever machine
// the context lives on, inside read-only transactions at the query's
// snapshot timestamp: the batch's vertices in one run of the loop
// (runMorsel), or a large batch split into morsels across the machine's
// idle CPU workers (runMorsels).
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
	var bc batchCounts
	defer st.fold(&bc)
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
	if k := st.morselCount(sc, op, len(work)); k > 1 {
		return st.runMorsels(sc, work, op, k, &bc)
	}
	return st.runMorsel(sc, work, op, &bc)
}

// runMorsel is the owner-side loop: it runs op over work, a batch or one
// morsel of it, counting into bc.
func (st *execState) runMorsel(sc *fabric.Ctx, work []core.VertexPtr, op levelOp, bc *batchCounts) (*levelOutput, error) {
	e := st.engine
	pat := op.pat
	out := &levelOutput{}
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
		err := st.materialize(sc, tx, work, pat, op.read, op.emit, bc, func(v *core.VertexVisit, pass bool) (bool, error) {
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
				if err := st.traverse(sc, tx, v, op.edge, ef, out.next, bc); err != nil {
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
