package query

import (
	"fmt"
	"sort"

	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/fabric"
)

// Streaming grouped aggregation. Workers already reduce their batches to
// per-group partial states (shape.go); this file makes the coordinator side
// streaming: each worker ships its partials as a *key-sorted run* (first
// chunk inline in the RPC reply, the remainder parked in the worker's run
// store and pulled chunk by chunk), and the coordinator k-way merges the
// runs in encoded-key order, so finalized groups flow out through
// continuation pages without the full group set ever being resident.
// Coordinator residency is O(page + machines·chunk) instead of O(groups).
//
// `_having` rides the runs: a worker whose local partial already proves a
// group fails globally ships a key-only tombstone (group keys are spread
// across machines, so a silent drop would let another machine's partial
// resurrect the group); when the terminal level ran on a single machine the
// local state is exact and failing groups are dropped outright. The
// coordinator re-checks every surviving group after its states merge.
//
// The order-by-aggregate form needs every group before the sort, so the
// coordinator drains the merge into one buffer, sorts it in memory and
// pages it like any materialized result (orderGroups). A1 keeps a query's
// state in DRAM and does not spill it (paper §3.4): the buffer is bounded by
// the worker runs it merged, each capped at MaxWorkingSet.

// groupEntry is one element of a key-sorted group run: the group key's
// order-preserving encoding and its partial aggregate states. A nil state
// is a `_having` tombstone — the shipping worker proved the group fails
// globally, so the coordinator must discard the key no matter what other
// machines contribute.
type groupEntry struct {
	enc string
	gs  *groupState
}

// wireBytes is the encoded width of one run entry: tombstones ship the key
// alone, full entries the key plus each aggregate's partial state.
func (ge *groupEntry) wireBytes() int {
	if ge.gs == nil {
		return len(ge.enc)
	}
	return ge.gs.wireBytes(ge.enc)
}

// parkRun retains the tail of a sorted run whose first chunk was shipped in
// this machine's run store (Engine.runs, a ttlStore) for the continuation
// TTL; the coordinator pulls the rest chunk by chunk as its client pages.
// Expiry mirrors the coordinator's continuation store: a client that
// stalls past the TTL restarts the query.
func (e *Engine) parkRun(c *fabric.Ctx, tail []groupEntry) uint64 {
	id, _ := e.runs[c.M].put(c.Now(), e.cfg.ResultTTL, tail) // lapsed tails are plain memory
	return id
}

// pullRun hands the coordinator the next GroupChunk entries of a run
// parked on the machine c runs on, dropping the run once drained.
// more=false tells the caller the run is exhausted.
func (e *Engine) pullRun(c *fabric.Ctx, id uint64) (chunk []groupEntry, more bool, err error) {
	rs := e.runs[c.M]
	run, expires, ok := rs.claim(id)
	if !ok || c.Now() >= expires {
		return nil, false, fmt.Errorf("%w: group run expired; restart the query", ErrBadToken)
	}
	if n := e.cfg.GroupChunk; len(run) > n {
		rs.restore(id, run[n:], expires)
		return run[:n], true, nil
	}
	return run, false, nil
}

// buildGroupRun serializes a worker batch's group map into a key-sorted run
// and applies the `_having` pushdown. Emission order must be the encoded
// keys ascending — the order the coordinator's merge emits groups in — so
// the runs are collected and sorted, never emitted in map order
// (a1/maporder).
// exact marks the single-machine case where local states are final: failing
// groups are dropped outright instead of tombstoned. Returns the run and
// the number of groups the pushdown pruned.
func buildGroupRun(groups map[string]*groupState, pat *VertexPattern, exact bool) ([]groupEntry, int) {
	encs := make([]string, 0, len(groups))
	for enc := range groups {
		encs = append(encs, enc)
	}
	sort.Strings(encs)
	entries := make([]groupEntry, 0, len(encs))
	filtered := 0
	for _, enc := range encs {
		gs := groups[enc]
		if len(pat.Having) > 0 {
			if exact {
				if !evalHavingState(gs, pat.Having, pat.Aggs) {
					filtered++
					continue
				}
			} else if havingProvesFail(gs, pat.Having, pat.Aggs) {
				// The key must still cross the fabric: other machines hold
				// partials for it and would otherwise resurrect the group.
				filtered++
				entries = append(entries, groupEntry{enc: enc})
				continue
			}
		}
		entries = append(entries, groupEntry{enc: enc, gs: gs})
	}
	return entries, filtered
}

// workerRun is one owner's sorted group run as its reply names it: the
// first chunk, shipped inline, and the id its tail is parked under on
// machine m (0 = nothing left parked).
type workerRun struct {
	m     fabric.MachineID
	first []groupEntry
	id    uint64
}

// wire sizes a shipped run chunk: full (non-tombstone) partial states
// count as shipped groups, tombstones ship their key alone.
func (r workerRun) wire() wireSize { return runWire(r.first) }

func runWire(entries []groupEntry) wireSize {
	var w wireSize
	for i := range entries {
		if entries[i].gs != nil {
			w.groups++
		}
		w.bytes += entries[i].wireBytes()
	}
	return w
}

// execGroupedLevel runs a grouped terminal level streaming: each owner
// reduces its scattered batch to group partials and sorts them into a run,
// and the cursor k-way merges the runs lazily. The unordered form pages the
// cursor directly, pulling parked run tails chunk by chunk as the result
// pages out; the aggregate-`_orderby` form drains it first (orderGroups).
func (st *execState) execGroupedLevel(qc *fabric.Ctx, batches []ownerBatch, pat *VertexPattern, lp *LevelPlan) (pageSource, error) {
	// Runs stay in the frontier's owner order: equal keys merge their
	// float sums in run order, and results must not depend on batch
	// timing.
	runs := make([]workerRun, len(batches))
	err := scatter(st, qc, batches,
		func(sc *fabric.Ctx, b ownerBatch) (workerRun, error) {
			// One machine owns the whole terminal frontier: its partial
			// states are the final states, so `_having` evaluates exactly at
			// the worker and the coordinator re-check is redundant.
			return st.buildWorkerRun(sc, b.ptrs, pat, lp, b.n == 1)
		},
		func(_ *fabric.Ctx, b ownerBatch, r workerRun) error {
			runs[b.i] = r
			return nil
		})
	if err != nil {
		// The cursor that would have drained the parked tails never exists.
		st.engine.dropRuns(qc, runs)
		return nil, err
	}
	cur := newGroupCursor(st.engine, runs, pat)
	st.stats.PeakGroups = max(st.stats.PeakGroups, cur.merge.resident())
	if len(pat.Orders) > 0 {
		return st.orderGroups(qc, cur, pat)
	}
	p := newPager[GroupRow](nil, cur, pat, groupsOf)
	p.groups = &cur.merge
	return p, nil
}

// dropRuns discards the run tails still parked for runs: one drop per
// machine that holds one, sent in parallel. Best effort: a tail the drop
// cannot reach lapses by TTL like any other.
func (e *Engine) dropRuns(c *fabric.Ctx, runs []workerRun) {
	var held []*workerRun
	for i := range runs {
		if runs[i].id != 0 {
			held = append(held, &runs[i])
		}
	}
	c.Parallel(len(held), func(i int, cc *fabric.Ctx) {
		r := held[i]
		if r.m == cc.M {
			e.runs[r.m].claim(r.id)
			return
		}
		_ = cc.RPC(r.m, 32, func(*fabric.Ctx) (int, error) {
			e.runs[r.m].claim(r.id)
			return 0, nil
		})
	})
	for _, r := range held {
		r.id = 0
	}
}

// buildWorkerRun is the owner-side half: reduce the batch (runBatch
// enforces the per-machine working-set cap incrementally), sort the group
// map into a run, ship the first chunk inline and park the tail in this
// machine's run store under the continuation TTL.
func (st *execState) buildWorkerRun(sc *fabric.Ctx, batch []core.VertexPtr, pat *VertexPattern, lp *LevelPlan, exact bool) (workerRun, error) {
	out, err := st.runBatch(sc, batch, st.opFor(pat, lp))
	if err != nil {
		return workerRun{}, err
	}
	entries, filtered := buildGroupRun(out.groups, pat, exact)
	if filtered > 0 {
		st.mu.Lock()
		st.stats.GroupsFiltered += int64(filtered)
		st.mu.Unlock()
	}
	r := workerRun{m: sc.M, first: entries}
	if n := st.engine.cfg.GroupChunk; len(entries) > n {
		r.first = entries[:n]
		r.id = st.engine.parkRun(sc, entries[n:])
	}
	return r, nil
}

// groupCursor coalesces the merge of per-machine key-sorted runs into the
// stream of globally merged groups, ascending by encoded key —
// byte-identical order to sorting every group's key. Equal keys across
// machines merge their aggregate states; a tombstone from any machine
// kills its key.
type groupCursor struct {
	e     *Engine
	runs  []workerRun // the merge's inputs, in owner order
	merge runMerge[groupEntry]
	pat   *VertexPattern // the grouped terminal
	exact bool
}

func newGroupCursor(e *Engine, runs []workerRun, pat *VertexPattern) *groupCursor {
	cur := &groupCursor{e: e, runs: runs, pat: pat, exact: len(runs) == 1}
	cur.merge = runMerge[groupEntry]{
		runs: make([]sortedRun[groupEntry], len(runs)),
		less: func(a, b *groupEntry) bool { return a.enc < b.enc },
	}
	for i, r := range runs {
		cur.merge.runs[i] = sortedRun[groupEntry]{buf: r.first, more: r.id != 0}
	}
	return cur
}

// merged returns the next merged group in encoded-key order, or ok=false
// when the runs are exhausted.
func (cur *groupCursor) merged(c *fabric.Ctx, stats *Stats) (string, *groupState, bool, error) {
	for {
		best, err := cur.merge.head(c, stats, cur)
		if err != nil || best < 0 {
			return "", nil, false, err
		}
		// best is the first run holding the least key: the runs after it
		// that hold the key too pop in owner order.
		enc := cur.merge.peek(best).enc
		var merged *groupState
		dead := false
		for i := best; i < len(cur.merge.runs); i++ {
			if ge := cur.merge.peek(i); ge == nil || ge.enc != enc {
				continue
			}
			ge := cur.merge.pop(i)
			c.Work(cur.e.cfg.CostMerge)
			switch {
			case ge.gs == nil:
				dead = true // a worker proved the group fails _having
			case merged == nil:
				merged = ge.gs
			default:
				mergeAggStates(merged.aggs, ge.gs.aggs, cur.pat.Aggs)
			}
		}
		if dead || merged == nil {
			continue
		}
		if len(cur.pat.Having) > 0 && !cur.exact && !evalHavingState(merged, cur.pat.Having, cur.pat.Aggs) {
			stats.GroupsFiltered++
			continue
		}
		return enc, merged, true, nil
	}
}

func (cur *groupCursor) next(c *fabric.Ctx, stats *Stats) (GroupRow, bool, error) {
	_, gs, ok, err := cur.merged(c, stats)
	if err != nil || !ok {
		return GroupRow{}, false, err
	}
	return groupRowOf(gs, cur.pat.GroupBy, cur.pat.Aggs), true, nil
}

// pull fetches the next chunk of owner i's parked run tail, locally or by
// RPC. Remote pulls account their reply bytes and shipped states like any
// worker RPC.
func (cur *groupCursor) pull(c *fabric.Ctx, stats *Stats, i int) ([]groupEntry, bool, error) {
	r, e := &cur.runs[i], cur.e
	var chunk []groupEntry
	var more bool
	var err error
	if r.m == c.M {
		chunk, more, err = e.pullRun(c, r.id)
	} else {
		err = c.RPC(r.m, 32, func(sc *fabric.Ctx) (int, error) {
			var perr error
			chunk, more, perr = e.pullRun(sc, r.id)
			return runWire(chunk).bytes, perr
		})
		if err == nil {
			w := runWire(chunk)
			stats.GroupsShipped += int64(w.groups)
			stats.BytesShipped += int64(w.bytes)
		}
	}
	if err == nil && !more {
		r.id = 0
	}
	return chunk, more, err
}

// close drops the run tails the merge never drained — a `_limit` cut,
// Release, expiry, a failed pull. With no fabric context (the coordinator
// itself is gone, DropResultsOn) nothing can be sent and the tails lapse
// by TTL, since a worker cannot rely on a crashed coordinator to release
// them.
func (cur *groupCursor) close(c *fabric.Ctx) {
	if c != nil {
		cur.e.dropRuns(c, cur.runs)
	}
}

// orderedGroup is one finalized group with the encoded key that breaks
// aggregate-order ties.
type orderedGroup struct {
	enc string
	gr  GroupRow
}

// aggregateLess orders finalized groups by tp's aggregate `_orderby` keys,
// nulls last, with the encoded group key as the final tie-break.
func aggregateLess(tp *VertexPattern, a, b *orderedGroup) bool {
	for k, ob := range tp.Orders {
		col := tp.Aggs[tp.GroupOrder[k]].Raw
		av, bv := a.gr.Aggregates[col], b.gr.Aggregates[col]
		an, bn := av.IsNull(), bv.IsNull()
		if an != bn {
			return bn
		}
		if an {
			continue
		}
		if cmp, _ := bond.Compare(av, bv); cmp != 0 {
			if ob.Desc {
				return cmp > 0
			}
			return cmp < 0
		}
	}
	return a.enc < b.enc
}

// orderGroups serves the order-by-aggregate form, which needs every group
// before any aggregate order is final: it drains the run merge into one
// buffer, sorts it by aggregateLess and pages it as a materialized
// result. The buffer holds no more groups than the worker runs it merged,
// each already capped at MaxWorkingSet by runBatch.
func (st *execState) orderGroups(qc *fabric.Ctx, cur *groupCursor, tp *VertexPattern) (pageSource, error) {
	var buf []orderedGroup
	for {
		enc, gs, ok, err := cur.merged(qc, &st.stats)
		if err != nil {
			cur.close(qc)
			return nil, err
		}
		if !ok {
			break
		}
		buf = append(buf, orderedGroup{enc: enc, gr: groupRowOf(gs, tp.GroupBy, tp.Aggs)})
	}
	sort.Slice(buf, func(i, j int) bool { return aggregateLess(tp, &buf[i], &buf[j]) })
	st.stats.PeakGroups = max(st.stats.PeakGroups, int64(len(buf)))
	grows := make([]GroupRow, len(buf))
	for i := range buf {
		grows[i] = buf[i].gr
	}
	return newPager(grows, nil, tp, groupsOf), nil
}
