package query

import (
	"encoding/binary"
	"fmt"
	"sort"

	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/fabric"
	"a1/internal/objectstore"
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
// The order-by-aggregate form needs every group before the sort; past
// MaxWorkingSet buffered groups the coordinator sorts the buffer into a run
// and spills it to the engine's objectstore, then merge-sorts the runs back
// — graceful completion where the engine used to fast-fail.

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

// finalAggValue converts one merged aggregate state into its result value.
func finalAggValue(s *aggState, a Aggregate) bond.Value {
	switch a.Kind {
	case AggCount:
		return bond.Int64(s.count)
	case AggSum:
		if s.fracSum {
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
		cmp, ok := compareValues(v, hp.Value)
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

// runSource is the coordinator's view of one machine's sorted run: the
// buffered chunk plus the run id to pull the rest from (0 = fully
// delivered).
type runSource struct {
	m     fabric.MachineID
	buf   []groupEntry
	pos   int
	runID uint64
}

// wire sizes a shipped run chunk: full (non-tombstone) partial states
// count as shipped groups, tombstones ship their key alone.
func (s *runSource) wire() wireSize { return runWire(s.buf) }

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
// and the returned cursor k-way merges the runs lazily — pulling parked run
// tails chunk by chunk as the result pages out.
func (st *execState) execGroupedLevel(qc *fabric.Ctx, batches []ownerBatch, pat *VertexPattern, lp *LevelPlan) (*groupCursor, error) {
	// Sources stay in the frontier's owner order: equal keys merge their
	// float sums in source order, and results must not depend on batch
	// timing.
	srcs := make([]*runSource, len(batches))
	err := scatter(st, qc, batches,
		func(sc *fabric.Ctx, b ownerBatch) (*runSource, error) {
			// One machine owns the whole terminal frontier: its partial
			// states are the final states, so `_having` evaluates exactly at
			// the worker and the coordinator re-check is redundant.
			return st.buildGroupSource(sc, b.ptrs, pat, lp, b.n == 1)
		},
		func(_ *fabric.Ctx, b ownerBatch, src *runSource) error {
			srcs[b.i] = src
			return nil
		})
	if err != nil {
		// The cursor that would have drained the parked tails never exists.
		st.engine.dropRuns(qc, srcs)
		return nil, err
	}
	cur := &groupCursor{
		e:      st.engine,
		srcs:   srcs,
		by:     pat.GroupBy,
		aggs:   pat.Aggs,
		having: pat.Having,
		exact:  len(srcs) == 1,
	}
	if r := cur.resident(); r > st.stats.PeakGroups {
		st.stats.PeakGroups = r
	}
	return cur, nil
}

// dropRuns discards the run tails still parked for srcs: one drop per
// machine that holds one, sent in parallel. Best effort: a tail the drop
// cannot reach lapses by TTL like any other.
func (e *Engine) dropRuns(c *fabric.Ctx, srcs []*runSource) {
	var held []*runSource
	for _, src := range srcs {
		if src != nil && src.runID != 0 {
			held = append(held, src)
		}
	}
	c.Parallel(len(held), func(i int, cc *fabric.Ctx) {
		src := held[i]
		if src.m == cc.M {
			e.runs[src.m].claim(src.runID)
			return
		}
		_ = cc.RPC(src.m, 32, func(*fabric.Ctx) (int, error) {
			e.runs[src.m].claim(src.runID)
			return 0, nil
		})
	})
	for _, src := range held {
		src.runID = 0
	}
}

// buildGroupSource is the owner-side half: reduce the batch (runBatch
// enforces the per-machine working-set cap incrementally), sort the group
// map into a run, ship the first chunk inline and park the tail in this
// machine's run store under the continuation TTL.
func (st *execState) buildGroupSource(sc *fabric.Ctx, batch []core.VertexPtr, pat *VertexPattern, lp *LevelPlan, exact bool) (*runSource, error) {
	out, err := st.runBatch(sc, batch, st.opFor(pat, lp))
	if err != nil {
		return nil, err
	}
	entries, filtered := buildGroupRun(out.groups, pat, exact)
	if filtered > 0 {
		st.mu.Lock()
		st.stats.GroupsFiltered += int64(filtered)
		st.mu.Unlock()
	}
	e := st.engine
	src := &runSource{m: sc.M, buf: entries}
	if len(entries) > e.cfg.GroupChunk {
		src.buf = entries[:e.cfg.GroupChunk]
		src.runID = e.parkRun(sc, entries[e.cfg.GroupChunk:])
	}
	return src, nil
}

// groupCursor k-way merges per-machine key-sorted runs into the stream of
// globally merged groups, ascending by encoded key — byte-identical order
// to sorting every group's key. Equal keys across machines merge their
// aggregate states; a tombstone from any machine kills its key.
type groupCursor struct {
	e      *Engine
	srcs   []*runSource
	by     []FieldPath
	aggs   []Aggregate
	having []HavingPred
	exact  bool
	done   bool
}

// fill ensures a source has a buffered head, pulling the next chunk of its
// parked run when the buffer drains. Remote pulls account their reply bytes
// and shipped states like any worker RPC.
func (cur *groupCursor) fill(c *fabric.Ctx, s *runSource, stats *Stats) error {
	if s.pos < len(s.buf) || s.runID == 0 {
		return nil
	}
	e := cur.e
	var entries []groupEntry
	var more bool
	var err error
	if s.m == c.M {
		entries, more, err = e.pullRun(c, s.runID)
	} else {
		err = c.RPC(s.m, 32, func(sc *fabric.Ctx) (int, error) {
			var perr error
			entries, more, perr = e.pullRun(sc, s.runID)
			return runWire(entries).bytes, perr
		})
		if err == nil {
			w := runWire(entries)
			stats.GroupsShipped += int64(w.groups)
			stats.BytesShipped += int64(w.bytes)
		}
	}
	if err != nil {
		return err
	}
	s.buf, s.pos = entries, 0
	if !more {
		s.runID = 0
	}
	if r := cur.resident(); r > stats.PeakGroups {
		stats.PeakGroups = r
	}
	return nil
}

// resident counts the group entries currently buffered at the coordinator.
func (cur *groupCursor) resident() int64 {
	var n int64
	for _, s := range cur.srcs {
		n += int64(len(s.buf) - s.pos)
	}
	return n
}

// next returns the next merged group in encoded-key order, or ok=false when
// the runs are exhausted.
func (cur *groupCursor) next(c *fabric.Ctx, stats *Stats) (string, *groupState, bool, error) {
	srcs := cur.srcs
	for !cur.done {
		for _, s := range srcs {
			if err := cur.fill(c, s, stats); err != nil {
				return "", nil, false, err
			}
		}
		best := leastHead(len(srcs),
			func(i int) bool { return srcs[i].pos < len(srcs[i].buf) },
			func(i, j int) bool { return srcs[i].buf[srcs[i].pos].enc < srcs[j].buf[srcs[j].pos].enc })
		if best < 0 {
			cur.done = true
			break
		}
		enc := srcs[best].buf[srcs[best].pos].enc
		var merged *groupState
		dead := false
		for _, s := range srcs {
			if s.pos >= len(s.buf) || s.buf[s.pos].enc != enc {
				continue
			}
			ge := s.buf[s.pos]
			s.pos++
			c.Work(cur.e.cfg.CostMerge)
			switch {
			case ge.gs == nil:
				dead = true // a worker proved the group fails _having
			case merged == nil:
				merged = ge.gs
			default:
				mergeAggStates(merged.aggs, ge.gs.aggs, cur.aggs)
			}
		}
		if dead || merged == nil {
			continue
		}
		if len(cur.having) > 0 && !cur.exact && !evalHavingState(merged, cur.having, cur.aggs) {
			stats.GroupsFiltered++
			continue
		}
		return enc, merged, true, nil
	}
	return "", nil, false, nil
}

// groupStream is a source of finalized groups the pager pages out: the live
// run merge (unordered `_groupby`) or the spill merge (order-by-aggregate
// past the working-set cap).
type groupStream interface {
	nextRow(c *fabric.Ctx, stats *Stats) (GroupRow, bool, error)
	resident() int64
	close(c *fabric.Ctx)
}

func (cur *groupCursor) nextRow(c *fabric.Ctx, stats *Stats) (GroupRow, bool, error) {
	_, gs, ok, err := cur.next(c, stats)
	if err != nil || !ok {
		return GroupRow{}, false, err
	}
	return groupRowOf(gs, cur.by, cur.aggs), true, nil
}

// close drops the run tails the merge never drained — a `_limit` cut,
// Release, expiry. With no fabric context (the coordinator itself is gone,
// DropResultsOn) nothing can be sent and the tails lapse by TTL, since a
// worker cannot rely on a crashed coordinator to release them.
func (cur *groupCursor) close(c *fabric.Ctx) {
	if c != nil {
		cur.e.dropRuns(c, cur.srcs)
	}
}

// pager applies the terminal _skip/_limit to a group stream and cuts it
// into continuation pages. It holds a one-row lookahead so a page knows
// whether a continuation must be issued without an empty final page.
type pager struct {
	stream  groupStream
	skip    int
	limit   int // remaining _limit; -1 = unbounded
	pending *GroupRow
	done    bool
}

func newPager(stream groupStream, tp *VertexPattern) *pager {
	pg := &pager{stream: stream, skip: tp.Skip, limit: -1}
	if tp.Limit > 0 {
		pg.limit = tp.Limit
	}
	return pg
}

func (p *pager) pull(c *fabric.Ctx, stats *Stats) (GroupRow, bool, error) {
	if p.pending != nil {
		gr := *p.pending
		p.pending = nil
		return gr, true, nil
	}
	if p.done || p.limit == 0 {
		p.done = true
		return GroupRow{}, false, nil
	}
	for {
		gr, ok, err := p.stream.nextRow(c, stats)
		if err != nil {
			return GroupRow{}, false, err
		}
		if !ok {
			p.done = true
			return GroupRow{}, false, nil
		}
		if p.skip > 0 {
			p.skip--
			continue
		}
		if p.limit > 0 {
			p.limit--
		}
		return gr, true, nil
	}
}

// nextPage emits up to n groups and reports whether more remain.
func (p *pager) nextPage(c *fabric.Ctx, n int, res *Result) (bool, error) {
	stats := &res.Stats
	var out []GroupRow
	for len(out) < n {
		gr, ok, err := p.pull(c, stats)
		if err != nil {
			return false, err
		}
		if !ok {
			break
		}
		out = append(out, gr)
	}
	res.Groups = out
	if r := int64(len(out)) + p.stream.resident(); r > stats.PeakGroups {
		stats.PeakGroups = r
	}
	if p.done {
		return false, nil
	}
	// Look one group ahead so an exactly-full page with nothing behind it
	// ends the stream instead of issuing a dead continuation.
	gr, ok, err := p.pull(c, stats)
	if err != nil || !ok {
		return false, err
	}
	p.pending = &gr
	return true, nil
}

func (p *pager) close(c *fabric.Ctx) { p.stream.close(c) }

// Order-by-aggregate spill: the top-K-groups form needs every group before
// any aggregate order is final. The coordinator drains the run merge into a
// buffer; past MaxWorkingSet buffered groups the buffer is sorted by the
// aggregate orders (encoded key ascending as the tie-break, as in the
// in-memory path) and written to the engine's objectstore as one run, keyed
// by big-endian sequence number so sorted-order reads are sequence reads. The runs merge back lazily with
// a Go comparator — byte order of the stored rows is never relied on.

// spillRow is one finalized group with the encoded key that breaks
// aggregate-order ties.
type spillRow struct {
	enc string
	gr  GroupRow
}

// spillRowLess orders finalized groups by the aggregate `_orderby` keys,
// nulls last, with the encoded group key as the final tie-break — the
// order of the order-by-aggregate form, spilled or not.
func spillRowLess(a, b *spillRow, orders []OrderBy, aggIdx []int, aggs []Aggregate) bool {
	for k, ob := range orders {
		col := aggs[aggIdx[k]].Raw
		av, bv := a.gr.Aggregates[col], b.gr.Aggregates[col]
		an, bn := av.IsNull(), bv.IsNull()
		if an != bn {
			return bn
		}
		if an {
			continue
		}
		if cmp, ok := compareValues(av, bv); ok && cmp != 0 {
			if ob.Desc {
				return cmp > 0
			}
			return cmp < 0
		}
	}
	return a.enc < b.enc
}

func sortSpillRows(rows []spillRow, tp *VertexPattern) {
	sort.Slice(rows, func(i, j int) bool {
		return spillRowLess(&rows[i], &rows[j], tp.Orders, tp.GroupOrder, tp.Aggs)
	})
}

// marshal encodes one spilled group: [enc, key values..., aggregate
// values...], positions fixed by the pattern's GroupBy/Aggs so field names
// need not be stored.
func (r *spillRow) marshal(by []FieldPath, aggs []Aggregate) []byte {
	keys := make([]bond.Value, len(by))
	for i, fp := range by {
		keys[i] = r.gr.Keys[fp.Raw]
	}
	avs := make([]bond.Value, len(aggs))
	for i, a := range aggs {
		avs[i] = r.gr.Aggregates[a.Raw]
	}
	return bond.Marshal(bond.List(bond.Blob([]byte(r.enc)), bond.List(keys...), bond.List(avs...)))
}

func unmarshalSpillRow(data []byte, by []FieldPath, aggs []Aggregate) (spillRow, error) {
	v, err := bond.Unmarshal(data)
	if err != nil {
		return spillRow{}, fmt.Errorf("a1ql: corrupt spill row: %v", err)
	}
	r := spillRow{
		enc: string(v.Index(0).AsBlob()),
		gr: GroupRow{
			Keys:       make(map[string]bond.Value, len(by)),
			Aggregates: make(map[string]bond.Value, len(aggs)),
		},
	}
	kl, al := v.Index(1), v.Index(2)
	for i, fp := range by {
		r.gr.Keys[fp.Raw] = kl.Index(i)
	}
	for i, a := range aggs {
		r.gr.Aggregates[a.Raw] = al.Index(i)
	}
	return r, nil
}

func spillSeqKey(i int) []byte {
	var key [8]byte
	binary.BigEndian.PutUint64(key[:], uint64(i))
	return key[:]
}

// writeSpillRun persists one sorted buffer as an objectstore run table.
func (e *Engine) writeSpillRun(rows []spillRow, tp *VertexPattern) (string, error) {
	name := fmt.Sprintf("a1ql-spill-%d", e.spillSeq.Add(1))
	t := e.spill.CreateTable(name, objectstore.BestEffort)
	for i := range rows {
		if err := t.UpsertIfNewer(spillSeqKey(i), rows[i].marshal(tp.GroupBy, tp.Aggs), 1); err != nil {
			e.spill.DropTable(name)
			return "", err
		}
	}
	return name, nil
}

// collectOrderedGroups drains the run merge for the order-by-aggregate
// form. Groups buffer in memory up to MaxWorkingSet; overflow sorts and
// spills the buffer as a run. The final partial buffer is sorted too: with
// no overflow it comes back as the whole result, otherwise it rides as the
// in-memory run of the returned spill merge.
func (st *execState) collectOrderedGroups(qc *fabric.Ctx, cur *groupCursor, tp *VertexPattern) ([]spillRow, *spillMerge, error) {
	e := st.engine
	var buf []spillRow
	var tables []string
	drop := func() {
		for _, name := range tables {
			e.spill.DropTable(name)
		}
	}
	for {
		enc, gs, ok, err := cur.next(qc, &st.stats)
		if err != nil {
			drop()
			return nil, nil, err
		}
		if !ok {
			break
		}
		buf = append(buf, spillRow{enc: enc, gr: groupRowOf(gs, tp.GroupBy, tp.Aggs)})
		if len(buf) >= e.cfg.MaxWorkingSet {
			sortSpillRows(buf, tp)
			name, err := e.writeSpillRun(buf, tp)
			if err != nil {
				drop()
				return nil, nil, err
			}
			tables = append(tables, name)
			st.stats.GroupSpills++
			if int64(len(buf)) > st.stats.PeakGroups {
				st.stats.PeakGroups = int64(len(buf))
			}
			buf = buf[:0]
		}
	}
	sortSpillRows(buf, tp)
	if len(tables) == 0 {
		if int64(len(buf)) > st.stats.PeakGroups {
			st.stats.PeakGroups = int64(len(buf))
		}
		return buf, nil, nil
	}
	sm := &spillMerge{
		e:      e,
		tables: tables,
		orders: tp.Orders,
		aggIdx: tp.GroupOrder,
		aggs:   tp.Aggs,
		by:     tp.GroupBy,
	}
	for _, name := range tables {
		t, err := e.spill.Table(name)
		if err != nil {
			drop()
			return nil, nil, err
		}
		sm.srcs = append(sm.srcs, &spillSource{table: t, n: t.Len()})
	}
	sm.srcs = append(sm.srcs, &spillSource{buf: buf})
	return nil, sm, nil
}

// spillSource reads one spilled run back in chunks of sequence keys. The
// in-memory tail run is a source with nothing left to read (n = 0) and its
// rows already buffered.
type spillSource struct {
	table *objectstore.Table
	n     int // total rows in the run's table
	next  int // next sequence number to read
	buf   []spillRow
	pos   int
}

// spillMerge k-way merges spilled runs plus the in-memory tail run into the
// globally ordered group stream, decoding one chunk per run at a time.
type spillMerge struct {
	e      *Engine
	tables []string
	srcs   []*spillSource
	orders []OrderBy
	aggIdx []int
	aggs   []Aggregate
	by     []FieldPath
}

func (sm *spillMerge) fill(s *spillSource) error {
	if s.pos < len(s.buf) || s.next >= s.n {
		return nil
	}
	end := s.next + sm.e.cfg.GroupChunk
	if end > s.n {
		end = s.n
	}
	s.buf = s.buf[:0]
	for i := s.next; i < end; i++ {
		row, ok, err := s.table.Get(spillSeqKey(i))
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("a1ql: spill run missing row %d", i)
		}
		sr, err := unmarshalSpillRow(row.Value, sm.by, sm.aggs)
		if err != nil {
			return err
		}
		s.buf = append(s.buf, sr)
	}
	s.next = end
	s.pos = 0
	return nil
}

func (sm *spillMerge) nextRow(c *fabric.Ctx, _ *Stats) (GroupRow, bool, error) {
	srcs := sm.srcs
	for _, s := range srcs {
		if err := sm.fill(s); err != nil {
			return GroupRow{}, false, err
		}
	}
	best := leastHead(len(srcs),
		func(i int) bool { return srcs[i].pos < len(srcs[i].buf) },
		func(i, j int) bool {
			return spillRowLess(&srcs[i].buf[srcs[i].pos], &srcs[j].buf[srcs[j].pos], sm.orders, sm.aggIdx, sm.aggs)
		})
	if best < 0 {
		return GroupRow{}, false, nil
	}
	c.Work(sm.e.cfg.CostMerge)
	s := srcs[best]
	s.pos++
	return s.buf[s.pos-1].gr, true, nil
}

func (sm *spillMerge) resident() int64 {
	var n int64
	for _, s := range sm.srcs {
		n += int64(len(s.buf) - s.pos)
	}
	return n
}

// close drops the spilled run tables — on stream exhaustion, Release,
// expiry, or coordinator crash.
func (sm *spillMerge) close(*fabric.Ctx) {
	for _, name := range sm.tables {
		sm.e.spill.DropTable(name)
	}
	sm.tables = nil
}

// streamGroups turns the run-merge cursor of a streamed grouped result into
// the source its pages come from. The unordered form pages the merge cursor
// directly — later pages pull more of the runs. The aggregate-`_orderby`
// form drains the cursor first (spilling sorted runs past MaxWorkingSet):
// with no spill the sorted buffer pages from memory; with spill the runs
// merge back lazily behind the continuation.
func (st *execState) streamGroups(qc *fabric.Ctx, cur *groupCursor, tp *VertexPattern) (pageSource, error) {
	if len(tp.Orders) == 0 {
		return newPager(cur, tp), nil
	}
	mem, sm, err := st.collectOrderedGroups(qc, cur, tp)
	if err != nil {
		cur.close(qc)
		return nil, err
	}
	if sm != nil {
		return newPager(sm, tp), nil
	}
	grows := make([]GroupRow, len(mem))
	for i := range mem {
		grows[i] = mem[i].gr
	}
	return groupPages(cut(grows, tp.Skip, tp.Limit)), nil
}
