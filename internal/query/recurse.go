package query

import (
	"fmt"
	"sync"

	"a1/internal/core"
	"a1/internal/fabric"
)

// Recursive traversal (`_recurse`): bounded-depth BFS executed as a
// distributed frontier expansion, an iteration at a time, each one a plan
// level's scatter and merge (expand): the machines owning the data expand
// their batch through the batched read path and reply with the next hops
// split by owner, which the coordinator merges into per-owner sets as the
// replies arrive. A per-machine visited set then drops re-entries before
// any vertex read — expansion cost tracks the size of the reachable set,
// not the number of paths into it. Ownership is address-determined
// (PrimaryOf), so the union of the per-machine sets is a global visited
// set with no cross-machine coordination.
//
// Semantics are distance-based: a vertex is emitted iff its BFS hop
// distance d from a surviving root satisfies `_min <= d <= _max`, at
// most once, and `_shortest` reports d (the first-visit depth of a BFS
// is the shortest distance). Roots sit at distance 0 and are never
// emitted. Edge-pattern predicates prune the traversal itself; the
// `_vertex` terminal's type and predicates filter output only — the
// expansion walks through non-matching vertices.

// recurseRun carries one expansion across its iterations. It survives a
// run() return inside a recurseRows when the result pages out
// mid-expansion, so everything an iteration needs hangs off it.
type recurseRun struct {
	st   *execState
	host *VertexPattern // level hosting the `_recurse` clause
	term *VertexPattern // the `_vertex` terminal (output filter + shaping)
	rp   *RecursePattern
	// What the host's filters and the terminal's operators consume of a
	// vertex (the two levels' read sets).
	hostRead, termRead ReadSet

	// visited is the per-machine dedup state: each set is touched only by
	// its owner's batch goroutine inside one iteration, and iterations are
	// sequential, so no lock is needed.
	visited []*addrSet

	cur       *frontier  // candidates for iteration k
	k         int        // next iteration, 1-based
	working   int        // visited-budget spent (MaxWorkingSet)
	emitted   int        // rows emitted so far (terminal act)
	termLevel int        // st.levels index of the terminal entry
	iterBase  int        // st.levels index of "Iter 1/max"; -1 = none
	aggs      []aggState // terminal aggregate partials across iterations
	done      bool
}

// recurseRows streams an unshaped `_recurse` into its pager: it steps
// the distributed expansion only when the rows it holds run out, so a deep
// reachable set never sits fully resident behind a token. It takes over
// the issuing query's snapshot pin, so the versions the expansion reads
// survive the query's return; close is idempotent, so the sweeper,
// Release, and a failing page can all tear it down safely.
type recurseRows struct {
	rr    *recurseRun
	rows  []Row // emitted by the last step, not yet pulled
	unpin func()
	once  sync.Once
}

// execRecurse runs the `_recurse` hosted at pats[level]. A shaped result
// (ordering, aggregation, _limit/_skip) expands to completion and comes
// back as rows and aggregate partials; an unshaped one can stream in
// discovery order, so it comes back as a row source seeded but not yet
// stepped.
func (st *execState) execRecurse(qc *fabric.Ctx, roots []ownerBatch, n, level int, pl *Plan, pats []*VertexPattern) (*levelOutput, error) {
	e := st.engine
	host, term := pats[level], pats[level+1]
	rp := host.Recurse
	rr := &recurseRun{st: st, host: host, term: term, rp: rp, k: 1, termLevel: level + 1, iterBase: -1,
		hostRead: pl.Levels[level].Read, termRead: pl.Levels[level+1].Read}
	rr.visited = make([]*addrSet, e.store.Farm().Fabric().Machines())
	if n := len(st.levels); rp.Max > 0 && n >= rp.Max {
		rr.iterBase = n - rp.Max
	}

	// Seed: the host level's residual filters pick the expansion roots;
	// survivors are marked visited (distance 0) and enumerate the first
	// hop's candidates.
	rr.working = n
	seed, err := rr.runPhase(qc, roots, 0)
	if err != nil {
		rr.release()
		return nil, err
	}
	st.stats.Hops++
	rr.cur = seed.next
	if rr.cur.empty() || rp.Max < 1 {
		rr.done = true
	}
	if len(term.Orders) == 0 && len(term.Aggs) == 0 && len(term.GroupBy) == 0 && term.Limit == 0 && term.Skip == 0 {
		// The source reads on after the query returns: it takes over the
		// query's snapshot pin.
		src := &recurseRows{rr: rr, unpin: st.unpin}
		st.unpin = func() {}
		return &levelOutput{page: newPager[Row](nil, src, term, rowsOf)}, nil
	}
	var rows []Row
	for !rr.done {
		out, err := rr.step(qc)
		if err != nil {
			rr.release()
			return nil, err
		}
		rows = append(rows, out...)
		// Ordered-limit accumulation: the visited sets emit each vertex
		// once, so pruning to the top K(+skip) loses nothing.
		if st.keep > 0 && len(rows) > 2*st.keep {
			rows = topK(rows, term.Orders, st.keep)
		}
	}
	rr.release()
	st.setActRows(rr.termLevel, len(rows))
	return &levelOutput{rows: rows, aggs: rr.aggs}, nil
}

// step runs one expansion iteration over the candidates' owner batches
// and merges their emissions and next candidates. It reports the rows this
// iteration emitted.
func (rr *recurseRun) step(qc *fabric.Ctx) ([]Row, error) {
	st := rr.st
	k := rr.k
	if rr.done || k > rr.rp.Max || rr.cur.empty() {
		rr.done = true
		return nil, nil
	}
	// Unordered-_limit short-circuit: once enough rows exist, deeper
	// expansion cannot improve the result.
	if st.rowTarget > 0 && st.rowsOut.Load() >= st.rowTarget {
		rr.done = true
		return nil, nil
	}
	cand, _ := rr.cur.seal()
	out, err := rr.runPhase(qc, cand, k)
	rr.cur.release()
	rr.cur = nil
	if err != nil {
		return nil, err
	}
	rr.cur = out.next
	st.stats.Hops++
	rr.setIterAct(k, out.accepted)
	rr.working += out.accepted
	if rr.working > st.engine.cfg.MaxWorkingSet {
		return nil, fmt.Errorf("%w: %d vertices visited", ErrWorkingSet, rr.working)
	}
	if out.aggs != nil {
		if rr.aggs == nil {
			rr.aggs = make([]aggState, len(rr.term.Aggs))
		}
		mergeAggStates(rr.aggs, out.aggs, rr.term.Aggs)
	}
	rr.emitted += len(out.rows)
	st.setActRows(rr.termLevel, rr.emitted)
	rr.k++
	if rr.k > rr.rp.Max || rr.cur.empty() {
		rr.done = true
	}
	return out.rows, nil
}

// runPhase scatters one iteration's frontier to its owners — seed (k=0) or
// expansion (k>=1) — and merges their emissions, next candidates (while
// the depth bound allows another hop) and accepted counts (the candidates
// that survived the visited filters).
// The seed applies the host level's residual filters to an owner's slice
// of the roots, marks survivors visited at distance 0, and enumerates
// their first-hop candidates.
func (rr *recurseRun) runPhase(qc *fabric.Ctx, batches []ownerBatch, k int) (*levelOutput, error) {
	return rr.st.expand(qc, batches, rr.term, k == 0 || k < rr.rp.Max, func(sc *fabric.Ctx, b ownerBatch) (*levelOutput, error) {
		if k == 0 {
			return rr.st.runBatch(sc, b.ptrs, levelOp{pat: rr.host, read: rr.hostRead, member: rr.st.member, edge: rr.rp.Edge, mark: rr.visitedFor(b.m)})
		}
		return rr.expandBatch(sc, b.m, b.ptrs, k)
	})
}

// expandBatch runs iteration k for this owner's slice of the candidate
// frontier: drop already-visited candidates before any read, emit the
// survivors inside the depth window that pass the terminal's output
// filters, and enumerate the next hop's candidates while the depth bound
// allows. The terminal's filters gate OUTPUT only: a non-matching vertex
// still expands.
func (rr *recurseRun) expandBatch(sc *fabric.Ctx, m fabric.MachineID, batch []core.VertexPtr, k int) (*levelOutput, error) {
	st := rr.st
	// Visited filter first, so the dedup saving shows up as vertices never
	// read at all.
	visited := rr.visitedFor(m)
	work := getPtrs()
	for _, vp := range batch {
		if visited.add(vp.Addr) {
			work = append(work, vp)
		}
	}
	defer putPtrs(work)
	op := levelOp{through: true}
	if k < rr.rp.Max {
		op.edge = rr.rp.Edge
	}
	if k >= rr.rp.Min {
		op.pat, op.read, op.emit = rr.term, rr.termRead, true
		if rr.rp.Shortest {
			op.hops = k
		}
	}
	out, err := st.runBatch(sc, work, op)
	if err != nil {
		return nil, err
	}
	out.accepted = len(work)
	return out, nil
}

// visitedFor hands a batch its owner's visited set, creating it lazily.
// Safe unlocked: one goroutine per machine per iteration, iterations in
// sequence; the morsels of a split seed batch, which all mark the set, run
// in Sim mode only, one process at a time.
func (rr *recurseRun) visitedFor(m fabric.MachineID) *addrSet {
	if rr.visited[m] == nil {
		rr.visited[m] = getAddrSet()
	}
	return rr.visited[m]
}

func (rr *recurseRun) setIterAct(k, n int) {
	if rr.iterBase >= 0 {
		rr.st.setActRows(rr.iterBase+k-1, n)
	}
}

// release returns the run's cross-iteration state to the pools.
func (rr *recurseRun) release() {
	rr.cur.release()
	rr.cur = nil
	for i, v := range rr.visited {
		if v != nil {
			putAddrSet(v)
			rr.visited[i] = nil
		}
	}
	rr.done = true
}

// next steps the expansion once the last step's rows are all pulled. The
// execution counters a step moves are added to the page's own Stats: the
// execState outlives the query that built it.
func (s *recurseRows) next(c *fabric.Ctx, stats *Stats) (Row, bool, error) {
	st := s.rr.st
	for len(s.rows) == 0 {
		if s.rr.done {
			return Row{}, false, nil
		}
		st.mu.Lock()
		prev := st.stats
		st.mu.Unlock()
		rows, err := s.rr.step(c)
		st.mu.Lock()
		cur := st.stats
		st.mu.Unlock()
		stats.Hops += cur.Hops - prev.Hops
		stats.VerticesRead += cur.VerticesRead - prev.VerticesRead
		stats.EdgesVisited += cur.EdgesVisited - prev.EdgesVisited
		stats.RowsShipped += cur.RowsShipped - prev.RowsShipped
		stats.BytesShipped += cur.BytesShipped - prev.BytesShipped
		stats.IndexFiltered += cur.IndexFiltered - prev.IndexFiltered
		if err != nil {
			return Row{}, false, err
		}
		s.rows = rows
	}
	row := s.rows[0]
	s.rows = s.rows[1:]
	return row, true, nil
}

// close releases the expansion's state: idempotent, so a failing page,
// Release, the sweeper, and a coordinator drop can all call it.
func (s *recurseRows) close(*fabric.Ctx) {
	s.once.Do(func() {
		s.rr.release()
		releaseRows(s.rows)
		s.rows = nil
		s.unpin()
	})
}
