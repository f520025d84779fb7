package query

import (
	"fmt"
	"time"

	"a1/internal/core"
	"a1/internal/fabric"
)

// Morsels: an owner splits a large batch into contiguous morsels and runs
// each on a CPU worker of its machine that is idle when the batch starts
// (morsel-driven parallelism, Leis et al., SIGMOD 2014), then joins the
// morsels' outputs, in morsel order, into the one reply the batch run
// whole would have built.

// morselMin is the fewest vertices a morsel gets: below it, what a worker
// saves is about what the join costs.
const morselMin = 64

// morselCount is how many morsels runBatch splits n vertices into for op:
// min(CPU workers, n/morselMin, idle workers + 1), counting the batch's own
// process as the one worker not idle. Three kinds of batch run whole:
// pointer-only ops, which read nothing; a level under an unordered
// `_limit` cut, whose loop stops reading once enough rows exist, which
// concurrent morsels would overrun (VerticesRead stays exact); and every
// batch in Direct mode, whose fabric reports no idle workers.
func (st *execState) morselCount(sc *fabric.Ctx, op levelOp, n int) int {
	if op.pointerOnly() || st.rowTarget > 0 || n < 2*morselMin {
		return 1
	}
	idle := sc.IdleWorkers()
	if idle == 0 {
		return 1
	}
	return min(sc.F.Config().CPUWorkers, n/morselMin, idle+1)
}

// runMorsels runs op over k contiguous morsels of work, each on a process
// of its own on sc's machine, and joins their outputs in morsel order. A
// failed batch returns the first error in morsel order — the one a serial
// run meets first, since it would have read every earlier morsel whole —
// and releases every morsel's frontier.
func (st *execState) runMorsels(sc *fabric.Ctx, work []core.VertexPtr, op levelOp, k int, bc *batchCounts) (*levelOutput, error) {
	// The morsels' visits share the machine's catalog proxy: fill it once,
	// as a serial run does, not once per morsel.
	if err := st.graph.WarmProxy(sc, op.edge != nil || op.pat != nil && len(op.pat.Matches) > 0); err != nil {
		return nil, err
	}
	outs := make([]*levelOutput, k)
	errs := make([]error, k)
	counts := make([]batchCounts, k)
	sc.Parallel(k, func(i int, mc *fabric.Ctx) {
		outs[i], errs[i] = st.runMorsel(mc, work[i*len(work)/k:(i+1)*len(work)/k], op, &counts[i])
	})
	var err error
	for i := range outs {
		bc.add(counts[i])
		if err == nil {
			err = errs[i]
		}
	}
	out := outs[0]
	merged := 0
	for _, in := range outs[1:] {
		if err == nil {
			var n int
			n, err = out.join(in, op.pat, st.engine.cfg.MaxWorkingSet)
			merged += n
		}
		in.release()
	}
	if err != nil {
		out.release()
		return nil, err
	}
	if st.keep > 0 && len(out.rows) > st.keep {
		out.rows = topK(out.rows, op.pat.Orders, st.keep)
	}
	sc.Work(time.Duration(merged) * st.engine.cfg.CostMerge)
	return out, nil
}

// join appends the next morsel's output in to o, the join of the morsels
// before it, and returns the entries it merged: rows concatenated (the
// caller's top-K runs after the last), aggregate partials merged, group
// partials folded into o's map (past maxGroups, the working-set error a
// serial batch raises), next hops appended undeduplicated, `accepted`
// summed. in's frontier is left for the caller to release.
func (o *levelOutput) join(in *levelOutput, pat *VertexPattern, maxGroups int) (int, error) {
	n := len(in.rows) + len(in.aggs) + len(in.groups)
	o.rows = append(o.rows, in.rows...)
	putRows(in.rows)
	if in.aggs != nil {
		mergeAggStates(o.aggs, in.aggs, pat.Aggs)
	}
	for enc, gs := range in.groups {
		if dst := o.groups[enc]; dst != nil {
			mergeAggStates(dst.aggs, gs.aggs, pat.Aggs)
			continue
		}
		o.groups[enc] = gs
		if len(o.groups) > maxGroups {
			return n, fmt.Errorf("%w: %d group partials", ErrWorkingSet, len(o.groups))
		}
	}
	if in.next != nil {
		n += in.next.raw
		o.next.append(in.next)
	}
	o.accepted += in.accepted
	return n, nil
}
