package query

import (
	"sync"
	"time"

	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/fabric"
	"a1/internal/farm"
)

// Shipping: scatter runs a level's work near the data of a frontier split
// by owner, and levelOutput is what one owner replies with and what the
// coordinator merges those replies into, sized for the wire as they ship.

// levelOutput is the product of one level: what one owner's batch replies
// with, and what the coordinator merges those replies into.
type levelOutput struct {
	next   *frontier // next hops: a reply's raw ones, or the merged frontier
	rows   []Row
	aggs   []aggState             // partial aggregates, parallel to the level's Aggs
	groups map[string]*groupState // one owner's grouped-aggregate partials (buildGroupRun input)

	accepted int // `_recurse`: candidates that survived the owners' visited filters

	// A terminal level may leave a live producer instead of rows: the
	// pager over streamed groups or an unshaped `_recurse` expansion.
	page pageSource

	mu sync.Mutex // absorb: replies merge concurrently
}

// release returns a dropped output's frontier to the pool.
func (o *levelOutput) release() {
	if o != nil {
		o.next.release()
	}
}

// absorb merges one owner's reply into the coordinator's running product,
// in the scatter body cc that received it. The next hops go straight into
// their owners' sets, each under its owner's lock alone, and the merge's
// CostMerge per raw pointer is charged afterwards, holding no lock. pat is
// the pattern whose Aggs and Orders shaped the reply's rows.
func (o *levelOutput) absorb(cc *fabric.Ctx, st *execState, in *levelOutput, pat *VertexPattern) {
	if in.next != nil {
		raw := in.next.raw
		o.next.merge(in.next)
		cc.Work(time.Duration(raw) * st.engine.cfg.CostMerge)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.accepted += in.accepted
	o.rows = append(o.rows, in.rows...)
	// The reply's rows were copied out by the append above; only the slice
	// header dies here, never the rows' own buffers.
	putRows(in.rows)
	if in.aggs != nil {
		if o.aggs == nil {
			o.aggs = make([]aggState, len(pat.Aggs))
		}
		mergeAggStates(o.aggs, in.aggs, pat.Aggs)
	}
	// Ordered-limit merge: never hold more than the top K(+skip) rows.
	if st.keep > 0 && len(o.rows) > 2*st.keep {
		o.rows = topK(o.rows, pat.Orders, st.keep)
	}
}

// wireBytes is the Bond-encoded width of one row on the wire: the vertex
// fat pointer, each projected value (field name + compact-binary value),
// and the resolved _orderby keys when present.
func (r *Row) wireBytes() int {
	n := farm.PtrBytes
	for k, v := range r.Values {
		n += len(k) + bond.MarshalSize(v)
	}
	for _, sk := range r.keys {
		if sk.ok {
			n += bond.MarshalSize(sk.val)
		}
	}
	return n
}

// wireBytes is the encoded width of one aggregate partial: count, the two
// running sums, one byte for the float flag and the overflow carry (zero
// unless the sum leaves int64), and the min/max value when present.
func (a *aggState) wireBytes() int {
	n := 17
	if a.seenMM {
		n += bond.MarshalSize(a.mm)
	}
	return n
}

// wireBytes is the encoded width of one group partial: the encoded key
// plus each aggregate's partial state.
func (g *groupState) wireBytes(enc string) int {
	n := len(enc)
	for i := range g.aggs {
		n += g.aggs[i].wireBytes()
	}
	return n
}

// wire sizes one batch's reply: fat pointers for the next frontier,
// Bond-encoded projected rows, and aggregate partials. Group partials never
// ship in a levelOutput: they leave the owner as a run (workerRun).
func (o *levelOutput) wire() wireSize {
	n := 0
	if o.next != nil {
		n = o.next.raw * farm.PtrBytes
	}
	for i := range o.rows {
		n += o.rows[i].wireBytes()
	}
	for i := range o.aggs {
		n += o.aggs[i].wireBytes()
	}
	return wireSize{rows: len(o.rows), bytes: n}
}

// ownerBatch is one owner's share of a frontier.
type ownerBatch struct {
	m    fabric.MachineID
	ptrs []core.VertexPtr
	i, n int // scatter: position among the n owners
}

// wireSize is what one shipped reply put on the fabric: its bytes, and the
// rows or group partials they carried.
type wireSize struct{ rows, groups, bytes int }

// scatter is the engine's one distributed mechanism (paper §3.4, Figure
// 9). It runs work near the data of a frontier already split by owner,
// concurrently per owner: an owner holding at least ShipThreshold of the
// frontier receives its batch as one RPC (query shipping) and work runs
// there; stragglers, the coordinator's own share, and everything under the
// no_shipping hint run work from the coordinator over one-sided reads.
// Each reply is merged in the coordinator-side body cc that received it, as
// soon as it arrives and concurrently with the other bodies, so merge
// guards whatever its replies share; b.i is the owner's position in
// batches, the stable order when it matters. The first error from work,
// the fabric, or merge is the scatter's error; replies that arrive after it
// are still merged so their owners' state stays accounted for, and a reply
// the fabric lost after its work ran is released.
func scatter[T interface{ wire() wireSize }](st *execState, qc *fabric.Ctx, batches []ownerBatch,
	work func(sc *fabric.Ctx, b ownerBatch) (T, error), merge func(cc *fabric.Ctx, b ownerBatch, out T) error) error {
	var mu sync.Mutex
	var firstErr error
	qc.Parallel(len(batches), func(i int, cc *fabric.Ctx) {
		b := batches[i]
		b.i, b.n = i, len(batches)
		var out T
		var err error
		if !st.hints.NoShipping && b.m != cc.M && len(b.ptrs) >= st.engine.cfg.ShipThreshold {
			var w wireSize
			err = cc.RPC(b.m, len(b.ptrs)*farm.PtrBytes+128, func(sc *fabric.Ctx) (int, error) {
				var err error
				if out, err = work(sc, b); err != nil {
					return 0, err
				}
				w = out.wire()
				return w.bytes, nil
			})
			if err == nil {
				st.mu.Lock()
				st.stats.RowsShipped += int64(w.rows)
				st.stats.GroupsShipped += int64(w.groups)
				st.stats.BytesShipped += int64(w.bytes)
				st.mu.Unlock()
			}
		} else {
			out, err = work(cc, b)
		}
		if err == nil {
			err = merge(cc, b, out)
		} else if r, ok := any(out).(interface{ release() }); ok {
			r.release()
		}
		mu.Lock()
		defer mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
	})
	return firstErr
}
