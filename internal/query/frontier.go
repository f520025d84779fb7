package query

import (
	"slices"
	"sync"
	"sync/atomic"

	"a1/internal/core"
	"a1/internal/fabric"
	"a1/internal/farm"
)

// frontier is a vertex set split by primary host (paper §3.4). A worker
// adds the next hops it enumerates, duplicates included, resolving owners
// from one region-directory snapshot, and replies with the split. The
// coordinator merges each reply into its own frontier inside the scatter
// body that received it, while other replies are still in flight. A vertex
// has exactly one owner, so the per-owner sets are exact global dedup, and
// at the barrier each owner's set is that owner's next batch as it stands.
// Frontiers are pooled whole and keep their per-owner buffers.
type frontier struct {
	dir     farm.Directory
	owners  []ownerSet // by machine
	seq     atomic.Int32
	raw     int          // pointers added
	batches []ownerBatch // seal's product
}

// ownerSet is one owner's share. Its lock guards the set and the slice
// alone: nothing that reaches the fabric runs under it.
type ownerSet struct {
	mu    sync.Mutex
	seen  *addrSet // merge's; nil in a reply
	ptrs  []core.VertexPtr
	first int32 // order of the owner's first pointer; 0: none yet
}

var (
	frontierPool = sync.Pool{New: func() any { return new(frontier) }}
	// ownerBufsOut counts frontiers out of the pool, for leak tests.
	ownerBufsOut atomic.Int64
)

func newFrontier(f *farm.Farm) *frontier {
	ownerBufsOut.Add(1)
	fr := frontierPool.Get().(*frontier)
	fr.dir = f.Directory()
	if n := f.Fabric().Machines(); len(fr.owners) != n {
		fr.owners = make([]ownerSet, n)
	}
	return fr
}

// add appends vp to its owner's share, undeduplicated.
func (f *frontier) add(c *fabric.Ctx, vp core.VertexPtr) error {
	m, err := f.dir.PrimaryOf(c, vp.Addr)
	if err != nil {
		return err
	}
	o := &f.owners[m]
	if o.first == 0 {
		o.first = f.seq.Add(1)
	}
	o.ptrs = append(o.ptrs, vp)
	f.raw++
	return nil
}

// merge adds a reply's pointers to their owners' sets, the reply's owners
// in the order it met them, and releases the reply. Merges of different
// replies run concurrently.
func (f *frontier) merge(in *frontier) {
	batches, _ := in.seal()
	for _, b := range batches {
		o := &f.owners[b.m]
		o.mu.Lock()
		if o.first == 0 {
			o.first, o.seen = f.seq.Add(1), getAddrSet()
		}
		for _, vp := range b.ptrs {
			if o.seen.add(vp.Addr) {
				o.ptrs = append(o.ptrs, vp)
			}
		}
		o.mu.Unlock()
	}
	in.release()
}

// append adds a reply's pointers to f, a reply too, as if f's worker had
// added them itself: undeduplicated, each owner's after f's own, owners new
// to f in the order in met them. runBatch joins its morsels' replies this
// way in morsel order, so the joined reply is the one a serial batch
// builds, raw count included. in stays the caller's to release.
func (f *frontier) append(in *frontier) {
	batches, _ := in.seal()
	for _, b := range batches {
		o := &f.owners[b.m]
		if o.first == 0 {
			o.first = f.seq.Add(1)
		}
		o.ptrs = append(o.ptrs, b.ptrs...)
	}
	f.raw += in.raw
}

// empty reports whether nothing was added or merged; nil is empty.
func (f *frontier) empty() bool { return f == nil || f.seq.Load() == 0 }

// seal returns each owner's batch, owners in the order their first
// pointers arrived, and the frontier's size. The batches alias the
// frontier until its release.
func (f *frontier) seal() (batches []ownerBatch, n int) {
	batches = f.batches[:0]
	for m := range f.owners {
		if o := &f.owners[m]; o.first != 0 {
			batches = append(batches, ownerBatch{m: fabric.MachineID(m), ptrs: o.ptrs})
			n += len(o.ptrs)
		}
	}
	slices.SortFunc(batches, func(a, b ownerBatch) int { return int(f.owners[a.m].first - f.owners[b.m].first) })
	f.batches = batches
	return batches, n
}

func (f *frontier) release() {
	if f == nil {
		return
	}
	for m := range f.owners {
		if o := &f.owners[m]; o.first != 0 {
			putAddrSet(o.seen)
			o.seen, o.first = nil, 0
			if o.ptrs = o.ptrs[:0]; cap(o.ptrs) > maxPooledCap {
				o.ptrs = nil
			}
		}
	}
	clear(f.batches)
	f.seq.Store(0)
	f.raw, f.dir = 0, farm.Directory{}
	frontierPool.Put(f)
	ownerBufsOut.Add(-1)
}
