package farm

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
)

// modelAlloc is the reference the slot table is checked against: the
// allocator as two plain maps, with allocAt searching its free list from
// the front. It is deliberately the obvious implementation.
type modelAlloc struct {
	capBytes, bump uint32
	free           map[uint32][]uint32 // class size -> free offsets (LIFO)
	live           map[uint32]uint32   // offset -> class size
	used           uint64
}

func newModelAlloc(capBytes uint32) *modelAlloc {
	return &modelAlloc{capBytes: capBytes, bump: 64, free: map[uint32][]uint32{}, live: map[uint32]uint32{}}
}

func (m *modelAlloc) alloc(n uint32) (uint32, bool) {
	class, err := classFor(n)
	if err != nil {
		return 0, false
	}
	if list := m.free[class]; len(list) > 0 {
		off := list[len(list)-1]
		m.free[class] = list[:len(list)-1]
		m.live[off] = class
		m.used += uint64(class)
		return off, true
	}
	if m.bump+class > m.capBytes {
		return 0, false
	}
	off := m.bump
	m.bump += class
	m.live[off] = class
	m.used += uint64(class)
	return off, true
}

func (m *modelAlloc) allocAt(off, n uint32) {
	class, _ := classFor(n)
	for i, f := range m.free[class] {
		if f == off {
			m.free[class] = append(m.free[class][:i:i], m.free[class][i+1:]...)
			break
		}
	}
	if off+class > m.bump {
		m.bump = off + class
	}
	if _, dup := m.live[off]; !dup {
		m.used += uint64(class)
	}
	m.live[off] = class
}

func (m *modelAlloc) free1(off uint32) {
	class, ok := m.live[off]
	if !ok {
		return
	}
	delete(m.live, off)
	m.used -= uint64(class)
	m.free[class] = append(m.free[class], off)
}

func (m *modelAlloc) liveOffsets() []uint32 {
	offs := make([]uint32, 0, len(m.live))
	for off := range m.live {
		offs = append(offs, off)
	}
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
	return offs
}

// checkAgainstModel compares every observable of a with the model's, and
// probes isLive/slotSize at offsets that must fail: misaligned, interior to
// a live slot, inside freed slots and past the bump pointer.
func checkAgainstModel(t *testing.T, step int, who string, a *allocator, m *modelAlloc, rng *rand.Rand) {
	t.Helper()
	if a.bump != m.bump || a.used != m.used || a.nlive != len(m.live) {
		t.Fatalf("step %d %s: bump/used/nlive = %d/%d/%d, model %d/%d/%d", step, who, a.bump, a.used, a.nlive, m.bump, m.used, len(m.live))
	}
	want := m.liveOffsets()
	got := a.liveOffsets()
	if len(got) != len(want) {
		t.Fatalf("step %d %s: %d live offsets, model %d", step, who, len(got), len(want))
	}
	for i, off := range want {
		if got[i] != off {
			t.Fatalf("step %d %s: liveOffsets[%d] = %d, model %d", step, who, i, got[i], off)
		}
		if !a.isLive(off) || a.slotSize(off) != m.live[off] {
			t.Fatalf("step %d %s: slot %d live=%v size=%d, model size %d", step, who, off, a.isLive(off), a.slotSize(off), m.live[off])
		}
		for _, in := range []uint32{off + 1, off + 32, off + m.live[off] - 32} {
			if a.isLive(in) || a.slotSize(in) != 0 {
				t.Fatalf("step %d %s: interior offset %d of slot %d reads live", step, who, in, off)
			}
		}
	}
	for ci, class := range sizeClasses {
		mf := m.free[class]
		if len(a.freeLists[ci]) != len(mf) {
			t.Fatalf("step %d %s: class %d free list %v, model %v", step, who, class, a.freeLists[ci], mf)
		}
		for i, off := range mf {
			if a.freeLists[ci][i] != off {
				t.Fatalf("step %d %s: class %d free list %v, model %v", step, who, class, a.freeLists[ci], mf)
			}
			if a.isLive(off) {
				t.Fatalf("step %d %s: freed slot %d reads live", step, who, off)
			}
		}
		if hs := a.hasSpace(class - hdrBytes); hs != (len(mf) > 0 || m.bump+class <= m.capBytes) {
			t.Fatalf("step %d %s: hasSpace(class %d) = %v (free %d, bump %d)", step, who, class, hs, len(mf), m.bump)
		}
	}
	for i := 0; i < 8; i++ {
		off := rng.Uint32() % (2 * a.capBytes)
		if _, ok := m.live[off]; a.isLive(off) != ok {
			t.Fatalf("step %d %s: isLive(%d) = %v, model %v", step, who, off, a.isLive(off), ok)
		}
	}
	if a.isLive(a.bump) || a.isLive(^uint32(0)) || a.isLive(^uint32(31)) {
		t.Fatalf("step %d %s: offset at or past the bump pointer reads live", step, who)
	}
}

func sameAllocator(a, b *allocator) bool {
	if a.capBytes != b.capBytes || a.bump != b.bump || a.used != b.used || a.nlive != b.nlive || !bytes.Equal(a.slots, b.slots) {
		return false
	}
	for ci := range a.freeLists {
		if len(a.freeLists[ci]) != len(b.freeLists[ci]) {
			return false
		}
		for i, off := range a.freeLists[ci] {
			if b.freeLists[ci][i] != off {
				return false
			}
		}
	}
	return true
}

// TestAllocatorVsModel drives a primary allocator and an allocAt-driven
// backup with seeded random alloc/free/clone sequences and checks both
// against the map model after every step. With aborts (allocations the
// backup never hears of, released on the primary alone) the slot a backup
// is told to take is no longer the tail of its free list; without them the
// two replicas must end bit-identical.
func TestAllocatorVsModel(t *testing.T) {
	for _, tc := range []struct {
		name     string
		seed     int64
		abortPct int
	}{{"mirrored", 1, 0}, {"mirrored-2", 2, 0}, {"with-aborts", 3, 20}, {"with-aborts-2", 4, 35}} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			const capBytes = 192 << 10 // small enough that the region fills and refuses
			prim, back := newAllocator(capBytes), newAllocator(capBytes)
			pm, bm := newModelAlloc(capBytes), newModelAlloc(capBytes)
			var committed []uint32 // live slots both replicas know of
			randSize := func() uint32 {
				if rng.Intn(10) == 0 {
					return uint32(rng.Intn(20000)) + 1
				}
				return uint32(rng.Intn(700)) + 1
			}
			var inflight []uint32 // primary-only slots of transactions that will abort
			full := 0
			for step := 0; step < 3000; step++ {
				if len(inflight) > 0 && rng.Intn(3) == 0 {
					i := rng.Intn(len(inflight))
					prim.free(inflight[i])
					pm.free1(inflight[i])
					inflight = append(inflight[:i], inflight[i+1:]...)
				}
				// Alternate filling and draining so the region both refuses
				// allocations and builds long free lists.
				allocPct := 75
				if step/500%2 == 1 {
					allocPct = 25
				}
				switch op := rng.Intn(100); {
				case op < allocPct: // allocate; a committed one reaches the backup
					n := randSize()
					off, err := prim.alloc(n)
					moff, ok := pm.alloc(n)
					if (err == nil) != ok || (ok && off != moff) {
						t.Fatalf("step %d: alloc(%d) = %d, %v; model %d, %v", step, n, off, err, moff, ok)
					}
					if !ok {
						full++
						break
					}
					if rng.Intn(100) < tc.abortPct {
						inflight = append(inflight, off)
						break
					}
					back.allocAt(off, n)
					bm.allocAt(off, n)
					committed = append(committed, off)
					if rng.Intn(20) == 0 { // a commit applied twice is harmless
						back.allocAt(off, n)
						bm.allocAt(off, n)
					}
				case op < 90: // free a committed slot on both (version GC)
					if len(committed) == 0 {
						break
					}
					// Freeing in bursts builds the long free lists allocAt
					// must not scan from the front.
					for k := rng.Intn(3) + 1; k > 0 && len(committed) > 0; k-- {
						i := rng.Intn(len(committed))
						off := committed[i]
						committed[i] = committed[len(committed)-1]
						committed = committed[:len(committed)-1]
						prim.free(off)
						pm.free1(off)
						back.free(off)
						bm.free1(off)
					}
				case op < 95: // free something that is not a slot: a no-op
					off := rng.Uint32() % capBytes
					if _, ok := pm.live[off]; !ok {
						prim.free(off)
						back.free(off)
					}
				default: // continue on deep copies; the originals must not move
					pc, bc := prim.clone(), back.clone()
					pc.alloc(64)
					pc.free(pc.liveOffsets()[0])
					bc.allocAt(bc.bump, 64)
					checkAgainstModel(t, step, "primary after its clone moved", prim, pm, rng)
					checkAgainstModel(t, step, "backup after its clone moved", back, bm, rng)
					prim, back = prim.clone(), back.clone()
				}
				checkAgainstModel(t, step, "primary", prim, pm, rng)
				checkAgainstModel(t, step, "backup", back, bm, rng)
			}
			if full == 0 || prim.bump < capBytes/2 {
				t.Fatalf("sequence too tame: refused %d allocations, bump %d", full, prim.bump)
			}
			if tc.abortPct == 0 && !sameAllocator(prim, back) {
				t.Errorf("primary and allocAt-driven backup differ")
			}
		})
	}
}

// TestAllocAtOffTail is the one order in which a backup's slot is not the
// tail of its free list: a transaction that aborts took the tail on the
// primary first.
func TestAllocAtOffTail(t *testing.T) {
	prim, back := newAllocator(1<<20), newAllocator(1<<20)
	var offs []uint32
	for i := 0; i < 3; i++ {
		off, err := prim.alloc(100)
		if err != nil {
			t.Fatal(err)
		}
		back.allocAt(off, 100)
		offs = append(offs, off)
	}
	for _, off := range offs {
		prim.free(off)
		back.free(off)
	}
	aborted, _ := prim.alloc(100) // takes offs[2]; the backup never hears of it
	kept, _ := prim.alloc(100)    // takes offs[1]
	if aborted != offs[2] || kept != offs[1] {
		t.Fatalf("LIFO reuse broken: got %d, %d of %v", aborted, kept, offs)
	}
	back.allocAt(kept, 100)
	prim.free(aborted)
	if !sameAllocator(prim, back) {
		t.Errorf("replicas differ: primary free list %v, backup %v", prim.freeLists, back.freeLists)
	}
	if !back.isLive(kept) || back.isLive(aborted) || back.used != 128 {
		t.Errorf("backup: kept live=%v aborted live=%v used=%d", back.isLive(kept), back.isLive(aborted), back.used)
	}
}
