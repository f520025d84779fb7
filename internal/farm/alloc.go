package farm

import (
	"fmt"
	"sort"
)

// allocator is FaRM's per-region slab allocator: allocations are rounded up
// to a size class, freed slots go on per-class free lists, and fresh slots
// are carved from a bump pointer. Object sizes range from 64 bytes to 1MB
// (paper §2.1).
//
// Liveness is a side table with one byte per 64-byte granule of the region.
// Every size class, hence every slot offset, is a multiple of 32 and no slot
// is shorter than 64 bytes, so a granule holds at most one slot start: its
// byte is the slot's class index + 1, with halfBit set when the slot starts
// 32 bytes into the granule, and 0 when no live slot starts there. Whether
// an offset names a live object — asked on every read — is therefore one
// bounds check and one byte load, and an offset that is misaligned, past
// the table, or inside a live slot fails it like any other dead address.
// The table covers [0, bump) and grows with it; it lives beside the data,
// not in the object header, because an interior offset would read payload
// bytes as a header.
type allocator struct {
	capBytes  uint32
	bump      uint32
	freeLists [][]uint32 // class index -> free offsets (LIFO)
	slots     []byte     // granule -> slotByte of the live slot starting in it, or 0
	nlive     int
	used      uint64 // class-rounded bytes held by live slots
}

const (
	granuleShift = 6    // 64-byte granules
	halfBit      = 0x80 // the slot starts at the granule's second half
)

// slotByte is the table entry of a live slot of class ci at off, and
// slotClass the class index a non-zero entry holds.
func slotByte(off uint32, ci int) byte { return byte(ci+1) | byte(off>>5&1)<<7 }
func slotClass(b byte) int             { return int(b&^halfBit) - 1 }

// sizeClasses are the allocation granularities, 64B..1MB in ~1.5x steps.
var sizeClasses = buildSizeClasses()

func buildSizeClasses() []uint32 {
	var cs []uint32
	for c := uint32(64); c <= 1<<20; {
		cs = append(cs, c)
		if c < 128 {
			c += 32
		} else {
			half := c / 2
			cs = append(cs, c+half)
			c *= 2
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
	// Deduplicate and drop anything above 1MB+half artifacts.
	out := cs[:0]
	var prev uint32
	for _, c := range cs {
		if c != prev && c <= 1<<20 {
			out = append(out, c)
			prev = c
		}
	}
	return out
}

// classIndex returns the index of the smallest size class >= n.
func classIndex(n uint32) (int, error) {
	i := sort.Search(len(sizeClasses), func(i int) bool { return sizeClasses[i] >= n })
	if i == len(sizeClasses) {
		return 0, fmt.Errorf("%w: %d bytes exceeds 1MB object limit", ErrTooLarge, n)
	}
	return i, nil
}

// classFor returns the smallest size class >= n.
func classFor(n uint32) (uint32, error) {
	i, err := classIndex(n)
	if err != nil {
		return 0, err
	}
	return sizeClasses[i], nil
}

func newAllocator(capBytes uint32) *allocator {
	return &allocator{
		capBytes:  capBytes,
		bump:      64, // offset 0 is reserved: Addr(region,0) must stay distinguishable
		freeLists: make([][]uint32, len(sizeClasses)),
	}
}

// markLive records a slot of class ci at off, growing the table (doubling,
// like the region's data) so it covers the bump pointer.
func (a *allocator) markLive(off uint32, ci int) {
	if need := int(a.bump >> granuleShift); need > len(a.slots) {
		n := min(max(2*len(a.slots), 128), int(a.capBytes>>granuleShift))
		a.slots = append(a.slots, make([]byte, max(n, need)-len(a.slots))...)
	}
	a.slots[off>>granuleShift] = slotByte(off, ci)
	a.nlive++
	a.used += uint64(sizeClasses[ci])
}

// alloc reserves n bytes (header included by caller) and returns the offset.
func (a *allocator) alloc(n uint32) (uint32, error) {
	ci, err := classIndex(n)
	if err != nil {
		return 0, err
	}
	class := sizeClasses[ci]
	off := a.bump
	if list := a.freeLists[ci]; len(list) > 0 {
		off = list[len(list)-1]
		a.freeLists[ci] = list[:len(list)-1]
	} else {
		if a.bump+class > a.capBytes || a.bump+class < a.bump {
			return 0, fmt.Errorf("%w: region full (%d used of %d)", ErrRegionFull, a.bump, a.capBytes)
		}
		a.bump += class
	}
	a.markLive(off, ci)
	return off, nil
}

// allocAt reserves the exact slot the primary chose, used when replicating
// allocation decisions to backup replicas.
func (a *allocator) allocAt(off, n uint32) {
	ci, err := classIndex(n)
	if err != nil {
		panic(err) // primary already validated the size
	}
	if a.isLive(off) {
		return // a commit re-applied to a replica cloned after it allocated
	}
	// A slot freed earlier on this replica too comes off its free list. The
	// primary pops its lists LIFO and this replica mirrors them, so the slot
	// is the last entry, or just before it when transactions that aborted
	// (and so never reached this replica) took later ones.
	list := a.freeLists[ci]
	for i := len(list) - 1; i >= 0; i-- {
		if list[i] == off {
			a.freeLists[ci] = append(list[:i], list[i+1:]...)
			break
		}
	}
	if end := off + sizeClasses[ci]; end > a.bump {
		a.bump = end
	}
	a.markLive(off, ci)
}

// free returns the slot at off to its class free list.
func (a *allocator) free(off uint32) {
	if !a.isLive(off) {
		return
	}
	ci := slotClass(a.slots[off>>granuleShift])
	a.slots[off>>granuleShift] = 0
	a.nlive--
	a.used -= uint64(sizeClasses[ci])
	a.freeLists[ci] = append(a.freeLists[ci], off)
}

// isLive reports whether off is the first byte of a live allocation.
func (a *allocator) isLive(off uint32) bool {
	g := int(off >> granuleShift)
	return off&31 == 0 && g < len(a.slots) && a.slots[g] != 0 && a.slots[g]>>7 == byte(off>>5&1)
}

// slotSize returns the class size of a live slot (0 if not live).
func (a *allocator) slotSize(off uint32) uint32 {
	if !a.isLive(off) {
		return 0
	}
	return sizeClasses[slotClass(a.slots[off>>granuleShift])]
}

// liveOffsets returns a snapshot of all live allocation offsets, ascending.
func (a *allocator) liveOffsets() []uint32 {
	offs := make([]uint32, 0, a.nlive)
	for g := 0; g < len(a.slots); {
		b := a.slots[g]
		if b == 0 {
			g++
			continue
		}
		off := uint32(g)<<granuleShift | uint32(b>>7)<<5
		offs = append(offs, off)
		g = int((off + sizeClasses[slotClass(b)]) >> granuleShift) // where the next slot may start
	}
	return offs
}

// hasSpace reports whether a payload of n bytes could be allocated.
func (a *allocator) hasSpace(n uint32) bool {
	ci, err := classIndex(n + hdrBytes)
	if err != nil {
		return false
	}
	return len(a.freeLists[ci]) > 0 || a.bump+sizeClasses[ci] <= a.capBytes
}

// clone deep-copies the allocator.
func (a *allocator) clone() *allocator {
	na := *a
	na.slots = append([]byte(nil), a.slots...)
	na.freeLists = make([][]uint32, len(a.freeLists))
	for ci, list := range a.freeLists {
		na.freeLists[ci] = append([]uint32(nil), list...)
	}
	return &na
}
