package farm

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Object header layout, stored in region memory immediately before the
// payload. The version word makes lock+version a single CAS-able 64-bit
// value exactly as FaRM's object headers do.
//
//	[0:8)   version word: lock bit | tombstone bit | record bit | commit timestamp
//	[8:16)  older version address (Addr; 0 = end of chain)
//	[16:20) older version payload size
//	[20:24) payload length
const (
	hdrBytes = 24

	lockBit      = uint64(1) << 63
	tombstoneBit = uint64(1) << 62
	// recordBit marks a slot that holds no object head: a version record,
	// reachable only through its head's chain, or an allocation whose
	// commit has not installed it yet (locked as well).
	recordBit = uint64(1) << 61
	tsMask    = (uint64(1) << 61) - 1
)

func packVersion(ts uint64, locked, tombstone bool) uint64 {
	v := ts & tsMask
	if locked {
		v |= lockBit
	}
	if tombstone {
		v |= tombstoneBit
	}
	return v
}

func versionTs(v uint64) uint64   { return v & tsMask }
func versionLocked(v uint64) bool { return v&lockBit != 0 }
func versionTombed(v uint64) bool { return v&tombstoneBit != 0 }
func versionRecord(v uint64) bool { return v&recordBit != 0 }

// Region is one replica of a replicated memory region: a flat byte array
// plus slab-allocator metadata. The same struct serves as primary and as
// backup copy; which replica is primary is the configuration manager's
// call. Regions live in driver-owned memory (see Driver) so they survive
// process crashes (§5.3).
type Region struct {
	id  RegionID
	cap uint32

	mu    sync.RWMutex
	data  []byte // grows lazily toward cap
	alloc *allocator
}

// newRegion creates an empty region with the given maximum size.
func newRegion(id RegionID, capBytes uint32) *Region {
	return &Region{id: id, cap: capBytes, alloc: newAllocator(capBytes)}
}

// ID returns the region id.
func (r *Region) ID() RegionID { return r.id }

// ensure grows the backing array to cover [0, n).
func (r *Region) ensure(n uint32) {
	if uint32(len(r.data)) >= n {
		return
	}
	grow := uint32(len(r.data))
	if grow < 4096 {
		grow = 4096
	}
	for grow < n {
		grow *= 2
	}
	if grow > r.cap {
		grow = r.cap
	}
	nd := make([]byte, grow)
	copy(nd, r.data)
	r.data = nd
}

// allocLocked reserves a slot able to hold payload bytes plus the header
// and returns its offset. Until a commit installs an object or a version
// in it, the slot's header is locked, marked a record and chainless: a
// sweep passes it over, and a read through a stale pointer fails, whatever
// header the slot's last occupant left. Caller holds mu.
func (r *Region) allocLocked(payload uint32) (uint32, error) {
	off, err := r.alloc.alloc(payload + hdrBytes)
	if err != nil {
		return 0, err
	}
	r.ensure(off + payload + hdrBytes)
	r.setVersionWord(off, lockBit|recordBit)
	r.setOlder(off, NilPtr)
	return off, nil
}

// applyAllocLocked reserves a specific slot chosen by the primary's
// allocator, keeping a backup replica's allocator metadata in sync.
func (r *Region) applyAllocLocked(off, payload uint32) {
	r.alloc.allocAt(off, payload+hdrBytes)
	r.ensure(off + payload + hdrBytes)
}

// freeLocked returns a slot to the allocator. Caller holds mu.
func (r *Region) freeLocked(off uint32) { r.alloc.free(off) }

// Raw header access. Callers hold mu (read or write as appropriate).

func (r *Region) versionWord(off uint32) uint64 {
	return binary.LittleEndian.Uint64(r.data[off:])
}

func (r *Region) setVersionWord(off uint32, v uint64) {
	binary.LittleEndian.PutUint64(r.data[off:], v)
}

func (r *Region) older(off uint32) Ptr { return DecodePtr(r.data[off+8:]) }

func (r *Region) setOlder(off uint32, p Ptr) { AppendPtr(r.data[off+8:off+8], p) }

func (r *Region) payloadLen(off uint32) uint32 {
	return binary.LittleEndian.Uint32(r.data[off+20:])
}

func (r *Region) setPayloadLen(off uint32, n uint32) {
	binary.LittleEndian.PutUint32(r.data[off+20:], n)
}

func (r *Region) payload(off uint32) []byte {
	n := r.payloadLen(off)
	return r.data[off+hdrBytes : off+hdrBytes+n]
}

// objectSnapshot is a consistent copy of one object version.
type objectSnapshot struct {
	version uint64 // full version word
	older   Ptr
	data    []byte // copied payload
	cap     uint32 // payload capacity of the slot: its class size less hdrBytes (0 for a version record)
}

// readObject copies the object at off. It returns an error for addresses
// that do not point at a live allocation. A non-nil scratch slice donates
// its backing array for the payload copy (the snapshot then aliases it),
// letting decode-and-discard readers reuse one buffer across reads.
func (r *Region) readObject(off uint32, scratch []byte) (objectSnapshot, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.readObjectLocked(off, scratch)
}

func (r *Region) readObjectLocked(off uint32, scratch []byte) (objectSnapshot, error) {
	if !r.alloc.isLive(off) {
		return objectSnapshot{}, fmt.Errorf("%w: %v", ErrBadAddr, MakeAddr(r.id, off))
	}
	snap := objectSnapshot{
		version: r.versionWord(off),
		older:   r.older(off),
	}
	if !versionRecord(snap.version) {
		snap.cap = r.alloc.slotSize(off) - hdrBytes
	}
	snap.data = append(scratch[:0], r.payload(off)...)
	return snap, nil
}

// casVersion atomically swaps the version word if it matches old.
func (r *Region) casVersion(off uint32, old, new uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.alloc.isLive(off) {
		return false
	}
	if r.versionWord(off) != old {
		return false
	}
	r.setVersionWord(off, new)
	return true
}

// readVersionWord returns the current version word (for validation).
func (r *Region) readVersionWord(off uint32) (uint64, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if !r.alloc.isLive(off) {
		return 0, fmt.Errorf("%w: %v", ErrBadAddr, MakeAddr(r.id, off))
	}
	return r.versionWord(off), nil
}

// usedBytes returns the bytes currently allocated (headers included).
func (r *Region) usedBytes() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.alloc.used
}

// clone deep-copies the region (used when re-replicating to a new backup).
func (r *Region) clone() *Region {
	r.mu.RLock()
	defer r.mu.RUnlock()
	nr := &Region{id: r.id, cap: r.cap, alloc: r.alloc.clone()}
	nr.data = make([]byte, len(r.data))
	copy(nr.data, r.data)
	return nr
}
