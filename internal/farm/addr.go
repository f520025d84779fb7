// Package farm reimplements the FaRM distributed in-memory storage system
// (paper §2.1, §5.2, §5.3; Dragojević et al. NSDI'14/SOSP'15, Shamis et al.
// SIGMOD'19) as the storage substrate for A1: regions replicated 3-ways
// across fault domains, a slab allocator with locality hints, strictly
// serializable transactions with FaRMv2-style multi-version concurrency
// control and opacity, a distributed B-tree with optimistic node caching,
// a configuration manager with failure recovery, and fast restart from
// driver-owned (PyCo-style) memory.
//
// All network activity flows through internal/fabric, so the same code runs
// under the discrete-event simulator (for paper-figure latency benchmarks)
// and under real goroutine concurrency (for unit and race tests).
package farm

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// RegionID identifies a replicated 2GB-class memory region. Region 0 is
// reserved so that the zero Addr is a nil pointer.
type RegionID uint32

// Addr is FaRM's 64-bit object address: the region id in the high 32 bits
// and the byte offset within the region in the low 32 bits (paper §2.1).
type Addr uint64

// NilAddr is the null address.
const NilAddr Addr = 0

// MakeAddr composes an address from region and offset.
func MakeAddr(r RegionID, off uint32) Addr { return Addr(uint64(r)<<32 | uint64(off)) }

// Region extracts the region id.
func (a Addr) Region() RegionID { return RegionID(a >> 32) }

// Offset extracts the byte offset within the region.
func (a Addr) Offset() uint32 { return uint32(a) }

// IsNil reports whether the address is null.
func (a Addr) IsNil() bool { return a == 0 }

func (a Addr) String() string {
	if a.IsNil() {
		return "nil"
	}
	return fmt.Sprintf("r%d+%d", a.Region(), a.Offset())
}

// Ptr is the fat pointer A1 uses throughout its data structures: the tuple
// ⟨address, size⟩, which tells a reader both where the object lives and how
// large the single RDMA read to fetch it must be (paper §2.2).
type Ptr struct {
	Addr Addr
	Size uint32 // payload size in bytes
}

// NilPtr is the null fat pointer.
var NilPtr = Ptr{}

// IsNil reports whether the pointer is null.
func (p Ptr) IsNil() bool { return p.Addr.IsNil() }

func (p Ptr) String() string { return fmt.Sprintf("%v#%d", p.Addr, p.Size) }

// PtrBytes is the encoded size of a fat pointer (8-byte address + 4-byte
// size), the unit of pointer storage inside objects.
const PtrBytes = 12

// AppendPtr appends p's encoding to b: the address, then the size, both
// little-endian. It is the one encoding of a fat pointer, in object
// headers, B-tree nodes and values, and A1's own objects alike. To write
// at a fixed offset, append to a zero-length slice there: b[off:off].
func AppendPtr(b []byte, p Ptr) []byte {
	b = binary.LittleEndian.AppendUint64(slices.Grow(b, PtrBytes), uint64(p.Addr))
	return binary.LittleEndian.AppendUint32(b, p.Size)
}

// DecodePtr decodes the fat pointer at the front of b; a b shorter than
// PtrBytes decodes as NilPtr.
func DecodePtr(b []byte) Ptr {
	if len(b) < PtrBytes {
		return NilPtr
	}
	return Ptr{
		Addr: Addr(binary.LittleEndian.Uint64(b)),
		Size: binary.LittleEndian.Uint32(b[8:]),
	}
}
