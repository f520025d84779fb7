package farm

import (
	"sync/atomic"

	"a1/internal/fabric"
)

// Clock is the FaRMv2 global clock (paper §5.2): it issues the read and
// write timestamps that give all transactions a global serialization order
// and let multi-versioning run read-only transactions conflict-free.
//
// The real system synchronizes per-machine clocks over RDMA unreliable
// datagrams and exposes bounded uncertainty; commit waits out the
// uncertainty before releasing locks so that timestamp order matches real
// time (strict serializability). We model the synchronized clock as a
// hybrid of fabric time and a shared logical counter: the machines' clocks
// are perfectly synchronized, the uncertainty is zero, and commit has
// nothing to wait out.
type Clock struct {
	fab  *fabric.Fabric
	last atomic.Uint64
}

// NewClock creates a clock over the fabric's notion of time.
func NewClock(fab *fabric.Fabric) *Clock {
	return &Clock{fab: fab}
}

// physical returns the synchronized physical component.
func (c *Clock) physical() uint64 { return uint64(c.fab.Now()) }

// Current returns a timestamp suitable as a read snapshot: every write
// timestamp issued afterwards is strictly greater.
func (c *Clock) Current() uint64 {
	phys := c.physical()
	for {
		last := c.last.Load()
		if last >= phys {
			return last
		}
		if c.last.CompareAndSwap(last, phys) {
			return phys
		}
	}
}

// Next issues a write timestamp strictly greater than every timestamp
// previously returned by Current or Next.
func (c *Clock) Next() uint64 {
	phys := c.physical()
	for {
		last := c.last.Load()
		ts := last + 1
		if phys > ts {
			ts = phys
		}
		if c.last.CompareAndSwap(last, ts) {
			return ts
		}
	}
}
