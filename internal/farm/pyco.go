package farm

import (
	"sync"
	"sync/atomic"
)

// Driver models the PyCo kernel driver (paper §5.3): memory that belongs to
// the physical host rather than to the FaRM process. Region replicas — data
// and allocator metadata — live here, so when the process crashes and
// restarts ("fast restart") the new process re-maps them and no data is
// lost. A machine reboot (power cycle) clears the driver, which is the case
// disaster recovery exists for.
//
// The replicas are published as an immutable table indexed by RegionID
// (nil = not hosted here), so the data path finds a region with one atomic
// load and one index; Attach, Detach and Wipe replace the table under mu.
type Driver struct {
	mu       sync.Mutex // serializes the writers
	segments atomic.Pointer[[]*Region]
}

// NewDriver allocates an empty driver for one physical host.
func NewDriver() *Driver {
	d := &Driver{}
	d.segments.Store(new([]*Region))
	return d
}

// set publishes a copy of the table with entry id replaced by r.
func (d *Driver) set(id RegionID, r *Region) {
	d.mu.Lock()
	defer d.mu.Unlock()
	old := *d.segments.Load()
	segs := make([]*Region, max(len(old), int(id)+1))
	copy(segs, old)
	segs[id] = r
	d.segments.Store(&segs)
}

// Attach registers a region replica in driver memory.
func (d *Driver) Attach(r *Region) { d.set(r.ID(), r) }

// Detach removes a region replica (when the CM moves it elsewhere).
func (d *Driver) Detach(id RegionID) { d.set(id, nil) }

// Get returns the replica of region id hosted here, if any.
func (d *Driver) Get(id RegionID) (*Region, bool) {
	segs := *d.segments.Load()
	if id >= RegionID(len(segs)) || segs[id] == nil {
		return nil, false
	}
	return segs[id], true
}

// Regions returns the ids of all replicas hosted here, ascending.
func (d *Driver) Regions() []RegionID {
	var ids []RegionID
	for id, r := range *d.segments.Load() {
		if r != nil {
			ids = append(ids, RegionID(id))
		}
	}
	return ids
}

// Wipe clears driver memory — what a power cycle does. After Wipe the data
// is unrecoverable locally and only disaster recovery can restore it.
func (d *Driver) Wipe() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.segments.Store(new([]*Region))
}
