package farm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"a1/internal/fabric"
)

// placement records which machines replicate a region. The first entry of
// replicas is the primary; all reads and writes are served from it (paper
// §2.1). Replicas live in distinct fault domains (racks).
type placement struct {
	replicas []fabric.MachineID
	lost     bool // every replica unavailable; system paused for this region
}

// dirEntry is what the data path needs to know of a region's placement.
type dirEntry struct {
	primary fabric.MachineID
	lost    bool
}

// CM is the configuration manager: the designated machine (machine 0) that
// tracks cluster membership and region placement (paper §2.1). Placement
// metadata is replicated to every machine in the real system so that
// mapping an address to its primary host is a purely local operation. We
// model that copy as an immutable directory — a slice indexed by RegionID,
// which the CM hands out densely from 1 — published through an atomic
// pointer: a lookup is one load and one index, with no lock and no hash,
// and sees the placement as of some publish, never a torn one. Every change
// to regions is made under mu and republished before mu is released, so
// once handleFailure(m) has returned no lookup names m primary.
type CM struct {
	farm *Farm

	mu         sync.RWMutex
	nextRegion RegionID
	regions    map[RegionID]*placement
	down       map[fabric.MachineID]bool

	dir atomic.Pointer[[]dirEntry]
}

func newCM(f *Farm) *CM {
	cm := &CM{
		farm:       f,
		nextRegion: 1, // region 0 reserved so Addr 0 is nil
		regions:    make(map[RegionID]*placement),
		down:       make(map[fabric.MachineID]bool),
	}
	cm.publishLocked()
	return cm
}

// publishLocked replaces the directory with the current placement. Caller
// holds mu (or is the constructor).
func (cm *CM) publishLocked() {
	dir := make([]dirEntry, cm.nextRegion) // entry 0 is never consulted
	for id, pl := range cm.regions {
		if pl.lost || len(pl.replicas) == 0 {
			dir[id].lost = true
		} else {
			dir[id].primary = pl.replicas[0]
		}
	}
	cm.dir.Store(&dir)
}

// Machine returns the machine hosting the CM role.
func (cm *CM) Machine() fabric.MachineID { return 0 }

// lookup returns the current primary of a region, spin-waiting (in fabric
// time) while the region is lost — FaRM pauses the system when all replicas
// of a region are gone and waits for fast restart (paper §5.3).
func (cm *CM) lookup(c *fabric.Ctx, id RegionID) (fabric.MachineID, error) {
	const maxWaits = 20000 // * 500us = 10s of fabric time
	for i := 0; ; i++ {
		dir := *cm.dir.Load()
		if id == 0 || id >= RegionID(len(dir)) {
			return 0, fmt.Errorf("%w: no such region %d", ErrBadAddr, id)
		}
		if e := dir[id]; !e.lost {
			return e.primary, nil
		}
		if i >= maxWaits {
			return 0, fmt.Errorf("%w: region %d", ErrRegionLost, id)
		}
		c.Sleep(500 * 1000) // 500us
	}
}

// ReplicasOf returns a snapshot of a region's replica set (primary first).
func (cm *CM) ReplicasOf(id RegionID) []fabric.MachineID { return cm.replicasOf(id) }

// replicasOf returns a snapshot of the replica set.
func (cm *CM) replicasOf(id RegionID) []fabric.MachineID {
	cm.mu.RLock()
	defer cm.mu.RUnlock()
	pl := cm.regions[id]
	if pl == nil {
		return nil
	}
	return append([]fabric.MachineID(nil), pl.replicas...)
}

// regionIDs returns all region ids in the directory.
func (cm *CM) regionIDs() []RegionID {
	cm.mu.RLock()
	defer cm.mu.RUnlock()
	ids := make([]RegionID, 0, len(cm.regions))
	for id := range cm.regions {
		ids = append(ids, id)
	}
	return ids
}

// primariesOn returns the regions whose primary is machine m.
func (cm *CM) primariesOn(m fabric.MachineID) []RegionID {
	cm.mu.RLock()
	defer cm.mu.RUnlock()
	var ids []RegionID
	for id, pl := range cm.regions {
		if !pl.lost && len(pl.replicas) > 0 && pl.replicas[0] == m {
			ids = append(ids, id)
		}
	}
	return ids
}

// createRegion allocates a new region with the primary on (or near) the
// preferred machine and backups in distinct fault domains. The control
// round trip to the CM is charged to the caller's context.
func (cm *CM) createRegion(c *fabric.Ctx, prefer fabric.MachineID) (RegionID, error) {
	var id RegionID
	err := c.RPC(cm.Machine(), 64, func(sc *fabric.Ctx) (int, error) {
		cm.mu.Lock()
		defer cm.mu.Unlock()
		f := cm.farm
		primary := prefer
		if cm.down[primary] {
			primary = cm.leastLoadedLocked(nil)
			if primary < 0 {
				return 0, ErrNoSpace
			}
		}
		replicas := []fabric.MachineID{primary}
		usedRacks := map[int]bool{f.fab.Rack(primary): true}
		for len(replicas) < f.cfg.Replicas {
			b := cm.leastLoadedLocked(func(m fabric.MachineID) bool {
				return !usedRacks[f.fab.Rack(m)]
			})
			if b < 0 {
				// Not enough fault domains: fall back to any machine not
				// already used (small test clusters).
				b = cm.leastLoadedLocked(func(m fabric.MachineID) bool {
					for _, r := range replicas {
						if r == m {
							return false
						}
					}
					return true
				})
			}
			if b < 0 {
				break // degraded replication on tiny clusters
			}
			usedRacks[f.fab.Rack(b)] = true
			replicas = append(replicas, b)
		}
		id = cm.nextRegion
		cm.nextRegion++
		for _, m := range replicas {
			f.drivers[m].Attach(newRegion(id, f.cfg.RegionSize))
		}
		cm.regions[id] = &placement{replicas: replicas}
		cm.publishLocked()
		return 16, nil
	})
	return id, err
}

// leastLoadedLocked returns the live machine hosting the fewest region
// replicas that satisfies the filter, or -1. Caller holds cm.mu.
func (cm *CM) leastLoadedLocked(filter func(fabric.MachineID) bool) fabric.MachineID {
	load := make(map[fabric.MachineID]int)
	for _, pl := range cm.regions {
		for _, m := range pl.replicas {
			load[m]++
		}
	}
	best := fabric.MachineID(-1)
	bestLoad := int(^uint(0) >> 1)
	for i := 0; i < cm.farm.fab.Machines(); i++ {
		m := fabric.MachineID(i)
		if cm.down[m] {
			continue
		}
		if filter != nil && !filter(m) {
			continue
		}
		if load[m] < bestLoad {
			best, bestLoad = m, load[m]
		}
	}
	return best
}

// handleFailure removes machine m from every replica set, promoting backups
// where m was primary and re-replicating from the surviving primary to
// restore the replication factor. Regions whose every replica was on failed
// machines are marked lost, pausing transactions that touch them until a
// fast restart brings a replica back (paper §5.3).
func (cm *CM) handleFailure(c *fabric.Ctx, m fabric.MachineID) {
	cm.mu.Lock()
	cm.down[m] = true
	type repl struct {
		id   RegionID
		from fabric.MachineID
		to   fabric.MachineID
	}
	var copies []repl
	for id, pl := range cm.regions {
		keep := pl.replicas[:0:0]
		for _, r := range pl.replicas {
			if r != m {
				keep = append(keep, r)
			}
		}
		if len(keep) == len(pl.replicas) {
			continue // m did not host this region
		}
		// Promote a replica that is live and actually holds the data
		// (a correlated failure may have wiped some survivors too).
		for i, r := range keep {
			if _, hasData := cm.farm.drivers[r].Get(id); hasData && !cm.down[r] && !cm.farm.fab.Failed(r) {
				keep[0], keep[i] = keep[i], keep[0]
				break
			}
		}
		pl.replicas = keep
		if len(keep) == 0 {
			pl.lost = true
			continue
		}
		// Restore the replication factor if a machine in an unused fault
		// domain is available; it becomes a replica only once the copy
		// lands (below), so in-flight commits never see phantom backups.
		if len(keep) < cm.farm.cfg.Replicas {
			used := map[int]bool{}
			inSet := map[fabric.MachineID]bool{}
			for _, r := range keep {
				used[cm.farm.fab.Rack(r)] = true
				inSet[r] = true
			}
			nb := cm.leastLoadedLocked(func(x fabric.MachineID) bool {
				return !inSet[x] && !used[cm.farm.fab.Rack(x)]
			})
			if nb < 0 {
				nb = cm.leastLoadedLocked(func(x fabric.MachineID) bool { return !inSet[x] })
			}
			if nb >= 0 {
				copies = append(copies, repl{id: id, from: keep[0], to: nb})
			}
		}
	}
	cm.publishLocked()
	cm.mu.Unlock()

	// Copy region state to the new backups outside the directory lock and
	// register each copy once it exists.
	for _, cp := range copies {
		src, ok := cm.farm.drivers[cp.from].Get(cp.id)
		if !ok || cm.farm.fab.Failed(cp.from) {
			continue
		}
		clone := src.clone()
		if c != nil {
			c.WriteRemote(cp.to, int(clone.usedBytes()))
		}
		cm.farm.drivers[cp.to].Attach(clone)
		cm.mu.Lock()
		if pl := cm.regions[cp.id]; pl != nil && !pl.lost {
			present := false
			for _, r := range pl.replicas {
				if r == cp.to {
					present = true
				}
			}
			if !present {
				pl.replicas = append(pl.replicas, cp.to)
			}
		}
		cm.publishLocked()
		cm.mu.Unlock()
	}
}

// handleRestart re-admits machine m. Region replicas still present in m's
// driver memory are reattached; lost regions recover and the system
// unpauses (fast restart). Stale copies of regions that were re-replicated
// elsewhere while m was down are discarded.
func (cm *CM) handleRestart(c *fabric.Ctx, m fabric.MachineID) {
	d := cm.farm.drivers[m]
	cm.mu.Lock()
	defer cm.mu.Unlock()
	defer cm.publishLocked()
	delete(cm.down, m)
	for _, id := range d.Regions() {
		pl := cm.regions[id]
		if pl == nil {
			d.Detach(id)
			continue
		}
		if pl.lost {
			pl.replicas = append(pl.replicas, m)
			pl.lost = false
			continue
		}
		if len(pl.replicas) < cm.farm.cfg.Replicas {
			// Rejoin as a backup; its copy is current because the region
			// was either paused or m was still receiving commits when it
			// went down. Conservatively refresh from the primary.
			primary := pl.replicas[0]
			if src, ok := cm.farm.drivers[primary].Get(id); ok {
				d.Attach(src.clone())
			}
			pl.replicas = append(pl.replicas, m)
			continue
		}
		// Region fully replicated elsewhere: this copy is stale.
		d.Detach(id)
	}
}
