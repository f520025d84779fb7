package farm

import (
	"sync"

	"a1/internal/fabric"
)

// Config parameterizes a FaRM cluster.
type Config struct {
	// RegionSize is the maximum bytes per region. Production FaRM uses 2GB
	// regions; tests and simulations use smaller regions so that data
	// spreads across many machines at laptop scale.
	RegionSize uint32
	// Replicas is the replication factor (3 in production: one primary and
	// two backups across fault domains).
	Replicas int
}

// DefaultConfig returns production-shaped parameters scaled for simulation.
func DefaultConfig() Config {
	return Config{
		RegionSize: 16 << 20,
		Replicas:   3,
	}
}

// Machine is the per-machine FaRM process state: everything that does NOT
// survive a process crash (caches, in-flight transactions). Region data
// itself lives in the Driver and does survive (fast restart, §5.3).
type Machine struct {
	ID fabric.MachineID

	mu        sync.RWMutex
	nodeCache map[Addr]cachedNode // B-tree inner-node and root-pointer cache
	epoch     uint64              // bumped on process restart
}

func newMachine(id fabric.MachineID) *Machine {
	return &Machine{ID: id, nodeCache: make(map[Addr]cachedNode)}
}

// Farm is a FaRM cluster: machines, drivers, the configuration manager and
// the global clock. It exposes the transactional object store the rest of
// A1 is built on.
type Farm struct {
	fab      *fabric.Fabric
	cfg      Config
	cm       *CM
	clock    *Clock
	drivers  []*Driver
	machines []*Machine

	pinMu    sync.Mutex
	pins     map[uint64]int // snapshot ts -> active query count (blocks GC)
	unpinned uint64         // oldest unpinned snapshot handed out since the last sweep (noSnapshot: none)
	gcFloor  uint64         // highest watermark reclamation has used: older snapshots may be freed
}

// noSnapshot marks that no unpinned snapshot is outstanding.
const noSnapshot = ^uint64(0)

// Open creates a FaRM cluster over the fabric.
func Open(fab *fabric.Fabric, cfg Config) *Farm {
	if cfg.RegionSize == 0 {
		cfg.RegionSize = DefaultConfig().RegionSize
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = 3
	}
	if cfg.Replicas > fab.Machines() {
		cfg.Replicas = fab.Machines()
	}
	f := &Farm{
		fab:      fab,
		cfg:      cfg,
		pins:     make(map[uint64]int),
		unpinned: noSnapshot,
	}
	f.cm = newCM(f)
	f.clock = NewClock(fab)
	f.drivers = make([]*Driver, fab.Machines())
	f.machines = make([]*Machine, fab.Machines())
	for i := range f.drivers {
		f.drivers[i] = NewDriver()
		f.machines[i] = newMachine(fabric.MachineID(i))
	}
	return f
}

// Fabric returns the communication fabric.
func (f *Farm) Fabric() *fabric.Fabric { return f.fab }

// Clock returns the global clock.
func (f *Farm) Clock() *Clock { return f.clock }

// Config returns the cluster configuration.
func (f *Farm) Config() Config { return f.cfg }

// CM returns the configuration manager.
func (f *Farm) CM() *CM { return f.cm }

// Machine returns the process state of machine m.
func (f *Farm) Machine(m fabric.MachineID) *Machine { return f.machines[m] }

// PrimaryOf maps an address to the machine hosting the primary replica of
// its region — the local metadata operation the query engine uses to ship
// operators to data (paper §3.4).
func (f *Farm) PrimaryOf(c *fabric.Ctx, a Addr) (fabric.MachineID, error) {
	return f.cm.lookup(c, a.Region())
}

// Directory is a snapshot of the region directory: it resolves a batch of
// addresses' owners with no directory load per address.
type Directory struct {
	f   *Farm
	dir []dirEntry
}

// Directory snapshots the region directory.
func (f *Farm) Directory() Directory { return Directory{f: f, dir: *f.cm.dir.Load()} }

// PrimaryOf is Farm.PrimaryOf as of the snapshot. A region the snapshot
// marks lost, or does not know, goes through Farm.PrimaryOf, which waits
// out the region's fast restart.
func (d Directory) PrimaryOf(c *fabric.Ctx, a Addr) (fabric.MachineID, error) {
	if id := a.Region(); id > 0 && int(id) < len(d.dir) && !d.dir[id].lost {
		return d.dir[id].primary, nil
	}
	return d.f.PrimaryOf(c, a)
}

// regionAt returns the replica of region id hosted on machine m.
func (f *Farm) regionAt(m fabric.MachineID, id RegionID) (*Region, bool) {
	return f.drivers[m].Get(id)
}

// allocSlot reserves a slot for payload bytes, preferring a region whose
// primary is the machine `near` (locality, paper §2.2). It returns the new
// address and the class-rounded slot so the caller can track replication.
func (f *Farm) allocSlot(c *fabric.Ctx, near fabric.MachineID, payload uint32) (Addr, error) {
	// Try regions already owned by the target machine.
	for _, id := range f.cm.primariesOn(near) {
		r, ok := f.regionAt(near, id)
		if !ok {
			continue
		}
		r.mu.Lock()
		if r.alloc.hasSpace(payload) {
			off, err := r.allocLocked(payload)
			r.mu.Unlock()
			if err == nil {
				return MakeAddr(id, off), nil
			}
			continue
		}
		r.mu.Unlock()
	}
	// Create a new region with its primary on the target machine.
	id, err := f.cm.createRegion(c, near)
	if err != nil {
		return NilAddr, err
	}
	r, ok := f.regionAt(near, id)
	if !ok {
		// CM placed the primary elsewhere (machine down).
		primary, perr := f.cm.lookup(c, id)
		if perr != nil {
			return NilAddr, perr
		}
		r, ok = f.regionAt(primary, id)
		if !ok {
			return NilAddr, ErrRegionLost
		}
	}
	r.mu.Lock()
	off, err := r.allocLocked(payload)
	r.mu.Unlock()
	if err != nil {
		return NilAddr, err
	}
	return MakeAddr(id, off), nil
}

// PinCurrent picks a read snapshot and pins it in one step, so version GC
// will not collect versions the reader may still need (paper §2.2:
// snapshot versions are not garbage collected until the query runs to
// completion). The clock is read under the pin lock: a concurrent commit
// or GCVersions either took its watermark first — no later than the ts
// returned here — or sees the pin. The returned function releases it.
func (f *Farm) PinCurrent() (ts uint64, unpin func()) {
	f.pinMu.Lock()
	defer f.pinMu.Unlock()
	ts = f.clock.Current()
	return ts, f.pinLocked(ts)
}

// PinSnapshot pins a snapshot the caller chose earlier. It fails with
// ErrTooOld when reclamation (a commit or GCVersions) has already run past
// ts, since the versions ts reads may be gone; a ts the caller still holds
// pinned never fails.
func (f *Farm) PinSnapshot(ts uint64) (unpin func(), err error) {
	f.pinMu.Lock()
	defer f.pinMu.Unlock()
	if ts < f.gcFloor {
		return nil, ErrTooOld
	}
	return f.pinLocked(ts), nil
}

func (f *Farm) pinLocked(ts uint64) func() {
	f.pins[ts]++
	var once sync.Once
	return func() {
		once.Do(func() {
			f.pinMu.Lock()
			if f.pins[ts]--; f.pins[ts] <= 0 {
				delete(f.pins, ts)
			}
			f.pinMu.Unlock()
		})
	}
}

// PinnedSnapshots counts the snapshot pins currently held — the leak gauge
// for readers (queries, parked continuations) that must unpin on every
// path.
func (f *Farm) PinnedSnapshots() int {
	f.pinMu.Lock()
	defer f.pinMu.Unlock()
	n := 0
	for _, held := range f.pins {
		n += held
	}
	return n
}

// watermark returns the highest timestamp below which old versions are
// reclaimable: the minimum of the pinned snapshots and the clock and, for a
// commit, of the oldest unpinned snapshot handed out since the last sweep.
// A sweep (GCVersions) honours unpinned snapshots no longer and forgets
// them. The watermark is recorded, so no snapshot below it can be pinned
// afterwards.
func (f *Farm) watermark(sweep bool) uint64 {
	f.pinMu.Lock()
	defer f.pinMu.Unlock()
	w := f.clock.Current()
	if sweep {
		f.unpinned = noSnapshot
	}
	w = min(w, f.unpinned)
	for ts := range f.pins {
		w = min(w, ts)
	}
	f.gcFloor = max(f.gcFloor, w)
	return w
}

// GCVersions collects what commits leave behind: objects whose visible
// version is a tombstone, and version records retained for a snapshot that
// has since been released — pinned, or unpinned and handed out before this
// sweep (a commit frees every other superseded version itself). It returns
// the number of slots freed. GC decisions are made at each region's
// primary and mirrored to backups, chain cuts included.
func (f *Farm) GCVersions(c *fabric.Ctx) int {
	before := f.watermark(true)
	freedTotal := 0
	for _, id := range f.cm.regionIDs() {
		replicas := f.cm.replicasOf(id)
		if len(replicas) == 0 {
			continue
		}
		primary := replicas[0]
		r, ok := f.regionAt(primary, id)
		if !ok {
			continue
		}
		ops := gcRegion(r, before)
		if len(ops) == 0 {
			continue
		}
		for _, op := range ops {
			if op.isFree {
				freedTotal++
			}
		}
		for _, b := range replicas[1:] {
			if br, ok := f.regionAt(b, id); ok {
				applyToBackup(br, ops)
			}
		}
	}
	return freedTotal
}

// gcRegion sweeps one region: it reclaims objects whose visible version is
// a tombstone, chain included, and trims every other object's chain. Slots
// marked recordBit are no heads: version records, reached through their
// head's chain, and allocations not yet installed, which are locked as
// well. It returns the frees and chain cuts for backup mirroring.
func gcRegion(r *Region, before uint64) []regionOp {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ops []regionOp
	for _, off := range r.alloc.liveOffsets() {
		vw := r.versionWord(off)
		if versionRecord(vw) || versionLocked(vw) {
			continue // not a head, or a commit in progress
		}
		if versionTombed(vw) && versionTs(vw) <= before {
			// Deleted and visible to nobody current: reclaim object + chain.
			ops = appendChainFrees(r, r.older(off), ops)
			r.freeLocked(off)
			ops = append(ops, regionOp{freeOff: off, isFree: true})
			continue
		}
		ops = trimChain(r, off, before, ops)
	}
	return ops
}

// trimChain keeps, of the version chain starting at the slot off, the
// newest version visible at `before` and everything newer, and frees the
// strictly older records. It appends the frees and the chain cut to ops.
// A commit runs it at its watermark on every head it installs, and a sweep
// at its own on every head it keeps.
func trimChain(r *Region, off uint32, before uint64, ops []regionOp) []regionOp {
	for versionTs(r.versionWord(off)) > before {
		p := r.older(off)
		if p.IsNil() || p.Addr.Region() != r.id || !r.alloc.isLive(p.Addr.Offset()) {
			return ops
		}
		off = p.Addr.Offset()
	}
	tail := r.older(off)
	if tail.IsNil() {
		return ops
	}
	r.setOlder(off, NilPtr)
	ops = append(ops, regionOp{off: off + 8, bytes: nilOlder})
	return appendChainFrees(r, tail, ops)
}

// appendChainFrees frees the in-region chain starting at p and appends
// the frees to ops.
func appendChainFrees(r *Region, p Ptr, ops []regionOp) []regionOp {
	for !p.IsNil() && p.Addr.Region() == r.id {
		off := p.Addr.Offset()
		if !r.alloc.isLive(off) {
			break
		}
		p = r.older(off)
		r.freeLocked(off)
		ops = append(ops, regionOp{freeOff: off, isFree: true})
	}
	return ops
}

// KillMachine simulates a machine-level failure (power loss): the machine
// drops off the network and its driver memory is wiped. The CM fails over
// its regions.
func (f *Farm) KillMachine(c *fabric.Ctx, m fabric.MachineID) {
	f.fab.Fail(m)
	f.drivers[m].Wipe()
	f.cm.handleFailure(c, m)
}

// KillMachines simulates a correlated failure — e.g. power loss hitting
// several fault domains at once: every machine drops off the network before
// the CM can re-replicate anything. Regions with all replicas in the blast
// radius are permanently lost (the disaster-recovery case, §4).
func (f *Farm) KillMachines(c *fabric.Ctx, ms ...fabric.MachineID) {
	for _, m := range ms {
		f.fab.Fail(m)
		f.drivers[m].Wipe()
	}
	for _, m := range ms {
		f.cm.handleFailure(c, m)
	}
}

// CrashProcess simulates a FaRM/A1 process crash: process state (caches,
// transactions) is lost but driver memory survives. The machine is
// unreachable until RestartProcess.
func (f *Farm) CrashProcess(c *fabric.Ctx, m fabric.MachineID) {
	f.fab.Fail(m)
	f.machines[m] = newMachine(m)
	f.cm.handleFailure(c, m)
}

// CrashProcesses crashes several processes at once (a correlated software
// outage — e.g. a bad deployment hitting all three replicas of a region,
// §5.3). Driver memory survives on every host.
func (f *Farm) CrashProcesses(c *fabric.Ctx, ms ...fabric.MachineID) {
	for _, m := range ms {
		f.fab.Fail(m)
		f.machines[m] = newMachine(m)
	}
	for _, m := range ms {
		f.cm.handleFailure(c, m)
	}
}

// RestartProcess performs a fast restart of machine m: the new process
// re-maps region replicas from driver memory and rejoins the cluster,
// recovering lost regions without data loss (paper §5.3).
func (f *Farm) RestartProcess(c *fabric.Ctx, m fabric.MachineID) {
	f.fab.Restore(m)
	f.machines[m].mu.Lock()
	f.machines[m].epoch++
	f.machines[m].mu.Unlock()
	f.cm.handleRestart(c, m)
}

// RebootMachine restores a machine whose memory was wiped (after
// KillMachine). Its data is gone; only disaster recovery can restore it.
func (f *Farm) RebootMachine(c *fabric.Ctx, m fabric.MachineID) {
	f.fab.Restore(m)
	f.machines[m] = newMachine(m)
	f.cm.handleRestart(c, m)
}

// UsedBytes reports total allocated bytes across primary replicas.
func (f *Farm) UsedBytes() uint64 {
	var total uint64
	for _, id := range f.cm.regionIDs() {
		reps := f.cm.replicasOf(id)
		if len(reps) == 0 {
			continue
		}
		if r, ok := f.regionAt(reps[0], id); ok {
			total += r.usedBytes()
		}
	}
	return total
}
