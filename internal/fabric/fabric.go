// Package fabric simulates the RDMA communication layer of an A1/FaRM
// cluster (paper §2, §5.1).
//
// The real system runs on RoCEv2 NICs: one-sided RDMA reads and writes that
// bypass the remote CPU, a fast RPC implementation, and unreliable datagrams
// for clock sync and leases. None of that hardware is available to a Go
// process, so the fabric reproduces the *behaviour* the paper's evaluation
// depends on — the 20x-100x local/remote gap, per-message NIC costs,
// oversubscribed cross-rack links and FIFO queueing at saturation — on top
// of the deterministic discrete-event engine in internal/sim.
//
// Two modes share every code path:
//
//   - Sim: operations advance a virtual clock through latency and resource
//     models; benchmarks report microsecond-scale latencies honestly.
//   - Direct: operations complete immediately with real goroutine
//     concurrency; unit and race tests use this mode.
package fabric

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"a1/internal/sim"
)

// MachineID identifies a machine (backend) in the cluster. IDs are dense,
// starting at 0.
type MachineID int32

// Mode selects how the fabric executes operations.
type Mode int

const (
	// Direct completes all operations immediately using real concurrency.
	Direct Mode = iota
	// Sim runs operations on the discrete-event virtual clock.
	Sim
)

// ErrUnreachable is returned for operations that target a failed machine.
var ErrUnreachable = errors.New("fabric: machine unreachable")

// Config describes the simulated cluster network.
type Config struct {
	Machines int  // number of backend machines (>= 1)
	Racks    int  // fault domains; machines are spread round-robin
	Mode     Mode // Direct or Sim
	Seed     int64

	// CPUWorkers is the number of worker threads per machine that execute
	// RPC handlers and query operators (the FaRM coprocessor thread pool).
	// Every Work charge occupies one; the query engine's owner-side loop
	// (query's runBatch) splits a large batch into morsels across the
	// ones idle when it starts (Ctx.IdleWorkers).
	CPUWorkers int
	// NICEngines is the number of concurrent one-sided operations a
	// machine's NIC can service.
	NICEngines int
	// UplinkWays is the number of concurrent flows a rack's oversubscribed
	// T1 uplink carries at full speed.
	UplinkWays int

	Latency LatencyParams
}

// DefaultConfig returns a cluster shaped like the paper's testbed scaled to
// n machines: 40Gbps NICs, <5us in-rack RDMA reads, oversubscribed T1 links.
func DefaultConfig(n int, mode Mode) Config {
	racks := (n + 15) / 16 // ~16 machines per rack, as in the 245/15 testbed
	if racks < 3 {
		racks = 3 // at least 3 fault domains for 3-way replication
	}
	if racks > n {
		racks = n
	}
	return Config{
		Machines:   n,
		Racks:      racks,
		Mode:       mode,
		Seed:       1,
		CPUWorkers: 8,
		NICEngines: 4,
		UplinkWays: 8,
		Latency:    DefaultLatency(),
	}
}

// Fabric is the cluster communication substrate shared by every machine.
type Fabric struct {
	cfg   Config
	env   *sim.Env // nil in Direct mode
	start time.Time

	cpu    []*sim.Resource // per machine
	nic    []*sim.Resource // per machine
	uplink []*sim.Resource // per rack

	failed []atomic.Bool // per machine

	Metrics Metrics
}

// Metrics aggregates fabric-wide operation counts. All fields are updated
// atomically and safe to read at any time.
type Metrics struct {
	LocalReads   atomic.Int64
	RemoteReads  atomic.Int64
	RemoteWrites atomic.Int64
	RPCs         atomic.Int64
}

// New creates a fabric. In Sim mode the caller must run all activity inside
// env.Run; pass the same env used there.
func New(cfg Config, env *sim.Env) *Fabric {
	if cfg.Machines < 1 {
		panic("fabric: need at least one machine")
	}
	if cfg.Racks < 1 {
		cfg.Racks = 1
	}
	if cfg.CPUWorkers < 1 {
		cfg.CPUWorkers = 1
	}
	if cfg.NICEngines < 1 {
		cfg.NICEngines = 1
	}
	if cfg.UplinkWays < 1 {
		cfg.UplinkWays = 1
	}
	if cfg.Mode == Sim && env == nil {
		panic("fabric: Sim mode requires a sim.Env")
	}
	f := &Fabric{cfg: cfg, env: env, start: time.Now()}
	f.failed = make([]atomic.Bool, cfg.Machines)
	if cfg.Mode == Sim {
		f.cpu = make([]*sim.Resource, cfg.Machines)
		f.nic = make([]*sim.Resource, cfg.Machines)
		for i := range f.cpu {
			f.cpu[i] = sim.NewResource(env, cfg.CPUWorkers)
			f.nic[i] = sim.NewResource(env, cfg.NICEngines)
		}
		f.uplink = make([]*sim.Resource, cfg.Racks)
		for i := range f.uplink {
			f.uplink[i] = sim.NewResource(env, cfg.UplinkWays)
		}
	}
	return f
}

// Config returns the fabric configuration.
func (f *Fabric) Config() Config { return f.cfg }

// Machines returns the number of machines in the cluster.
func (f *Fabric) Machines() int { return f.cfg.Machines }

// Rack returns the rack (fault domain) hosting machine m.
func (f *Fabric) Rack(m MachineID) int { return int(m) % f.cfg.Racks }

// SameRack reports whether two machines share a rack.
func (f *Fabric) SameRack(a, b MachineID) bool { return f.Rack(a) == f.Rack(b) }

// Fail marks a machine unreachable (power loss / hard crash at the network
// level). Subsequent operations targeting it fail with ErrUnreachable.
func (f *Fabric) Fail(m MachineID) { f.failed[m].Store(true) }

// Restore brings a failed machine back onto the network.
func (f *Fabric) Restore(m MachineID) { f.failed[m].Store(false) }

// Failed reports whether machine m is marked unreachable.
func (f *Fabric) Failed(m MachineID) bool { return f.failed[m].Load() }

// Now returns fabric time: virtual in Sim mode, wall-clock elapsed in Direct.
func (f *Fabric) Now() time.Duration {
	if f.cfg.Mode == Sim {
		return f.env.Now()
	}
	return time.Since(f.start)
}

// Env returns the simulation environment (nil in Direct mode).
func (f *Fabric) Env() *sim.Env { return f.env }

// OpStats collects per-activity operation counts; the query engine attaches
// one to each query to report the locality numbers from §6 (95% local reads,
// RDMA time vs read count).
type OpStats struct {
	LocalReads   atomic.Int64
	RemoteReads  atomic.Int64
	RPCs         atomic.Int64
	RDMAReadTime atomic.Int64 // nanoseconds spent in remote reads
}

// TotalReads returns local + remote reads.
func (s *OpStats) TotalReads() int64 { return s.LocalReads.Load() + s.RemoteReads.Load() }

// Merge folds another stats block into this one (used when a sub-activity
// was measured separately, e.g. one worker batch of a distributed query).
func (s *OpStats) Merge(o *OpStats) {
	s.LocalReads.Add(o.LocalReads.Load())
	s.RemoteReads.Add(o.RemoteReads.Load())
	s.RPCs.Add(o.RPCs.Load())
	s.RDMAReadTime.Add(o.RDMAReadTime.Load())
}

// LocalFraction returns the fraction of object reads served from local
// memory.
func (s *OpStats) LocalFraction() float64 {
	t := s.TotalReads()
	if t == 0 {
		return 1
	}
	return float64(s.LocalReads.Load()) / float64(t)
}

// Ctx is an execution context: which machine the code is running on, the
// simulated process driving it (Sim mode), and optional per-activity stats.
// Contexts are cheap values; derive new ones with At/WithStats.
type Ctx struct {
	F     *Fabric
	M     MachineID
	P     *sim.Proc // nil in Direct mode
	Stats *OpStats  // may be nil
}

// NewCtx returns a context executing on machine m. In Sim mode p must be the
// running process.
func (f *Fabric) NewCtx(m MachineID, p *sim.Proc) *Ctx {
	return &Ctx{F: f, M: m, P: p}
}

// At returns a copy of the context relocated to machine m (used when an RPC
// handler starts executing remotely).
func (c *Ctx) At(m MachineID) *Ctx {
	nc := *c
	nc.M = m
	return &nc
}

// WithStats returns a copy of the context that accumulates into s.
func (c *Ctx) WithStats(s *OpStats) *Ctx {
	nc := *c
	nc.Stats = s
	return &nc
}

// Now returns the fabric time.
func (c *Ctx) Now() time.Duration { return c.F.Now() }

// Sleep suspends the activity: virtual time in Sim mode, real time in Direct
// mode (used by background sweepers and TTL caches).
func (c *Ctx) Sleep(d time.Duration) {
	if c.F.cfg.Mode == Sim {
		c.P.Sleep(d)
		return
	}
	time.Sleep(d)
}

// sleepSim advances virtual time in Sim mode and is free in Direct mode
// (latency modelling only exists on the virtual clock).
func (c *Ctx) sleepSim(d time.Duration) {
	if c.F.cfg.Mode == Sim && d > 0 {
		c.P.Sleep(d)
	}
}

// Work occupies one of the machine's CPU workers for d of virtual time: the
// cost of parsing, predicate evaluation, serialization and other compute.
// In Direct mode it is free.
func (c *Ctx) Work(d time.Duration) {
	if c.F.cfg.Mode != Sim || d <= 0 {
		return
	}
	c.F.cpu[c.M].Use(c.P, c.F.jitter(d), nil)
}

// IdleWorkers is the number of CPU workers on c's machine that are free
// now with no activity queued for one: what bodies started now could run
// on without waiting. Direct mode reports 0: its machines share the host's
// cores, and a scatter already runs one goroutine per owner.
func (c *Ctx) IdleWorkers() int {
	if c.F.cfg.Mode != Sim {
		return 0
	}
	return c.F.cpu[c.M].Idle()
}

// jitter applies a small deterministic random perturbation (+0..25%) so that
// identical operations don't complete in lockstep.
func (f *Fabric) jitter(d time.Duration) time.Duration {
	if f.env == nil {
		return d
	}
	return d + time.Duration(f.env.Rand().Int63n(int64(d)/4+1))
}

// wire advances time for a one-way message of size bytes from src to dst,
// charging the oversubscribed rack uplink when the path crosses racks.
func (c *Ctx) wire(src, dst MachineID, bytes int) {
	if c.F.cfg.Mode != Sim || src == dst {
		return
	}
	lp := &c.F.cfg.Latency
	transfer := lp.transferTime(bytes)
	if c.F.SameRack(src, dst) {
		c.sleepSim(c.F.jitter(lp.IntraRackOneWay + transfer))
		return
	}
	// Cross-rack: propagation through the T1 switch plus a pass through the
	// source rack's oversubscribed uplink.
	up := c.F.uplink[c.F.Rack(src)]
	up.Use(c.P, lp.uplinkTime(bytes), nil)
	c.sleepSim(c.F.jitter(lp.IntraRackOneWay + lp.CrossRackExtra + transfer))
}

// ReadRemote accounts for a one-sided RDMA read of size bytes from target's
// memory. The remote CPU is never involved: only the target NIC and the
// wire. The caller performs the actual memory copy after this returns.
func (c *Ctx) ReadRemote(target MachineID, bytes int) error {
	if c.F.Failed(target) {
		return ErrUnreachable
	}
	f := c.F
	if target == c.M {
		f.Metrics.LocalReads.Add(1)
		if c.Stats != nil {
			c.Stats.LocalReads.Add(1)
		}
		c.sleepSim(f.cfg.Latency.LocalAccess)
		return nil
	}
	f.Metrics.RemoteReads.Add(1)
	start := f.Now()
	// Request to target, NIC DMA service, response back.
	c.wire(c.M, target, rdmaHeaderBytes)
	if f.cfg.Mode == Sim {
		f.nic[target].Use(c.P, f.cfg.Latency.nicTime(bytes), nil)
	}
	c.wire(target, c.M, bytes)
	if c.Stats != nil {
		c.Stats.RemoteReads.Add(1)
		c.Stats.RDMAReadTime.Add(int64(f.Now() - start))
	}
	if f.Failed(target) {
		return ErrUnreachable
	}
	return nil
}

// WriteRemote accounts for a one-sided RDMA write of size bytes into
// target's memory (used for replication to backups, paper §2.1).
func (c *Ctx) WriteRemote(target MachineID, bytes int) error {
	if c.F.Failed(target) {
		return ErrUnreachable
	}
	f := c.F
	if target == c.M {
		c.sleepSim(f.cfg.Latency.LocalAccess)
		return nil
	}
	f.Metrics.RemoteWrites.Add(1)
	c.wire(c.M, target, bytes)
	if f.cfg.Mode == Sim {
		f.nic[target].Use(c.P, f.cfg.Latency.nicTime(bytes), nil)
	}
	c.wire(target, c.M, rdmaHeaderBytes) // ack
	if f.Failed(target) {
		return ErrUnreachable
	}
	return nil
}

// CASRemote accounts for a one-sided RDMA compare-and-swap (8 bytes) used by
// the commit protocol to lock objects at primaries.
func (c *Ctx) CASRemote(target MachineID) error {
	if c.F.Failed(target) {
		return ErrUnreachable
	}
	f := c.F
	if target == c.M {
		c.sleepSim(f.cfg.Latency.LocalAccess)
		return nil
	}
	c.wire(c.M, target, rdmaHeaderBytes)
	if f.cfg.Mode == Sim {
		f.nic[target].Use(c.P, f.cfg.Latency.nicTime(8), nil)
	}
	c.wire(target, c.M, rdmaHeaderBytes)
	return nil
}

// rdmaHeaderBytes approximates the fixed wire overhead of an RDMA verb.
const rdmaHeaderBytes = 64

// RPC ships a handler to target where it executes on one of the machine's
// CPU workers (the coprocessor model): request wire, handler dispatch,
// handler body — which receives a context relocated to target and may itself
// perform Work, reads and nested RPCs — then the response wire. respBytes is
// the size of the reply the handler produced.
func (c *Ctx) RPC(target MachineID, reqBytes int, handler func(sc *Ctx) (respBytes int, err error)) error {
	if c.F.Failed(target) {
		return ErrUnreachable
	}
	f := c.F
	f.Metrics.RPCs.Add(1)
	if c.Stats != nil {
		c.Stats.RPCs.Add(1)
	}
	c.wire(c.M, target, reqBytes)
	if f.Failed(target) {
		return ErrUnreachable
	}
	sc := c.At(target)
	// Dispatch cost on a worker thread; the handler then does its own Work.
	sc.Work(f.cfg.Latency.RPCHandleCPU)
	respBytes, err := handler(sc)
	c.wire(target, c.M, respBytes)
	c.Work(f.cfg.Latency.RPCReplyCPU)
	if f.Failed(target) {
		return ErrUnreachable
	}
	return err
}

// Parallel runs n bodies concurrently — simulated processes in Sim mode,
// goroutines in Direct mode — and waits for all of them. Each body receives
// a context bound to its own process. In Direct mode body 0 runs on the
// caller and every other body on a pooled worker goroutine (fanWorker).
func (c *Ctx) Parallel(n int, fn func(i int, c *Ctx)) {
	if n == 0 {
		return
	}
	if n == 1 {
		fn(0, c)
		return
	}
	if c.F.cfg.Mode == Sim {
		sim.Parallel(c.P, n, func(i int, p *sim.Proc) {
			nc := *c
			nc.P = p
			fn(i, &nc)
		})
		return
	}
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for i := 1; i < n; i++ {
		t := fanTask{fn: fn, i: i, c: *c, wg: &wg}
		select {
		case w := <-idleFanWorkers:
			w <- t
		default:
			go fanWorker(t)
		}
	}
	nc := *c
	fn(0, &nc)
	wg.Wait()
}

// Overlaps reports whether reads that Parallel runs together hide one
// another's waits: true in Sim mode; false in Direct mode, where a read is
// a synchronous copy, so windowed readers read one item per window there.
func (c *Ctx) Overlaps() bool { return c.F.cfg.Mode == Sim }

// fanTask is one Direct-mode Parallel body handed to a worker goroutine.
type fanTask struct {
	fn func(i int, c *Ctx)
	i  int
	c  Ctx
	wg *sync.WaitGroup
}

// maxIdleFanWorkers bounds the goroutines parked between fan-outs: enough
// for a few concurrent queries' scatters over a cluster's machines.
const maxIdleFanWorkers = 64

// idleFanWorkers holds one hand-off channel per parked worker; Parallel
// sends into a taken channel's one-slot buffer, so neither side blocks and
// a body that fans out again (a scatter inside an RPC handler) never waits
// for a worker. A reused worker keeps the stack an earlier body grew.
var idleFanWorkers = make(chan chan fanTask, maxIdleFanWorkers)

// fanWorker runs t, then parks for the next task, or exits when the idle
// set is full.
func fanWorker(t fanTask) {
	next := make(chan fanTask, 1)
	for {
		nc := t.c
		t.fn(t.i, &nc)
		t.wg.Done()
		t = fanTask{} // a parked worker holds nothing of the fan-out it served
		select {
		case idleFanWorkers <- next:
		default:
			return
		}
		t = <-next
	}
}

// Go spawns a detached background activity (task workers, replication
// sweepers). The returned Waiter blocks until it finishes.
func (c *Ctx) Go(name string, fn func(c *Ctx)) Waiter {
	if c.F.cfg.Mode == Sim {
		j := c.P.Go(name, func(p *sim.Proc) {
			nc := *c
			nc.P = p
			fn(&nc)
		})
		return simWaiter{j: j, c: c}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		nc := *c
		fn(&nc)
	}()
	return chanWaiter{done: done}
}

// Waiter blocks until a spawned activity completes.
type Waiter interface {
	// Wait must be called from the spawning activity.
	Wait(c *Ctx)
}

type simWaiter struct {
	j *sim.Join
	c *Ctx
}

func (w simWaiter) Wait(c *Ctx) { w.j.Wait(c.P) }

type chanWaiter struct{ done chan struct{} }

func (w chanWaiter) Wait(*Ctx) { <-w.done }

func (m MachineID) String() string { return fmt.Sprintf("m%d", int32(m)) }
