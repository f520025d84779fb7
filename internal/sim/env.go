// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine is the timing substrate for the simulated RDMA fabric: it lets
// thousands of concurrent activities (queries, transactions, background
// sweepers) run as ordinary Go code while time is virtual and fully
// deterministic. Processes are goroutines that cooperate through a baton:
// exactly one process runs at a time, and when it sleeps or blocks it hands
// the baton to the owner of the earliest pending event. Determinism follows
// from ordering events by (time, sequence).
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Env is a simulation environment: a virtual clock plus an event queue.
// Create one with NewEnv and drive it with Run. An Env must not be reused
// after Run returns.
type Env struct {
	mu     sync.Mutex
	now    time.Duration
	queue  eventHeap
	seq    int64
	live   int           // processes started and not yet finished
	parked int           // processes blocked on a resource/join (no pending event)
	stuck  bool          // deadlock already reported
	done   chan struct{} // closed when the root process and all children finish
	rng    *rand.Rand

	// Stuck is called (if non-nil) when every live process is parked and the
	// event queue is empty — a simulation deadlock. The default panics.
	Stuck func(e *Env)
}

// NewEnv returns an environment whose random source is seeded with seed,
// making every run with the same seed bit-identical.
func NewEnv(seed int64) *Env {
	return &Env{
		done: make(chan struct{}),
		rng:  rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current virtual time. It is safe to call from any
// goroutine, though only the running process observes a meaningful instant.
func (e *Env) Now() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.now
}

// Rand returns the environment's deterministic random source. It must only
// be used by the currently running process.
func (e *Env) Rand() *rand.Rand { return e.rng }

// event wakes a single process at a virtual time.
type event struct {
	at   time.Duration
	seq  int64
	proc *Proc
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}

// Proc is a simulated process. All methods must be called from the process's
// own goroutine while it holds the baton (i.e. from inside its body).
type Proc struct {
	env  *Env
	name string
	wake chan struct{}
}

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Name returns the diagnostic name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.env.now }

// Run starts root as the first process and blocks until every process has
// finished. It panics if the simulation deadlocks (all processes parked with
// no pending events) unless Stuck is overridden. Run may be called again
// after it returns: virtual time continues from where the previous run
// ended.
func (e *Env) Run(root func(p *Proc)) {
	p := e.newProc("root")
	e.mu.Lock()
	e.done = make(chan struct{})
	e.stuck = false
	e.live++
	e.schedule(p, e.now)
	e.mu.Unlock()
	go p.body(root)
	// Kick the first event from this (external) goroutine, then wait.
	e.mu.Lock()
	e.dispatchNext()
	e.mu.Unlock()
	<-e.done
}

func (e *Env) newProc(name string) *Proc {
	return &Proc{env: e, name: name, wake: make(chan struct{}, 1)}
}

// schedule enqueues a wakeup for p at absolute time at. Caller holds e.mu.
func (e *Env) schedule(p *Proc, at time.Duration) {
	e.seq++
	heap.Push(&e.queue, event{at: at, seq: e.seq, proc: p})
}

// dispatchNext pops the earliest event, advances the clock and hands the
// baton to that event's process. Caller holds e.mu. If the queue is empty
// and processes remain parked, the simulation is stuck.
func (e *Env) dispatchNext() {
	if e.queue.Len() == 0 {
		if e.live > 0 {
			if e.parked == e.live && !e.stuck {
				e.stuck = true
				hook := e.Stuck
				e.mu.Unlock()
				if hook == nil {
					panic(fmt.Sprintf("sim: deadlock at %v: %d processes parked with no pending events", e.now, e.parked))
				}
				hook(e)
				close(e.done) // let Run return; parked goroutines are abandoned
				e.mu.Lock()
				return
			}
			// Some process is transitioning (between finishing and
			// decrementing live, or being spawned); nothing to do.
			return
		}
		return
	}
	ev := heap.Pop(&e.queue).(event)
	if ev.at < e.now {
		panic("sim: time went backwards")
	}
	e.now = ev.at
	ev.proc.wake <- struct{}{}
}

// body runs fn when first woken, then passes the baton on and signals
// completion.
func (p *Proc) body(fn func(p *Proc)) {
	<-p.wake
	fn(p)
	e := p.env
	e.mu.Lock()
	e.live--
	if e.live == 0 {
		e.mu.Unlock()
		close(e.done)
		return
	}
	e.dispatchNext()
	e.mu.Unlock()
}

// Sleep suspends the process for d of virtual time. Negative or zero d
// yields the baton without advancing this process's wake time, which still
// lets same-time events scheduled earlier run first.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	e := p.env
	e.mu.Lock()
	e.schedule(p, e.now+d)
	e.dispatchNext()
	e.mu.Unlock()
	<-p.wake
}

// park blocks the process without a pending event; some other process must
// later call unpark. Caller must NOT hold e.mu.
func (p *Proc) park() {
	e := p.env
	e.mu.Lock()
	e.parked++
	e.dispatchNext()
	e.mu.Unlock()
	<-p.wake
	e.mu.Lock()
	e.parked--
	e.mu.Unlock()
}

// unpark schedules a parked process to resume at the current time. It must
// be called by the running process. Caller must not hold e.mu.
func (e *Env) unpark(p *Proc) {
	e.mu.Lock()
	e.schedule(p, e.now)
	e.mu.Unlock()
}

// Join represents a spawned child process; Wait blocks until it finishes.
type Join struct {
	done    bool
	waiters []*Proc
}

// Go spawns a child process running fn, scheduled at the current virtual
// time. The returned Join can be waited on; children also count toward Run's
// completion.
func (p *Proc) Go(name string, fn func(p *Proc)) *Join {
	e := p.env
	j := &Join{}
	child := e.newProc(name)
	e.mu.Lock()
	e.live++
	e.schedule(child, e.now)
	e.mu.Unlock()
	go child.body(func(cp *Proc) {
		fn(cp)
		j.done = true
		for _, w := range j.waiters {
			e.unpark(w)
		}
		j.waiters = nil
	})
	return j
}

// Wait blocks the calling process until the joined child has finished.
func (j *Join) Wait(p *Proc) {
	if j.done {
		return
	}
	j.waiters = append(j.waiters, p)
	p.park()
}

// Parallel runs n bodies as child processes and waits for all of them.
func Parallel(p *Proc, n int, fn func(i int, p *Proc)) {
	joins := make([]*Join, n)
	for i := 0; i < n; i++ {
		i := i
		joins[i] = p.Go(fmt.Sprintf("%s/par%d", p.name, i), func(cp *Proc) { fn(i, cp) })
	}
	for _, j := range joins {
		j.Wait(p)
	}
}

// Resource is a FIFO-queued resource with fixed capacity, used to model CPUs,
// NICs and oversubscribed uplinks. Acquire blocks (in virtual time) while the
// resource is saturated; contention is what produces queueing latency.
type Resource struct {
	env      *Env
	capacity int
	inUse    int
	waiters  []*Proc
}

// NewResource creates a resource with the given concurrent capacity.
func NewResource(env *Env, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{env: env, capacity: capacity}
}

// Acquire obtains one unit of the resource, blocking in virtual time until
// one is free. Units are granted in FIFO order.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.capacity && len(r.waiters) == 0 {
		r.inUse++
		return
	}
	r.waiters = append(r.waiters, p)
	p.park()
	// Granted by Release: inUse already incremented on our behalf.
}

// Release returns one unit. If processes are waiting, ownership transfers to
// the head of the queue.
func (r *Resource) Release(p *Proc) {
	r.inUse--
	if len(r.waiters) > 0 {
		w := r.waiters[0]
		r.waiters = r.waiters[1:]
		r.inUse++
		r.env.unpark(w)
	}
}

// Use acquires the resource, sleeps for d (the service time), runs fn if
// non-nil, and releases.
func (r *Resource) Use(p *Proc, d time.Duration, fn func()) {
	r.Acquire(p)
	if d > 0 {
		p.Sleep(d)
	}
	if fn != nil {
		fn()
	}
	r.Release(p)
}

// Idle returns the units free now with no process queued for one: how
// many acquirers would be granted a unit at once.
func (r *Resource) Idle() int {
	if len(r.waiters) > 0 {
		return 0
	}
	return r.capacity - r.inUse
}

// Histogram accumulates duration samples and reports order statistics; it is
// how the benchmark harness computes the average and P99 series the paper
// plots.
type Histogram struct {
	samples []time.Duration
	sorted  bool
}

// Add records one sample.
func (h *Histogram) Add(d time.Duration) {
	h.samples = append(h.samples, d)
	h.sorted = false
}

// N returns the number of samples.
func (h *Histogram) N() int { return len(h.samples) }

// Mean returns the arithmetic mean, or 0 with no samples.
func (h *Histogram) Mean() time.Duration {
	if len(h.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range h.samples {
		sum += s
	}
	return sum / time.Duration(len(h.samples))
}

// Percentile returns the q-th percentile (0 < q <= 100) by nearest-rank.
func (h *Histogram) Percentile(q float64) time.Duration {
	if len(h.samples) == 0 {
		return 0
	}
	if !h.sorted {
		sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
		h.sorted = true
	}
	rank := int(q/100*float64(len(h.samples))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(h.samples) {
		rank = len(h.samples) - 1
	}
	return h.samples[rank]
}

// Max returns the largest sample.
func (h *Histogram) Max() time.Duration {
	var m time.Duration
	for _, s := range h.samples {
		if s > m {
			m = s
		}
	}
	return m
}
