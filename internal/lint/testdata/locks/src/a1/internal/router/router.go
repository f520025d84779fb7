// Fixture for a1/locks, remote-call rule: no fabric/farm/core remote call
// while a machine-local mutex acquired in the same function is held.
package router

import (
	"sync"

	"a1/internal/core"
	"a1/internal/fabric"
	"a1/internal/farm"
)

type Router struct {
	mu    sync.Mutex
	rw    sync.RWMutex
	peers map[fabric.MachineID]bool
}

// Bad: RPC while mu is held.
func (r *Router) Broadcast(c *fabric.Ctx) error {
	r.mu.Lock()
	err := c.RPC(1, 0, func(*fabric.Ctx) error { return nil }) // want `Broadcast calls RPC while holding r.mu`
	r.mu.Unlock()
	return err
}

// Good: the lock is released before the remote call.
func (r *Router) Snapshot(c *fabric.Ctx) error {
	r.mu.Lock()
	n := len(r.peers)
	r.mu.Unlock()
	_, err := c.ReadRemote(1, n)
	return err
}

// Bad: a deferred unlock keeps the lock held across the farm read.
func (r *Router) Load(tx *farm.Tx, p farm.Ptr) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, err := tx.Read(p) // want `Load calls Read while holding r.mu`
	return err
}

// Bad: read locks count too — RLock held across a fabric fan-out.
func (r *Router) Fan(c *fabric.Ctx) {
	r.rw.RLock()
	c.Parallel(2, func(int, *fabric.Ctx) {}) // want `Fan calls Parallel while holding r.rw`
	r.rw.RUnlock()
}

// Bad: in Sim mode Work parks the process on a CPU worker, so a lock held
// across it blocks every contender for that long.
func (r *Router) Merge(c *fabric.Ctx, n int) {
	r.mu.Lock()
	r.peers[fabric.MachineID(n)] = true
	c.Work(n) // want `Merge calls Work while holding r.mu`
	r.mu.Unlock()
}

type Table struct {
	sync.Mutex
}

// Bad: embedded mutex promotion is still a held lock.
func (t *Table) Flush(tx *farm.Tx) error {
	t.Lock()
	err := tx.Commit() // want `Flush calls Commit while holding t`
	t.Unlock()
	return err
}

// Good: the closure is a separate unit; it runs after Capture returns and
// the lock is gone by then.
func (r *Router) Capture(c *fabric.Ctx) func() {
	r.mu.Lock()
	f := func() { _, _ = c.ReadRemote(1, 1) }
	r.mu.Unlock()
	return f
}

// Good: a deferred remote call runs after the body's lock scope.
func (r *Router) Later(c *fabric.Ctx) {
	r.mu.Lock()
	defer c.Parallel(1, func(int, *fabric.Ctx) {})
	r.mu.Unlock()
}

// Bad: an exported core function handed a transaction reaches farm, and
// VisitVertices is the engine's one read step.
func (r *Router) Visit(g *core.Graph, tx *farm.Tx, vps []core.VertexPtr) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return g.VisitVertices(tx, vps, func(core.VertexPtr) bool { return true }) // want `Visit calls VisitVertices while holding r.mu`
}

// Good: a core call handed neither a transaction nor a fabric context
// stays on the machine.
func (r *Router) GraphName(g *core.Graph) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return g.Name()
}

// Bad: a read into a caller's scratch buffer is still a farm read.
func (r *Router) Scratch(tx *farm.Tx, p farm.Ptr, buf []byte) ([]byte, error) {
	r.rw.RLock()
	defer r.rw.RUnlock()
	return tx.ReadSizedInto(p.Addr, p.Size, buf) // want `Scratch calls ReadSizedInto while holding r.rw`
}

type Queue struct {
	mu sync.Mutex
}

// Mixed: the literal is defined under r.mu. Its RPC is no remote-call
// finding — r.mu was not taken inside the literal, which may run after
// Handoff returns — but its own acquisition of q.mu still orders after
// r.mu, and Drain orders the two the other way.
func (r *Router) Handoff(c *fabric.Ctx, q *Queue) func() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return func() error {
		q.mu.Lock() // want `lock-order cycle router\.Queue\.mu → router\.Router\.mu → router\.Queue\.mu .*Handoff \(func literal\) locks router\.Queue\.mu while holding router\.Router\.mu`
		q.mu.Unlock()
		return c.RPC(1, 0, func(*fabric.Ctx) error { return nil })
	}
}

// Drain takes Router.mu while holding Queue.mu.
func (q *Queue) Drain(r *Router) {
	q.mu.Lock()
	defer q.mu.Unlock()
	r.mu.Lock()
	r.mu.Unlock()
}

// Suppressed: justified //lint:ignore, so no want comment here.
func (r *Router) Pinned(tx *farm.Tx, p farm.Ptr) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	//lint:ignore a1/locks startup path before the fabric goes live; Read is loopback here
	_, err := tx.Read(p)
	return err
}
