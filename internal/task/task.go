// Package task implements A1's asynchronous workflow framework (paper
// §3.3): tasks are units of work enqueued on a global queue stored in FaRM,
// picked up by stateless worker threads on any backend machine. Workers
// save execution state in FaRM itself, so a large workflow — deleting a
// graph, a type, and every vertex under it — is chopped into small
// transactional steps that can resume anywhere in the cluster. Task groups
// track child completion through a FaRM counter object; the last child to
// finish enqueues the group's continuation.
package task

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"a1/internal/bond"
	"a1/internal/fabric"
	"a1/internal/farm"
)

// Handler executes one task step. It may spawn more tasks or reschedule the
// current one through the Runtime.
type Handler func(c *fabric.Ctx, rt *Runtime, t *Task) error

// Task is one queued unit of work.
type Task struct {
	ID      uint64
	Kind    string
	Args    map[string]string
	ReadyAt time.Duration
	// group, when set, is the FaRM counter object tying this task to its
	// siblings and the group continuation.
	group farm.Ptr
	// rescheduled marks that the handler re-enqueued this task, so its
	// group membership is not yet complete.
	rescheduled bool
}

// Arg fetches a task argument.
func (t *Task) Arg(key string) string { return t.Args[key] }

// Spec describes a task to enqueue.
type Spec struct {
	Kind  string
	Args  map[string]string
	Delay time.Duration
}

// Runtime is the task queue plus the worker pool controls.
type Runtime struct {
	farm     *farm.Farm
	queue    *farm.BTree
	handlers map[string]Handler
	nextID   atomic.Uint64
	stopping atomic.Bool
	// PollInterval is how often idle workers re-check the queue. Workers
	// run at low priority in production; the longer interval approximates
	// that here.
	PollInterval time.Duration
}

// ErrNoHandler reports a queued task whose kind has no registered handler.
var ErrNoHandler = errors.New("task: no handler registered")

// NewRuntime creates the global task queue in FaRM.
func NewRuntime(c *fabric.Ctx, f *farm.Farm) (*Runtime, error) {
	rt := &Runtime{
		farm:         f,
		handlers:     make(map[string]Handler),
		PollInterval: 2 * time.Millisecond,
	}
	err := farm.RunTransaction(c, f, func(tx *farm.Tx) error {
		bt, err := farm.CreateBTree(tx, farm.NilAddr)
		if err != nil {
			return err
		}
		rt.queue = bt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rt, nil
}

// Register installs the handler for a task kind.
func (rt *Runtime) Register(kind string, h Handler) { rt.handlers[kind] = h }

// queueKey orders tasks by readiness time then id (FIFO within an instant).
func queueKey(readyAt time.Duration, id uint64) []byte {
	k := make([]byte, 0, 16)
	k = binary.BigEndian.AppendUint64(k, uint64(readyAt))
	k = binary.BigEndian.AppendUint64(k, id)
	return k
}

func encodeTask(t *Task) []byte {
	entries := make([]bond.MapEntry, 0, len(t.Args))
	for k, v := range t.Args {
		entries = append(entries, bond.MapEntry{Key: bond.String(k), Value: bond.String(v)})
	}
	fs := []bond.FieldValue{
		bond.FV(0, bond.String(t.Kind)),
		bond.FV(1, bond.Map(entries...)),
		bond.FV(2, bond.UInt64(t.ID)),
	}
	if !t.group.IsNil() {
		fs = append(fs, bond.FV(3, bond.Blob(farm.AppendPtr(nil, t.group))))
	}
	return bond.Marshal(bond.Struct(fs...))
}

func decodeTask(raw []byte) (*Task, error) {
	v, err := bond.Unmarshal(raw)
	if err != nil {
		return nil, fmt.Errorf("task: corrupt entry: %w", err)
	}
	kind, _ := v.Field(0)
	args, _ := v.Field(1)
	id, _ := v.Field(2)
	t := &Task{Kind: kind.AsString(), ID: id.AsUint(), Args: map[string]string{}}
	for _, e := range args.Entries() {
		t.Args[e.Key.AsString()] = e.Value.AsString()
	}
	if blob, ok := v.Field(3); ok {
		t.group = farm.DecodePtr(blob.AsBlob())
	}
	return t, nil
}

// Enqueue schedules a task.
func (rt *Runtime) Enqueue(c *fabric.Ctx, spec Spec) error {
	return rt.enqueue(c, spec, farm.NilPtr)
}

func (rt *Runtime) enqueue(c *fabric.Ctx, spec Spec, group farm.Ptr) error {
	t := &Task{
		ID:    rt.nextID.Add(1),
		Kind:  spec.Kind,
		Args:  spec.Args,
		group: group,
	}
	readyAt := c.Now() + spec.Delay
	return farm.RunTransaction(c, rt.farm, func(tx *farm.Tx) error {
		return rt.queue.Put(tx, queueKey(readyAt, t.ID), encodeTask(t))
	})
}

// Reschedule re-enqueues the running task with (possibly updated) args
// after a delay — the paper's pattern for long-running workflows that save
// their cursor in the task state.
func (rt *Runtime) Reschedule(c *fabric.Ctx, t *Task, delay time.Duration) error {
	t.rescheduled = true
	return rt.enqueue(c, Spec{Kind: t.Kind, Args: t.Args, Delay: delay}, t.group)
}

// groupRecord layout: count (8 bytes) followed by the continuation task
// bytes.

// SpawnGroup enqueues children and arranges for continuation to run once
// every child (including their reschedules) has completed.
func (rt *Runtime) SpawnGroup(c *fabric.Ctx, children []Spec, continuation Spec) error {
	if len(children) == 0 {
		return rt.Enqueue(c, continuation)
	}
	cont := &Task{ID: rt.nextID.Add(1), Kind: continuation.Kind, Args: continuation.Args}
	contBytes := encodeTask(cont)
	var group farm.Ptr
	err := farm.RunTransaction(c, rt.farm, func(tx *farm.Tx) error {
		buf, err := tx.Alloc(uint32(8+len(contBytes)), farm.NilAddr)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(buf.Data(), uint64(len(children)))
		copy(buf.Data()[8:], contBytes)
		group = buf.Ptr()
		return nil
	})
	if err != nil {
		return err
	}
	for _, ch := range children {
		if err := rt.enqueue(c, ch, group); err != nil {
			return err
		}
	}
	return nil
}

// completeGroupMember decrements the group counter; the child that reaches
// zero enqueues the continuation and frees the counter object.
func (rt *Runtime) completeGroupMember(c *fabric.Ctx, group farm.Ptr) error {
	var cont *Task
	err := farm.RunTransaction(c, rt.farm, func(tx *farm.Tx) error {
		cont = nil
		buf, err := tx.Read(group)
		if err != nil {
			return err
		}
		n := binary.LittleEndian.Uint64(buf.Data())
		if n == 0 {
			return nil
		}
		w, err := tx.OpenForWrite(buf)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(w.Data(), n-1)
		if n == 1 {
			t, err := decodeTask(buf.Data()[8:])
			if err != nil {
				return err
			}
			cont = t
			return tx.Free(w)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if cont != nil {
		return rt.enqueue(c, Spec{Kind: cont.Kind, Args: cont.Args}, farm.NilPtr)
	}
	return nil
}

// claim atomically removes the earliest ready task from the queue. Workers
// race through transactions; losers retry.
func (rt *Runtime) claim(c *fabric.Ctx, ignoreDelay bool) (*Task, error) {
	var claimed *Task
	err := farm.RunTransaction(c, rt.farm, func(tx *farm.Tx) error {
		claimed = nil
		var key []byte
		var raw []byte
		err := rt.queue.Scan(tx, nil, nil, func(k, v []byte) bool {
			key = append([]byte(nil), k...)
			raw = append([]byte(nil), v...)
			return false
		})
		if err != nil {
			return err
		}
		if key == nil {
			return nil
		}
		readyAt := time.Duration(binary.BigEndian.Uint64(key))
		if !ignoreDelay && readyAt > c.Now() {
			return nil
		}
		t, err := decodeTask(raw)
		if err != nil {
			return err
		}
		if _, err := rt.queue.Delete(tx, key); err != nil {
			return err
		}
		t.ReadyAt = readyAt
		claimed = t
		return nil
	})
	return claimed, err
}

// execute runs one claimed task: handler errors re-enqueue the task with
// backoff (workers are stateless; the queue is the source of truth).
func (rt *Runtime) execute(c *fabric.Ctx, t *Task) error {
	h, ok := rt.handlers[t.Kind]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoHandler, t.Kind)
	}
	if err := h(c, rt, t); err != nil {
		if rerr := rt.enqueue(c, Spec{Kind: t.Kind, Args: t.Args, Delay: 5 * time.Millisecond}, t.group); rerr != nil {
			return rerr
		}
		return nil // retried; not fatal
	}
	if !t.group.IsNil() && !t.rescheduled {
		return rt.completeGroupMember(c, t.group)
	}
	return nil
}

// RunPending drains the queue synchronously (delays ignored), executing
// tasks until none remain. Deterministic workflow driver for tests and
// examples; production uses StartWorkers.
func (rt *Runtime) RunPending(c *fabric.Ctx) (int, error) {
	ran := 0
	for {
		t, err := rt.claim(c, true)
		if err != nil {
			return ran, err
		}
		if t == nil {
			return ran, nil
		}
		if err := rt.execute(c, t); err != nil {
			return ran, err
		}
		ran++
	}
}

// StartWorkers launches n background workers per machine across the
// cluster. They poll the global queue and run until Stop.
func (rt *Runtime) StartWorkers(c *fabric.Ctx, perMachine int) {
	machines := rt.farm.Fabric().Machines()
	for m := 0; m < machines; m++ {
		mc := c.At(fabric.MachineID(m))
		for w := 0; w < perMachine; w++ {
			mc.Go(fmt.Sprintf("task-worker-%d-%d", m, w), func(wc *fabric.Ctx) {
				rt.workerLoop(wc)
			})
		}
	}
}

// Stop signals workers to exit after their current task.
func (rt *Runtime) Stop() { rt.stopping.Store(true) }

func (rt *Runtime) workerLoop(c *fabric.Ctx) {
	for !rt.stopping.Load() {
		t, err := rt.claim(c, false)
		if err != nil || t == nil {
			c.Sleep(rt.PollInterval)
			continue
		}
		_ = rt.execute(c, t)
	}
}

// QueueLen reports the number of queued tasks.
func (rt *Runtime) QueueLen(c *fabric.Ctx) (int, error) {
	tx := rt.farm.CreatePinnedReadTransaction(c)
	defer tx.Abort()
	return rt.queue.Count(tx, nil, nil)
}
