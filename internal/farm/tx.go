package farm

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"a1/internal/fabric"
)

// Tx is a FaRM transaction (paper §2.1, Figure 2): all object reads, writes,
// allocations and frees happen in its context. Update transactions run under
// optimistic concurrency control with commit-time validation; read-only
// transactions read a consistent multi-version snapshot and never abort due
// to conflicts (FaRMv2, §5.2). Both enjoy opacity: no transaction — even one
// that will abort — ever observes state inconsistent with some serial order.
//
// A transaction belongs to a single fiber of execution, as in FaRM's
// coprocessor model; it must not be shared across goroutines.
type Tx struct {
	farm     *Farm
	c        *fabric.Ctx
	readTs   uint64
	readOnly bool
	status   txStatus

	reads  map[Addr]uint64  // validated at commit: addr -> version word seen
	writes map[Addr]*ObjBuf // write set, including frees and new objects
	cache  map[Addr]*ObjBuf // read cache for repeatable reads (update txs)

	tsHooks   []func(ts uint64)
	doneHooks []func()
	unpin     func() // releases a pinned read snapshot at Commit or Abort
}

// OnCommitted registers fn to run synchronously after the transaction
// commits successfully. A1's disaster-recovery layer uses it to attempt the
// synchronous ObjectStore flush of the replication-log entries written by
// the transaction (paper §4).
func (tx *Tx) OnCommitted(fn func()) {
	tx.doneHooks = append(tx.doneHooks, fn)
}

// OnCommitTimestamp registers fn to run during commit, after the write
// timestamp is chosen but before any mutation is installed. Hooks may patch
// the contents of buffers already in the write set — A1's disaster-recovery
// layer uses this to stamp replication-log entries with the transaction's
// real commit timestamp (paper §4).
func (tx *Tx) OnCommitTimestamp(fn func(ts uint64)) {
	tx.tsHooks = append(tx.tsHooks, fn)
}

type txStatus int

const (
	txActive txStatus = iota
	txCommitted
	txAborted
)

// ObjBuf wraps one FaRM object's payload (paper Figure 2). Read buffers are
// immutable snapshots; OpenForWrite returns a locally-buffered writable
// copy that is pushed to remote replicas at commit.
type ObjBuf struct {
	tx       *Tx
	addr     Addr
	data     []byte
	writable bool
	isNew    bool
	freed    bool
	moved    bool   // freed by Unlink: its commit may free the slot outright
	baseVer  uint64 // committed version word observed (CAS expectation)
	slotCap  uint32 // payload capacity of the allocated slot
}

// Addr returns the object's address.
func (b *ObjBuf) Addr() Addr { return b.addr }

// Ptr returns the fat pointer ⟨address, size⟩ for the current payload.
func (b *ObjBuf) Ptr() Ptr { return Ptr{Addr: b.addr, Size: uint32(len(b.data))} }

// Data returns the payload. For read buffers the slice must not be
// modified; for writable buffers mutations are committed atomically.
func (b *ObjBuf) Data() []byte { return b.data }

// Cap returns the payload capacity of the object's slot: its size class
// less the object header, for read and writable buffers alike. A payload
// may grow up to Cap in place (Resize after OpenForWrite); past it, the
// object must move (Realloc). A read-only snapshot's read of an older
// version, which comes from a version record, reports 0.
func (b *ObjBuf) Cap() uint32 { return b.slotCap }

// Resize changes the payload length within the slot's capacity. Growing an
// object beyond its slot requires moving it (Realloc: FaRM objects have
// fixed placement; A1 re-links pointers instead, §3.2).
func (b *ObjBuf) Resize(n uint32) error {
	if !b.writable {
		return errors.New("farm: Resize on read-only buffer")
	}
	if n > b.slotCap {
		return fmt.Errorf("%w: %d > slot capacity %d", ErrTooLarge, n, b.slotCap)
	}
	if int(n) <= cap(b.data) {
		b.data = b.data[:n]
	} else {
		nd := make([]byte, n)
		copy(nd, b.data)
		b.data = nd
	}
	return nil
}

// CreateTransaction starts an update transaction coordinated by the calling
// machine; its snapshot is the current global time.
func (f *Farm) CreateTransaction(c *fabric.Ctx) *Tx {
	return &Tx{
		farm:   f,
		c:      c,
		readTs: f.clock.Current(),
		reads:  make(map[Addr]uint64),
		writes: make(map[Addr]*ObjBuf),
		cache:  make(map[Addr]*ObjBuf),
	}
}

// CreateReadTransaction starts a read-only snapshot transaction at the
// current global time. It never conflicts with updates. The snapshot is
// not pinned: commits keep the versions it reads until the next
// GCVersions sweep, which may then free them (reads fail with ErrTooOld).
// Readers that may outlive a sweep use CreatePinnedReadTransaction.
func (f *Farm) CreateReadTransaction(c *fabric.Ctx) *Tx {
	f.pinMu.Lock()
	ts := f.clock.Current()
	f.unpinned = min(f.unpinned, ts)
	f.pinMu.Unlock()
	return f.CreateReadTransactionAt(c, ts)
}

// CreatePinnedReadTransaction starts a read-only transaction at a pinned
// current snapshot (see PinCurrent): every version it can read survives
// commits and sweeps until the transaction ends. Commit or Abort releases
// the pin, and the caller must reach one of them on every path.
func (f *Farm) CreatePinnedReadTransaction(c *fabric.Ctx) *Tx {
	ts, unpin := f.PinCurrent()
	tx := f.CreateReadTransactionAt(c, ts)
	tx.unpin = unpin
	return tx
}

// CreateReadTransactionAt starts a read-only transaction at an explicit
// snapshot timestamp — how distributed query workers join the coordinator's
// consistent snapshot (paper §3.4).
func (f *Farm) CreateReadTransactionAt(c *fabric.Ctx, ts uint64) *Tx {
	return &Tx{farm: f, c: c, readTs: ts, readOnly: true}
}

// ReadTs returns the transaction's snapshot timestamp.
func (tx *Tx) ReadTs() uint64 { return tx.readTs }

// Ctx returns the fabric context the transaction is coordinated from.
func (tx *Tx) Ctx() *fabric.Ctx { return tx.c }

// On returns tx bound to c, for a body that reads on a process of its own
// (a fabric.Ctx.Parallel body) so that its reads wait on that process's
// clock: tx itself when c is tx's own context, otherwise a copy of a
// read-only snapshot, which tracks nothing and can be read from anywhere.
// An update transaction's read set, cache and write set belong to the
// process that commits them, so On panics when asked to share one.
func (tx *Tx) On(c *fabric.Ctx) *Tx {
	if c == tx.c {
		return tx
	}
	if !tx.readOnly {
		panic("farm: an update transaction cannot be shared with another process")
	}
	cp := *tx
	cp.c = c
	return &cp
}

func (tx *Tx) checkActive() error {
	switch tx.status {
	case txAborted:
		return ErrAborted
	case txCommitted:
		return ErrCommitted
	}
	return nil
}

// checkWritable is checkActive for a mutation, which a read-only
// transaction may not make.
func (tx *Tx) checkWritable() error {
	if err := tx.checkActive(); err != nil || !tx.readOnly {
		return err
	}
	return ErrReadOnly
}

// Alloc allocates a new object of the given payload size. The hint places
// the object in the same region as an existing object — and therefore on
// the same machine through failures — implementing A1's locality principle
// (paper §2.1/§2.2). A nil hint allocates near the coordinator.
func (tx *Tx) Alloc(size uint32, hint Addr) (*ObjBuf, error) {
	if err := tx.checkWritable(); err != nil {
		return nil, err
	}
	near := tx.c.M
	if !hint.IsNil() {
		if m, err := tx.farm.cm.lookup(tx.c, hint.Region()); err == nil {
			near = m
		}
	}
	return tx.AllocOn(near, size)
}

// AllocOn allocates a new object with its region primary on an explicit
// machine. A1 uses this to place vertices at random across the whole
// cluster (paper §3.2) instead of near the coordinator.
func (tx *Tx) AllocOn(m fabric.MachineID, size uint32) (*ObjBuf, error) {
	if err := tx.checkWritable(); err != nil {
		return nil, err
	}
	if m != tx.c.M {
		if err := tx.c.RPC(m, 32, func(*fabric.Ctx) (int, error) { return 16, nil }); err != nil {
			m = tx.c.M
		}
	}
	addr, err := tx.farm.allocSlot(tx.c, m, size)
	if err != nil {
		return nil, err
	}
	class, _ := classFor(size + hdrBytes)
	buf := &ObjBuf{
		tx:       tx,
		addr:     addr,
		data:     make([]byte, size),
		writable: true,
		isNew:    true,
		slotCap:  class - hdrBytes,
	}
	tx.writes[addr] = buf
	return buf, nil
}

// Read fetches the object named by a fat pointer as of the transaction's
// snapshot. A single (simulated) one-sided RDMA read suffices when the
// newest version is visible; older snapshots walk the version chain.
func (tx *Tx) Read(p Ptr) (*ObjBuf, error) {
	return tx.ReadSized(p.Addr, p.Size)
}

// ReadSized is Read with an explicit size hint for the RDMA transfer.
func (tx *Tx) ReadSized(addr Addr, sizeHint uint32) (*ObjBuf, error) {
	if err := tx.checkActive(); err != nil {
		return nil, err
	}
	if addr.IsNil() {
		return nil, fmt.Errorf("%w: nil address", ErrBadAddr)
	}
	if w, ok := tx.writes[addr]; ok { // read-your-writes
		if w.freed {
			return nil, ErrNotFound
		}
		return w, nil
	}
	if !tx.readOnly {
		if b, ok := tx.cache[addr]; ok { // repeatable reads
			if b.freed {
				return nil, ErrNotFound
			}
			return b, nil
		}
	}
	snap, err := tx.readVersioned(addr, sizeHint, nil)
	if err != nil {
		return nil, err
	}
	buf := &ObjBuf{
		tx:      tx,
		addr:    addr,
		data:    snap.data,
		baseVer: snap.version,
		slotCap: snap.cap,
	}
	if !tx.readOnly {
		tx.reads[addr] = snap.version
		tx.cache[addr] = buf
	}
	if versionTombed(snap.version) {
		buf.freed = true
		return nil, ErrNotFound
	}
	return buf, nil
}

// ReadSizedInto is ReadSized for decode-and-discard readers: the payload
// is copied into scratch (reusing its backing array when large enough) and
// returned without allocating an ObjBuf or registering the object in the
// transaction's read cache. The returned slice aliases scratch's backing
// array and is valid only until the next read that reuses it — callers
// must decode out of it, never retain it. Only read-only transactions take
// the zero-alloc path; update transactions fall back to the tracked
// ReadSized so read-your-writes, repeatable reads, and commit-time
// validation are preserved.
func (tx *Tx) ReadSizedInto(addr Addr, sizeHint uint32, scratch []byte) ([]byte, error) {
	if !tx.readOnly {
		buf, err := tx.ReadSized(addr, sizeHint)
		if err != nil {
			return nil, err
		}
		// Copy out of the tracked buffer: the caller will reuse (and
		// overwrite) the returned backing array, which must never alias
		// an object the transaction still validates against at commit.
		return append(scratch[:0], buf.data...), nil
	}
	if err := tx.checkActive(); err != nil {
		return nil, err
	}
	if addr.IsNil() {
		return nil, fmt.Errorf("%w: nil address", ErrBadAddr)
	}
	snap, err := tx.readVersioned(addr, sizeHint, scratch)
	if err != nil {
		return nil, err
	}
	if versionTombed(snap.version) {
		return nil, ErrNotFound
	}
	return snap.data, nil
}

// lockRetryDelay is how long a reader backs off when it finds an object
// locked by an in-flight commit; the pending commit may carry a timestamp
// below the reader's snapshot, so the reader must wait for the outcome.
const lockRetryDelay = 2 * time.Microsecond

// readVersioned performs the snapshot read protocol against the region's
// primary replica. A non-nil scratch donates its backing array for the
// payload copy (see Region.readObject); pass nil when the snapshot must
// own its bytes (tracked reads cached on the transaction).
func (tx *Tx) readVersioned(addr Addr, sizeHint uint32, scratch []byte) (objectSnapshot, error) {
	f := tx.farm
	region := addr.Region()
	off := addr.Offset()
	for attempt := 0; ; attempt++ {
		primary, err := f.cm.lookup(tx.c, region)
		if err != nil {
			return objectSnapshot{}, err
		}
		if rerr := tx.c.ReadRemote(primary, int(sizeHint)+hdrBytes); rerr != nil {
			// The primary dropped off the network mid-read: trigger
			// failover and retry against the new primary.
			f.cm.handleFailure(tx.c, primary)
			if attempt > 64 {
				return objectSnapshot{}, rerr
			}
			continue
		}
		r, ok := f.regionAt(primary, region)
		if !ok {
			if attempt > 64 {
				return objectSnapshot{}, fmt.Errorf("%w: region %d missing at %v", ErrRegionLost, region, primary)
			}
			tx.c.Sleep(lockRetryDelay)
			continue
		}
		snap, err := r.readObject(off, scratch)
		if err != nil {
			return objectSnapshot{}, tx.deadAddr(err)
		}
		if versionRecord(snap.version) {
			return objectSnapshot{}, tx.deadAddr(fmt.Errorf("%w: %v holds no object", ErrBadAddr, addr))
		}
		if versionLocked(snap.version) {
			// Commit in progress; its timestamp may be below our snapshot.
			tx.c.Sleep(lockRetryDelay)
			continue
		}
		if versionTs(snap.version) <= tx.readTs {
			return snap, nil
		}
		// The head version is newer than our snapshot.
		if !tx.readOnly {
			// Opacity for update transactions: abort cleanly rather than
			// expose state we could never commit against (§5.2).
			tx.Abort()
			return objectSnapshot{}, fmt.Errorf("%w: read of newer version", ErrConflict)
		}
		return tx.walkVersionChain(primary, r, snap)
	}
}

// deadAddr explains a read of an address that names no object head: a
// free slot, or one holding a version record or an allocation not yet
// committed. A commit that moves an object (Realloc) frees the old slot
// outright when no snapshot below the commit can read it, and the slot may
// be reused at once, so a transaction whose snapshot is below the
// reclamation floor may hold a pointer to a slot that has since held
// something else. For a read-only snapshot that is ErrTooOld; for an
// update transaction that read the pointer before the move, a conflict to
// retry. Any other such address is a bad address.
func (tx *Tx) deadAddr(err error) error {
	f := tx.farm
	f.pinMu.Lock()
	floor := f.gcFloor
	f.pinMu.Unlock()
	if tx.readTs >= floor {
		return err
	}
	if tx.readOnly {
		return fmt.Errorf("%w: %w", ErrTooOld, err)
	}
	for a, seen := range tx.reads {
		if tx.validateRead(a, seen) != nil {
			tx.Abort()
			return fmt.Errorf("%w: %w", ErrConflict, err)
		}
	}
	return err
}

// walkVersionChain follows older-version pointers — additional one-sided
// reads within the same region — until it finds the newest version visible
// at the snapshot timestamp.
func (tx *Tx) walkVersionChain(primary fabric.MachineID, r *Region, head objectSnapshot) (objectSnapshot, error) {
	p := head.older
	for !p.IsNil() {
		if err := tx.c.ReadRemote(primary, int(p.Size)+hdrBytes); err != nil {
			return objectSnapshot{}, err
		}
		rec, err := r.readObject(p.Addr.Offset(), nil)
		if err != nil {
			return objectSnapshot{}, fmt.Errorf("%w: version chain broken", ErrTooOld)
		}
		if versionTs(rec.version) <= tx.readTs {
			return rec, nil
		}
		p = rec.older
	}
	return objectSnapshot{}, ErrTooOld
}

// OpenForWrite returns a writable copy of a previously read object. Writes
// are buffered locally and pushed to replicas at commit (paper Figure 3).
func (tx *Tx) OpenForWrite(buf *ObjBuf) (*ObjBuf, error) {
	return tx.openForWrite(buf, nil)
}

// openForWrite is OpenForWrite with an optional replacement payload: a
// non-nil data becomes the writable buffer's contents (the buffer owns it
// from here on), which spares copying bytes the caller is about to replace
// whole.
func (tx *Tx) openForWrite(buf *ObjBuf, data []byte) (*ObjBuf, error) {
	if err := tx.checkWritable(); err != nil {
		return nil, err
	}
	if buf.tx != tx {
		return nil, errors.New("farm: OpenForWrite on buffer from another transaction")
	}
	if buf.freed {
		return nil, ErrNotFound
	}
	w := buf
	if !w.writable {
		w = tx.writes[buf.addr]
	}
	fresh := w == nil
	if fresh {
		w = &ObjBuf{
			tx:       tx,
			addr:     buf.addr,
			writable: true,
			baseVer:  buf.baseVer,
			slotCap:  buf.slotCap,
		}
		if data == nil {
			data = make([]byte, len(buf.data))
			copy(data, buf.data)
		}
	}
	if data != nil {
		if uint32(len(data)) > w.slotCap {
			return nil, fmt.Errorf("%w: %d > slot capacity %d", ErrTooLarge, len(data), w.slotCap)
		}
		w.data = data
	}
	if fresh {
		tx.writes[buf.addr] = w
	}
	return w, nil
}

// wrote reports whether the transaction holds a buffered, uncommitted write
// of the object at a.
func (tx *Tx) wrote(a Addr) bool {
	_, ok := tx.writes[a]
	return ok
}

// Free deletes an object. Its commit leaves a tombstone: a read of the
// address is ErrNotFound, never ErrBadAddr, until a GCVersions sweep
// reclaims the slot once no active snapshot can still see it; until then
// readers at older snapshots continue to read the prior version.
func (tx *Tx) Free(buf *ObjBuf) error {
	return tx.free(buf, false)
}

// Unlink frees an object whose every pointer the transaction rewrites:
// when no snapshot below the commit can read it, the commit frees its
// slot and version chain outright and leaves no tombstone; otherwise it is
// tombstoned as by Free. Only a transaction from below the commit can then
// follow a pointer to the old address, and its read fails with
// ErrConflict (an update transaction that read the pointer) or ErrTooOld
// (read-only), never returning the bytes of whatever the slot holds since.
// An object that other objects may still point to must go through Free.
func (tx *Tx) Unlink(buf *ObjBuf) error {
	return tx.free(buf, true)
}

// Realloc moves an object into a new one of the given payload size,
// allocated near hint (see Alloc), and returns the new object's writable
// buffer with the old payload copied to its front. The old object is
// unlinked (see Unlink), so the caller must rewrite every pointer to it in
// the same transaction.
func (tx *Tx) Realloc(buf *ObjBuf, size uint32, hint Addr) (*ObjBuf, error) {
	if err := tx.Unlink(buf); err != nil {
		return nil, err
	}
	nb, err := tx.Alloc(size, hint)
	if err != nil {
		return nil, err
	}
	copy(nb.data, buf.data)
	return nb, nil
}

// free is Free, marking the freed object moved when Unlink frees it.
func (tx *Tx) free(buf *ObjBuf, moved bool) error {
	if err := tx.checkWritable(); err != nil {
		return err
	}
	if buf.tx != tx {
		return errors.New("farm: Free on buffer from another transaction")
	}
	if buf.isNew {
		// Allocated in this transaction: never published, release the slot.
		delete(tx.writes, buf.addr)
		tx.releaseSlot(buf.addr)
		buf.freed = true
		return nil
	}
	w, err := tx.OpenForWrite(buf)
	if err != nil {
		return err
	}
	w.freed, w.moved = true, moved
	return nil
}

// releaseSlot returns an unpublished allocation to the primary allocator.
func (tx *Tx) releaseSlot(addr Addr) {
	primary, err := tx.farm.cm.lookup(tx.c, addr.Region())
	if err != nil {
		return
	}
	if r, ok := tx.farm.regionAt(primary, addr.Region()); ok {
		r.mu.Lock()
		r.freeLocked(addr.Offset())
		r.mu.Unlock()
	}
}

// Abort abandons the transaction, releasing any slots allocated by it.
func (tx *Tx) Abort() {
	if tx.status != txActive {
		return
	}
	tx.status = txAborted
	tx.release()
	for addr, w := range tx.writes {
		if w.isNew {
			tx.releaseSlot(addr)
		}
	}
}

// release drops the transaction's snapshot pin, if it holds one.
func (tx *Tx) release() {
	if tx.unpin != nil {
		tx.unpin()
		tx.unpin = nil
	}
}

// RunTransaction is the canonical optimistic retry loop from paper Figure 3:
// run fn inside a fresh transaction, commit, and retry on conflict with
// jittered backoff.
func RunTransaction(c *fabric.Ctx, f *Farm, fn func(tx *Tx) error) error {
	const maxAttempts = 64
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		tx := f.CreateTransaction(c)
		err := fn(tx)
		if err == nil {
			err = tx.Commit()
		} else {
			tx.Abort()
		}
		if err == nil {
			return nil
		}
		if !errors.Is(err, ErrConflict) {
			return err
		}
		lastErr = err
		backoff := time.Duration(attempt+1) * 5 * time.Microsecond
		if f.fab.Config().Mode == fabric.Sim {
			backoff += time.Duration(f.fab.Env().Rand().Int63n(int64(backoff) + 1))
		}
		c.Sleep(backoff)
	}
	return fmt.Errorf("farm: transaction retry budget exhausted: %w", lastErr)
}

// sortedWriteAddrs returns the write set in address order; locking in a
// deterministic global order avoids lock-order livelock between committers.
func (tx *Tx) sortedWriteAddrs() []Addr {
	addrs := make([]Addr, 0, len(tx.writes))
	for a := range tx.writes {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	return addrs
}
