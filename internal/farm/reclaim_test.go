package farm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"a1/internal/fabric"
)

// counterSlot is the slot class of an allocCounter object (8-byte payload
// plus header).
const counterSlot = 64

func addN(t *testing.T, f *Farm, c *fabric.Ctx, p Ptr, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := atomicAddUint64(c, f, p, 1); err != nil {
			t.Fatal(err)
		}
	}
}

func readCounter(tx *Tx, p Ptr) (uint64, error) {
	buf, err := tx.Read(p)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf.Data()), nil
}

// TestReclaimOverwritesWithoutReaders: with no snapshot open, a commit
// frees the version it supersedes, so k overwrites leave the one slot the
// object was allocated in, and no sweep has anything left to collect.
func TestReclaimOverwritesWithoutReaders(t *testing.T) {
	f, c := directFarm(t, 3)
	p := allocCounter(t, f, c, 0)
	addN(t, f, c, p, 20)
	if got := f.UsedBytes(); got != counterSlot {
		t.Errorf("after 20 overwrites UsedBytes = %d, want %d (one slot)", got, counterSlot)
	}
	if n := f.GCVersions(c); n != 0 {
		t.Errorf("sweep after reclaiming commits freed %d slots, want 0", n)
	}
	rtx := f.CreatePinnedReadTransaction(c)
	defer rtx.Abort()
	if v, err := readCounter(rtx, p); err != nil || v != 20 {
		t.Errorf("counter = %d, %v; want 20", v, err)
	}
}

// TestReclaimKeepsTombstonesForSweep: a delete leaves its tombstone head in
// place at commit — a read of the address is ErrNotFound, never ErrBadAddr
// — and the next sweep reclaims it.
func TestReclaimKeepsTombstonesForSweep(t *testing.T) {
	f, c := directFarm(t, 3)
	p := allocCounter(t, f, c, 1)
	addN(t, f, c, p, 3)
	err := RunTransaction(c, f, func(tx *Tx) error {
		buf, err := tx.Read(p)
		if err != nil {
			return err
		}
		return tx.Free(buf)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.UsedBytes(); got != counterSlot {
		t.Errorf("after delete UsedBytes = %d, want the tombstone's %d", got, counterSlot)
	}
	rtx := f.CreatePinnedReadTransaction(c)
	if _, err := rtx.Read(p); !errors.Is(err, ErrNotFound) {
		t.Errorf("read of deleted object: %v, want ErrNotFound", err)
	}
	rtx.Abort()
	if n := f.GCVersions(c); n != 1 || f.UsedBytes() != 0 {
		t.Errorf("sweep freed %d slots leaving %d bytes, want 1 and 0", n, f.UsedBytes())
	}
}

// TestReclaimPinnedReaderThroughCommits: a pinned read transaction reads
// its version through N commits, which keep their version records while it
// lives; the first commit after it ends frees the whole chain.
func TestReclaimPinnedReaderThroughCommits(t *testing.T) {
	const n = 10
	f, c := directFarm(t, 3)
	p := allocCounter(t, f, c, 7)
	rtx := f.CreatePinnedReadTransaction(c)
	for i := 0; i < n; i++ {
		addN(t, f, c, p, 1)
		if v, err := readCounter(rtx, p); err != nil || v != 7 {
			t.Fatalf("pinned read after %d commits = %d, %v; want 7", i+1, v, err)
		}
	}
	if got := f.UsedBytes(); got != (n+1)*counterSlot {
		t.Errorf("with the pin held UsedBytes = %d, want %d (head + %d records)", got, (n+1)*counterSlot, n)
	}
	if f.GCVersions(c) != 0 {
		t.Error("sweep freed versions the pinned reader can see")
	}
	if err := rtx.Commit(); err != nil {
		t.Fatal(err)
	}
	if f.PinnedSnapshots() != 0 {
		t.Fatal("Commit left the read transaction's pin behind")
	}
	addN(t, f, c, p, 1)
	if got := f.UsedBytes(); got != counterSlot {
		t.Errorf("first commit after the unpin left UsedBytes = %d, want %d", got, counterSlot)
	}
}

// TestReclaimUnpinnedReaderUntilSweep: an unpinned read transaction opened
// before the commits still reads its snapshot — commits keep its versions —
// until a GCVersions sweep, which may free them: its reads then fail with
// ErrTooOld, and commits no longer wait for it.
func TestReclaimUnpinnedReaderUntilSweep(t *testing.T) {
	const n = 5
	f, c := directFarm(t, 3)
	p := allocCounter(t, f, c, 3)
	rtx := f.CreateReadTransaction(c)
	addN(t, f, c, p, n)
	if v, err := readCounter(rtx, p); err != nil || v != 3 {
		t.Fatalf("unpinned read before any sweep = %d, %v; want 3", v, err)
	}
	if got := f.UsedBytes(); got != (n+1)*counterSlot {
		t.Errorf("before the sweep UsedBytes = %d, want %d", got, (n+1)*counterSlot)
	}
	if freed := f.GCVersions(c); freed != n {
		t.Errorf("sweep freed %d slots, want %d", freed, n)
	}
	if _, err := readCounter(rtx, p); !errors.Is(err, ErrTooOld) {
		t.Errorf("unpinned read after the sweep: %v, want ErrTooOld", err)
	}
	addN(t, f, c, p, 1)
	if got := f.UsedBytes(); got != counterSlot {
		t.Errorf("commit after the sweep left UsedBytes = %d, want %d", got, counterSlot)
	}
}

// TestReclaimSweepCutsChainsOnBackups is the regression for a sweep that
// freed chain records on every replica but cut the chain only at the
// primary: the backups' heads kept pointing at the freed slots, new objects
// reused them, and after a failover the next sweep followed the stale
// pointer and freed a live object. A pin held through the updates makes
// them keep their version records, so there is a chain to cut.
func TestReclaimSweepCutsChainsOnBackups(t *testing.T) {
	f, c := directFarm(t, 5)
	_, unpin := f.PinCurrent()
	p := allocCounter(t, f, c, 0)
	addN(t, f, c, p, 2)
	unpin()
	if freed := f.GCVersions(c); freed != 2 {
		t.Fatalf("sweep freed %d records, want 2", freed)
	}
	ptrs := []Ptr{p}
	for i := 0; i < 4; i++ {
		ptrs = append(ptrs, allocCounter(t, f, c, uint64(100+i)))
	}
	primary, err := f.PrimaryOf(c, p.Addr)
	if err != nil {
		t.Fatal(err)
	}
	f.KillMachine(c, primary)
	f.GCVersions(c)
	rtx := f.CreatePinnedReadTransaction(f.Fabric().NewCtx(primary+1, nil))
	defer rtx.Abort()
	for i, q := range ptrs {
		want := uint64(2)
		if i > 0 {
			want = uint64(100 + i - 1)
		}
		if v, err := readCounter(rtx, q); err != nil || v != want {
			t.Errorf("counter %d at %v after failover and sweep = %d, %v; want %d", i, q.Addr, v, err, want)
		}
	}
}

// moveObject reallocates the committed object at p into one of size payload
// bytes near it, and returns the new pointer.
func moveObject(t *testing.T, f *Farm, c *fabric.Ctx, p Ptr, size uint32) Ptr {
	t.Helper()
	var q Ptr
	err := RunTransaction(c, f, func(tx *Tx) error {
		buf, err := tx.Read(p)
		if err != nil {
			return err
		}
		nb, err := tx.Realloc(buf, size, p.Addr)
		if err != nil {
			return err
		}
		q = nb.Ptr()
		return nil
	})
	if err != nil {
		t.Fatalf("move %v: %v", p, err)
	}
	return q
}

// movedSlot is the slot class of a counter moved into a 100-byte payload.
const movedSlot = 128

// TestReclaimMoveFreesOldSlot: with no snapshot open, a move's commit frees
// the old slot outright — its address is dead (ErrBadAddr), no tombstone
// waits for a sweep — and the next allocation of that class reuses it.
func TestReclaimMoveFreesOldSlot(t *testing.T) {
	f, c := directFarm(t, 3)
	p := allocCounter(t, f, c, 42)
	q := moveObject(t, f, c, p, 100)
	rtx := f.CreatePinnedReadTransaction(c)
	if _, err := rtx.Read(p); !errors.Is(err, ErrBadAddr) {
		t.Errorf("read of the moved-from address: %v, want ErrBadAddr", err)
	}
	if v, err := readCounter(rtx, q); err != nil || v != 42 {
		t.Errorf("moved object = %d, %v; want 42", v, err)
	}
	rtx.Abort()
	if got := f.UsedBytes(); got != movedSlot {
		t.Errorf("after the move UsedBytes = %d, want %d (the new slot alone)", got, movedSlot)
	}
	if n := f.GCVersions(c); n != 0 {
		t.Errorf("sweep after the move freed %d slots, want 0", n)
	}
	if r := allocCounter(t, f, c, 7); r.Addr != p.Addr {
		t.Errorf("next allocation of the class took %v, want the freed %v", r.Addr, p.Addr)
	}
}

// TestReclaimMovePinnedReaderReadsOldPayload: a snapshot pinned below the
// move still reads the old payload at the old address, through the
// tombstone the commit leaves for it; after the unpin a sweep frees the
// tombstone and its version record.
func TestReclaimMovePinnedReaderReadsOldPayload(t *testing.T) {
	f, c := directFarm(t, 3)
	p := allocCounter(t, f, c, 42)
	rtx := f.CreatePinnedReadTransaction(c)
	q := moveObject(t, f, c, p, 100)
	if v, err := readCounter(rtx, p); err != nil || v != 42 {
		t.Errorf("pinned read of the moved-from address = %d, %v; want 42", v, err)
	}
	if _, err := rtx.Read(q); !errors.Is(err, ErrTooOld) {
		t.Errorf("pinned read of the new address: %v, want ErrTooOld (newer than the snapshot)", err)
	}
	fresh := f.CreatePinnedReadTransaction(c)
	if _, err := fresh.Read(p); !errors.Is(err, ErrNotFound) {
		t.Errorf("current read of the moved-from address: %v, want ErrNotFound (tombstone)", err)
	}
	fresh.Abort()
	if want := uint64(2*counterSlot + movedSlot); f.UsedBytes() != want {
		t.Errorf("with the pin held UsedBytes = %d, want %d (tombstone, record, new slot)", f.UsedBytes(), want)
	}
	if n := f.GCVersions(c); n != 0 {
		t.Errorf("sweep under the pin freed %d slots, want 0", n)
	}
	if err := rtx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := f.GCVersions(c); n != 2 || f.UsedBytes() != movedSlot {
		t.Errorf("sweep after the unpin freed %d slots leaving %d bytes, want 2 and %d", n, f.UsedBytes(), movedSlot)
	}
}

// TestReclaimFreeTombstonesMoveDoesNot: in one transaction, a Free and a
// move. The freed object keeps its tombstone for the sweep (ErrNotFound);
// the moved one leaves none (ErrBadAddr).
func TestReclaimFreeTombstonesMoveDoesNot(t *testing.T) {
	f, c := directFarm(t, 3)
	freed, moved := allocCounter(t, f, c, 1), allocCounter(t, f, c, 2)
	err := RunTransaction(c, f, func(tx *Tx) error {
		a, err := tx.Read(freed)
		if err != nil {
			return err
		}
		b, err := tx.Read(moved)
		if err != nil {
			return err
		}
		if err := tx.Free(a); err != nil {
			return err
		}
		_, err = tx.Realloc(b, 100, moved.Addr)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	rtx := f.CreatePinnedReadTransaction(c)
	if _, err := rtx.Read(freed); !errors.Is(err, ErrNotFound) {
		t.Errorf("read of the freed object: %v, want ErrNotFound", err)
	}
	if _, err := rtx.Read(moved); !errors.Is(err, ErrBadAddr) {
		t.Errorf("read of the moved object: %v, want ErrBadAddr", err)
	}
	rtx.Abort()
	if n := f.GCVersions(c); n != 1 {
		t.Errorf("sweep freed %d slots, want 1 (the tombstone)", n)
	}
}

// TestReclaimUnlinkFreesSlot: Unlink frees as a move does. With no
// snapshot open the commit frees the slot outright (ErrBadAddr, nothing
// for a sweep); a snapshot pinned below the commit keeps reading the
// object through a tombstone until it unpins and a sweep runs.
func TestReclaimUnlinkFreesSlot(t *testing.T) {
	f, c := directFarm(t, 3)
	unlink := func(p Ptr) {
		t.Helper()
		err := RunTransaction(c, f, func(tx *Tx) error {
			buf, err := tx.Read(p)
			if err != nil {
				return err
			}
			return tx.Unlink(buf)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	p := allocCounter(t, f, c, 1)
	unlink(p)
	rtx := f.CreatePinnedReadTransaction(c)
	if _, err := rtx.Read(p); !errors.Is(err, ErrBadAddr) {
		t.Errorf("read of the unlinked object: %v, want ErrBadAddr", err)
	}
	rtx.Abort()
	if n := f.GCVersions(c); n != 0 || f.UsedBytes() != 0 {
		t.Errorf("sweep freed %d slots leaving %d bytes, want 0 and 0", n, f.UsedBytes())
	}

	q := allocCounter(t, f, c, 2)
	rtx = f.CreatePinnedReadTransaction(c)
	unlink(q)
	if v, err := readCounter(rtx, q); err != nil || v != 2 {
		t.Errorf("pinned read of the unlinked object = %d, %v; want 2", v, err)
	}
	if err := rtx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := f.GCVersions(c); n != 2 || f.UsedBytes() != 0 {
		t.Errorf("sweep after the unpin freed %d slots leaving %d bytes, want 2 (tombstone, record) and 0", n, f.UsedBytes())
	}
}

// moveHeld moves the counter at p, as moveObject does, and rewrites the
// counter at holder, its one pointer, to the new address in the same
// transaction.
func moveHeld(t *testing.T, f *Farm, c *fabric.Ctx, p, holder Ptr) {
	t.Helper()
	err := RunTransaction(c, f, func(tx *Tx) error {
		buf, err := tx.Read(p)
		if err != nil {
			return err
		}
		nb, err := tx.Realloc(buf, 100, p.Addr)
		if err != nil {
			return err
		}
		h, err := tx.Read(holder)
		if err != nil {
			return err
		}
		w, err := tx.OpenForWrite(h)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(w.Data(), uint64(nb.Addr()))
		return nil
	})
	if err != nil {
		t.Fatalf("move %v: %v", p, err)
	}
}

// TestReclaimMoveStaleReaders: a transaction that followed a pointer
// before the move committed finds the old slot gone. An update transaction
// gets ErrConflict, so RunTransaction retries it, rather than ErrBadAddr;
// an unpinned snapshot past a sweep gets ErrTooOld, as for any version a
// sweep reclaimed.
func TestReclaimMoveStaleReaders(t *testing.T) {
	f, c := directFarm(t, 3)
	p := allocCounter(t, f, c, 42)
	holder := allocCounter(t, f, c, uint64(p.Addr)) // the object's one pointer
	stale := f.CreateTransaction(c)
	defer stale.Abort()
	if _, err := readCounter(stale, holder); err != nil {
		t.Fatal(err)
	}
	moveHeld(t, f, c, p, holder)
	if _, err := stale.Read(p); !errors.Is(err, ErrConflict) {
		t.Errorf("stale update transaction's read of the moved-from address: %v, want ErrConflict", err)
	}

	q := allocCounter(t, f, c, 7)
	unpinned := f.CreateReadTransaction(c)
	moveObject(t, f, c, q, 100)
	if v, err := readCounter(unpinned, q); err != nil || v != 7 {
		t.Errorf("unpinned read before the sweep = %d, %v; want 7", v, err)
	}
	f.GCVersions(c)
	if _, err := unpinned.Read(q); !errors.Is(err, ErrTooOld) {
		t.Errorf("unpinned read after the sweep: %v, want ErrTooOld", err)
	}
}

// TestReclaimMoveMirroredToBackups: the frees of moves reach every backup,
// so after the primary dies the promoted backup holds the same bytes.
func TestReclaimMoveMirroredToBackups(t *testing.T) {
	f, c := directFarm(t, 5)
	var ps []Ptr
	for i := 0; i < 8; i++ {
		ps = append(ps, allocCounter(t, f, c, uint64(i)))
	}
	for i := 0; i < len(ps); i += 2 {
		ps[i] = moveObject(t, f, c, ps[i], 100)
	}
	id := ps[0].Addr.Region()
	reps := f.cm.replicasOf(id)
	old, _ := f.regionAt(reps[0], id)
	used := old.usedBytes()
	for _, b := range reps[1:] {
		if br, ok := f.regionAt(b, id); !ok || !sameAllocator(br.alloc, old.alloc) {
			t.Errorf("backup on %v: allocator differs from the primary's", b)
		}
	}
	f.KillMachine(c, reps[0])
	np := f.cm.replicasOf(id)[0]
	nr, ok := f.regionAt(np, id)
	if np == reps[0] || !ok {
		t.Fatalf("region %d not failed over (primary %v)", id, np)
	}
	if got := nr.usedBytes(); got != used {
		t.Errorf("promoted backup's usedBytes = %d, old primary's %d", got, used)
	}
	rtx := f.CreatePinnedReadTransaction(f.Fabric().NewCtx(np, nil))
	defer rtx.Abort()
	for i, p := range ps {
		if v, err := readCounter(rtx, p); err != nil || v != uint64(i) {
			t.Errorf("counter %d after failover = %d, %v", i, v, err)
		}
	}
}

// TestReclaimMoveStaleReaderSkipsReusedSlot: the slot a move frees at once
// is reused at once, here by a version record of another object and then
// by an allocation not yet committed. An update transaction that read the
// pointer before the move must get ErrConflict from the old address, never
// the record's bytes (an older version of another object, visible at its
// snapshot) and never a wait on the uncommitted slot.
func TestReclaimMoveStaleReaderSkipsReusedSlot(t *testing.T) {
	f, c := directFarm(t, 3)
	p := allocCounter(t, f, c, 42)
	other := allocCounter(t, f, c, 7)
	holder := allocCounter(t, f, c, uint64(p.Addr))
	stale := f.CreateTransaction(c)
	defer stale.Abort()
	if _, err := readCounter(stale, holder); err != nil {
		t.Fatal(err)
	}
	moveHeld(t, f, c, p, holder)
	pin := f.CreatePinnedReadTransaction(c)
	defer pin.Abort()
	addN(t, f, c, other, 1) // keeps other's prior version, 7, as a record
	r, _ := f.regionAt(f.cm.replicasOf(p.Addr.Region())[0], p.Addr.Region())
	r.mu.RLock()
	rec := r.older(other.Addr.Offset()).Addr
	r.mu.RUnlock()
	if rec != p.Addr {
		t.Fatalf("other's version record went to %v, not to the freed %v", rec, p.Addr)
	}
	if v, err := readCounter(stale, p); !errors.Is(err, ErrConflict) {
		t.Errorf("stale read of a slot now holding a record = %d, %v; want ErrConflict", v, err)
	}

	p2 := allocCounter(t, f, c, 43)
	holder2 := allocCounter(t, f, c, uint64(p2.Addr))
	pin.Abort()
	f.GCVersions(c) // frees other's record; p2's move below frees at once
	stale2 := f.CreateTransaction(c)
	defer stale2.Abort()
	if _, err := readCounter(stale2, holder2); err != nil {
		t.Fatal(err)
	}
	moveHeld(t, f, c, p2, holder2)
	inflight := f.CreateTransaction(c)
	defer inflight.Abort()
	nb, err := inflight.Alloc(8, NilAddr)
	if err != nil {
		t.Fatal(err)
	}
	if nb.Addr() != p2.Addr {
		t.Fatalf("allocation took %v, not the freed %v", nb.Addr(), p2.Addr)
	}
	if v, err := readCounter(stale2, p2); !errors.Is(err, ErrConflict) {
		t.Errorf("stale read of an uncommitted allocation = %d, %v; want ErrConflict", v, err)
	}
}

// TestReclaimSweepSparesUncommittedAlloc: a sweep that runs while an
// allocation in a reused slot is still uncommitted leaves the slot alone,
// whatever word its last occupant, here a swept tombstone, left in it.
func TestReclaimSweepSparesUncommittedAlloc(t *testing.T) {
	f, c := directFarm(t, 3)
	p := allocCounter(t, f, c, 1)
	err := RunTransaction(c, f, func(tx *Tx) error {
		buf, err := tx.Read(p)
		if err != nil {
			return err
		}
		return tx.Free(buf)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := f.GCVersions(c); n != 1 {
		t.Fatalf("sweep freed %d slots, want 1 (the tombstone)", n)
	}
	tx := f.CreateTransaction(c)
	nb, err := tx.Alloc(8, NilAddr)
	if err != nil {
		t.Fatal(err)
	}
	if nb.Addr() != p.Addr {
		t.Fatalf("allocation took %v, not the freed %v", nb.Addr(), p.Addr)
	}
	binary.LittleEndian.PutUint64(nb.Data(), 9)
	if n := f.GCVersions(c); n != 0 {
		t.Errorf("sweep during the allocating transaction freed %d slots, want 0", n)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := f.UsedBytes(); got != counterSlot {
		t.Errorf("UsedBytes = %d, want %d (the new object)", got, counterSlot)
	}
	rtx := f.CreatePinnedReadTransaction(c)
	defer rtx.Abort()
	if v, err := readCounter(rtx, nb.Ptr()); err != nil || v != 9 {
		t.Errorf("new object = %d, %v; want 9", v, err)
	}
}

// TestReclaimRandomHistory holds the one retention rule — a version lives
// only while a snapshot may read it — over seeded random histories of
// overwrites, deletes, moves, unlinks, pins, unpins and sweeps on three
// machines with small regions. After every step each pinned reader still
// reads what it saw at its snapshot, every backup's allocator equals its
// primary's (live slots and free lists), and a commit made with no
// snapshot pinned leaves the object's head without a version chain; once
// every pin is released and a last sweep has run, only the live heads'
// slots remain.
func TestReclaimRandomHistory(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { reclaimHistory(t, seed, 400) })
	}
}

// histObj is a live object of a random history: its pointer and the value
// its payload encodes.
type histObj struct {
	p   Ptr
	val uint64
}

// histPin is a pinned reader and, by address, the payload of every object
// live at its snapshot.
type histPin struct {
	tx   *Tx
	want map[Addr][]byte
}

// histPayload is the n-byte payload of an object holding val (n >= 8): a
// read of another version, or of a slot reused since, shows as different
// bytes.
func histPayload(val uint64, n uint32) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(val*31 + uint64(i))
	}
	binary.LittleEndian.PutUint64(b, val)
	return b
}

func reclaimHistory(t *testing.T, seed int64, steps int) {
	fab := fabric.New(fabric.DefaultConfig(3, fabric.Direct), nil)
	f := Open(fab, Config{RegionSize: 256 << 10, Replicas: 3})
	c := fab.NewCtx(0, nil)
	rng := rand.New(rand.NewSource(seed))
	var objs []histObj
	var pins []histPin
	defer func() {
		for _, pn := range pins {
			pn.tx.Abort()
		}
	}()
	val := uint64(0)
	step, what := 0, ""
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d step %d (%s): %s", seed, step, what, fmt.Sprintf(format, args...))
	}
	// commit runs fn as one transaction on object i (or on none, i < 0).
	commit := func(i int, fn func(tx *Tx, buf *ObjBuf) error) {
		t.Helper()
		err := RunTransaction(c, f, func(tx *Tx) error {
			if i < 0 {
				return fn(tx, nil)
			}
			buf, err := tx.Read(objs[i].p)
			if err != nil {
				return err
			}
			return fn(tx, buf)
		})
		if err != nil {
			fail("%v", err)
		}
	}
	// noChain checks the head of a commit made with no snapshot pinned.
	noChain := func(a Addr) {
		if len(pins) > 0 {
			return
		}
		r, ok := f.regionAt(f.cm.replicasOf(a.Region())[0], a.Region())
		if !ok {
			fail("region of %v has no primary", a)
		}
		r.mu.RLock()
		older := r.older(a.Offset())
		r.mu.RUnlock()
		if !older.IsNil() {
			fail("commit with no snapshot pinned left %v a chain at %v", a, older)
		}
	}
	for step = 0; step < steps; step++ {
		val++
		size := 8 + uint32(rng.Intn(120))
		i := -1
		if len(objs) > 0 {
			i = rng.Intn(len(objs))
		}
		switch op := rng.Intn(100); {
		case i < 0 || op < 20 && len(objs) < 16:
			what = "create"
			m, p := fabric.MachineID(rng.Intn(3)), NilPtr
			commit(-1, func(tx *Tx, _ *ObjBuf) error {
				buf, err := tx.AllocOn(m, size)
				if err != nil {
					return err
				}
				copy(buf.Data(), histPayload(val, size))
				p = buf.Ptr()
				return nil
			})
			objs = append(objs, histObj{p: p, val: val})
		case op < 50:
			what = "overwrite"
			commit(i, func(tx *Tx, buf *ObjBuf) error {
				w, err := tx.OpenForWrite(buf)
				if err != nil {
					return err
				}
				copy(w.Data(), histPayload(val, objs[i].p.Size))
				return nil
			})
			objs[i].val = val
			noChain(objs[i].p.Addr)
		case op < 56:
			what = "free"
			commit(i, func(tx *Tx, buf *ObjBuf) error { return tx.Free(buf) })
			noChain(objs[i].p.Addr)
			objs = slices.Delete(objs, i, i+1)
		case op < 64:
			what = "realloc"
			p := NilPtr
			commit(i, func(tx *Tx, buf *ObjBuf) error {
				nb, err := tx.Realloc(buf, size, buf.Addr())
				if err != nil {
					return err
				}
				copy(nb.Data(), histPayload(val, size))
				p = nb.Ptr()
				return nil
			})
			objs[i] = histObj{p: p, val: val}
		case op < 70:
			what = "unlink"
			commit(i, func(tx *Tx, buf *ObjBuf) error { return tx.Unlink(buf) })
			objs = slices.Delete(objs, i, i+1)
		case op < 80 && len(pins) < 3:
			what = "pin"
			pn := histPin{tx: f.CreatePinnedReadTransaction(c), want: make(map[Addr][]byte)}
			for _, o := range objs {
				pn.want[o.p.Addr] = histPayload(o.val, o.p.Size)
			}
			pins = append(pins, pn)
		case op < 90 && len(pins) > 0:
			what = "unpin"
			j := rng.Intn(len(pins))
			pins[j].tx.Abort()
			pins = slices.Delete(pins, j, j+1)
		default:
			what = "sweep"
			f.GCVersions(c)
		}

		for _, pn := range pins {
			for a, want := range pn.want {
				buf, err := pn.tx.ReadSized(a, uint32(len(want)))
				if err != nil {
					fail("pinned reader at %d: read %v: %v", pn.tx.ReadTs(), a, err)
				}
				if !bytes.Equal(buf.Data(), want) {
					fail("pinned reader at %d: %v holds value %d, want %d", pn.tx.ReadTs(), a,
						binary.LittleEndian.Uint64(buf.Data()), binary.LittleEndian.Uint64(want))
				}
			}
		}
		for _, id := range f.cm.regionIDs() {
			reps := f.cm.replicasOf(id)
			pr, _ := f.regionAt(reps[0], id)
			for _, b := range reps[1:] {
				if br, ok := f.regionAt(b, id); !ok || !sameAllocator(br.alloc, pr.alloc) {
					fail("region %d: backup on %v holds other slots than the primary", id, b)
				}
			}
		}
	}
	step, what = steps, "final sweep"
	for _, pn := range pins {
		pn.tx.Abort()
	}
	pins = nil
	f.GCVersions(c)
	var want uint64
	for _, o := range objs {
		class, _ := classFor(o.p.Size + hdrBytes)
		want += uint64(class)
	}
	if got := f.UsedBytes(); got != want {
		fail("UsedBytes = %d, want %d (the slots of %d live heads)", got, want, len(objs))
	}
}
