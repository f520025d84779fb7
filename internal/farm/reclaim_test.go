package farm

import (
	"encoding/binary"
	"errors"
	"testing"

	"a1/internal/fabric"
)

// counterSlot is the slot class of an allocCounter object (8-byte payload
// plus header).
const counterSlot = 64

func addN(t *testing.T, f *Farm, c *fabric.Ctx, p Ptr, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := AtomicAddUint64(c, f, p, 1); err != nil {
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
