package farm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"a1/internal/fabric"
	"a1/internal/sim"
)

// directFarm builds a Direct-mode cluster for concurrency-oriented tests.
func directFarm(t testing.TB, machines int) (*Farm, *fabric.Ctx) {
	t.Helper()
	fab := fabric.New(fabric.DefaultConfig(machines, fabric.Direct), nil)
	f := Open(fab, Config{RegionSize: 4 << 20, Replicas: 3})
	return f, fab.NewCtx(0, nil)
}

// simFarmRun runs fn inside a Sim-mode cluster.
func simFarmRun(t *testing.T, machines int, fn func(f *Farm, c *fabric.Ctx)) {
	t.Helper()
	env := sim.NewEnv(11)
	fab := fabric.New(fabric.DefaultConfig(machines, fabric.Sim), env)
	f := Open(fab, Config{RegionSize: 4 << 20, Replicas: 3})
	env.Run(func(p *sim.Proc) {
		fn(f, fab.NewCtx(0, p))
	})
}

// atomicAddUint64 is a transaction that atomically increments a
// 64-bit counter stored in an object (the paper's Figure 3 example).
func atomicAddUint64(c *fabric.Ctx, f *Farm, p Ptr, delta uint64) (uint64, error) {
	var result uint64
	err := RunTransaction(c, f, func(tx *Tx) error {
		buf, err := tx.Read(p)
		if err != nil {
			return err
		}
		v := binary.LittleEndian.Uint64(buf.Data())
		v += delta
		w, err := tx.OpenForWrite(buf)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(w.Data(), v)
		result = v
		return nil
	})
	return result, err
}

// allocCounter creates a committed uint64 counter object and returns its
// pointer.
func allocCounter(t *testing.T, f *Farm, c *fabric.Ctx, initial uint64) Ptr {
	t.Helper()
	var p Ptr
	err := RunTransaction(c, f, func(tx *Tx) error {
		buf, err := tx.Alloc(8, NilAddr)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(buf.Data(), initial)
		p = buf.Ptr()
		return nil
	})
	if err != nil {
		t.Fatalf("allocCounter: %v", err)
	}
	return p
}

func TestAllocatorClassesAndReuse(t *testing.T) {
	a := newAllocator(1 << 20)
	off1, err := a.alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.slotSize(off1); got != 128 {
		t.Errorf("100B allocation got class %d, want 128", got)
	}
	a.free(off1)
	off2, err := a.alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	if off2 != off1 {
		t.Errorf("freed slot not reused: %d vs %d", off2, off1)
	}
	if _, err := a.alloc(2 << 20); !errors.Is(err, ErrTooLarge) {
		t.Errorf("2MB alloc: err = %v, want ErrTooLarge", err)
	}
}

func TestAllocatorRegionFull(t *testing.T) {
	a := newAllocator(1024)
	if _, err := a.alloc(512); err != nil {
		t.Fatal(err)
	}
	if _, err := a.alloc(512); !errors.Is(err, ErrRegionFull) {
		t.Errorf("err = %v, want ErrRegionFull", err)
	}
}

func TestSizeClassesSorted(t *testing.T) {
	for i := 1; i < len(sizeClasses); i++ {
		if sizeClasses[i] <= sizeClasses[i-1] {
			t.Fatalf("size classes not strictly ascending at %d: %v", i, sizeClasses)
		}
	}
	if sizeClasses[0] != 64 || sizeClasses[len(sizeClasses)-1] != 1<<20 {
		t.Errorf("class bounds = %d..%d, want 64..1MB", sizeClasses[0], sizeClasses[len(sizeClasses)-1])
	}
}

func TestTxAllocReadWriteRoundTrip(t *testing.T) {
	f, c := directFarm(t, 5)
	var p Ptr
	err := RunTransaction(c, f, func(tx *Tx) error {
		buf, err := tx.Alloc(64, NilAddr)
		if err != nil {
			return err
		}
		copy(buf.Data(), "hello farm")
		p = buf.Ptr()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rtx := f.CreateReadTransaction(c)
	buf, err := rtx.Read(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Data(), []byte("hello farm")) {
		t.Errorf("read back %q", buf.Data()[:16])
	}
}

func TestAtomicCounterConcurrent(t *testing.T) {
	f, c := directFarm(t, 5)
	p := allocCounter(t, f, c, 0)
	const workers, incs = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wc := f.Fabric().NewCtx(fabric.MachineID(w%f.Fabric().Machines()), nil)
			for i := 0; i < incs; i++ {
				if _, err := atomicAddUint64(wc, f, p, 1); err != nil {
					t.Errorf("increment: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	rtx := f.CreateReadTransaction(c)
	buf, err := rtx.Read(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(buf.Data()); got != workers*incs {
		t.Errorf("counter = %d, want %d", got, workers*incs)
	}
}

func TestBankTransferInvariant(t *testing.T) {
	// Total balance must be conserved under concurrent conflicting
	// transfers — the classic serializability smoke test.
	f, c := directFarm(t, 5)
	const accounts = 4
	const total = 1000
	ptrs := make([]Ptr, accounts)
	for i := range ptrs {
		ptrs[i] = allocCounter(t, f, c, total/accounts)
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wc := f.Fabric().NewCtx(fabric.MachineID(w%f.Fabric().Machines()), nil)
			for i := 0; i < 30; i++ {
				from, to := (w+i)%accounts, (w+i+1)%accounts
				err := RunTransaction(wc, f, func(tx *Tx) error {
					fb, err := tx.Read(ptrs[from])
					if err != nil {
						return err
					}
					tb, err := tx.Read(ptrs[to])
					if err != nil {
						return err
					}
					fv := binary.LittleEndian.Uint64(fb.Data())
					tv := binary.LittleEndian.Uint64(tb.Data())
					if fv == 0 {
						return nil
					}
					fw, err := tx.OpenForWrite(fb)
					if err != nil {
						return err
					}
					tw, err := tx.OpenForWrite(tb)
					if err != nil {
						return err
					}
					binary.LittleEndian.PutUint64(fw.Data(), fv-1)
					binary.LittleEndian.PutUint64(tw.Data(), tv+1)
					return nil
				})
				if err != nil {
					t.Errorf("transfer: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	rtx := f.CreateReadTransaction(c)
	var sum uint64
	for _, p := range ptrs {
		buf, err := rtx.Read(p)
		if err != nil {
			t.Fatal(err)
		}
		sum += binary.LittleEndian.Uint64(buf.Data())
	}
	if sum != total {
		t.Errorf("total balance = %d, want %d", sum, total)
	}
}

func TestReadYourWritesAndRepeatableReads(t *testing.T) {
	f, c := directFarm(t, 5)
	p := allocCounter(t, f, c, 7)
	tx := f.CreateTransaction(c)
	buf, err := tx.Read(p)
	if err != nil {
		t.Fatal(err)
	}
	w, err := tx.OpenForWrite(buf)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(w.Data(), 42)
	again, err := tx.Read(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(again.Data()); got != 42 {
		t.Errorf("read-your-writes got %d, want 42", got)
	}
	tx.Abort()
	// After abort the committed value is unchanged.
	rtx := f.CreateReadTransaction(c)
	buf2, _ := rtx.Read(p)
	if got := binary.LittleEndian.Uint64(buf2.Data()); got != 7 {
		t.Errorf("after abort value = %d, want 7", got)
	}
}

func TestWriteConflictAborts(t *testing.T) {
	f, c := directFarm(t, 5)
	p := allocCounter(t, f, c, 0)
	tx1 := f.CreateTransaction(c)
	tx2 := f.CreateTransaction(c)
	b1, err := tx1.Read(p)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := tx2.Read(p)
	if err != nil {
		t.Fatal(err)
	}
	w1, _ := tx1.OpenForWrite(b1)
	binary.LittleEndian.PutUint64(w1.Data(), 1)
	w2, _ := tx2.OpenForWrite(b2)
	binary.LittleEndian.PutUint64(w2.Data(), 2)
	if err := tx1.Commit(); err != nil {
		t.Fatalf("tx1 commit: %v", err)
	}
	if err := tx2.Commit(); !errors.Is(err, ErrConflict) {
		t.Errorf("tx2 commit err = %v, want ErrConflict", err)
	}
}

func TestReadValidationConflict(t *testing.T) {
	// tx1 reads A and writes B; a concurrent commit changing A must abort
	// tx1 at validation even though A was never written by tx1.
	f, c := directFarm(t, 5)
	a := allocCounter(t, f, c, 0)
	b := allocCounter(t, f, c, 0)
	tx1 := f.CreateTransaction(c)
	if _, err := tx1.Read(a); err != nil {
		t.Fatal(err)
	}
	bb, err := tx1.Read(b)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := tx1.OpenForWrite(bb)
	binary.LittleEndian.PutUint64(w.Data(), 9)
	if _, err := atomicAddUint64(c, f, a, 1); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); !errors.Is(err, ErrConflict) {
		t.Errorf("commit err = %v, want ErrConflict (read validation)", err)
	}
}

func TestSnapshotIsolationForReadOnly(t *testing.T) {
	f, c := directFarm(t, 5)
	p := allocCounter(t, f, c, 10)
	rtx := f.CreateReadTransaction(c)
	// A later update must be invisible to the earlier snapshot.
	if _, err := atomicAddUint64(c, f, p, 5); err != nil {
		t.Fatal(err)
	}
	buf, err := rtx.Read(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(buf.Data()); got != 10 {
		t.Errorf("snapshot read = %d, want 10 (pre-update)", got)
	}
	// A fresh snapshot sees the update.
	rtx2 := f.CreateReadTransaction(c)
	buf2, _ := rtx2.Read(p)
	if got := binary.LittleEndian.Uint64(buf2.Data()); got != 15 {
		t.Errorf("fresh snapshot read = %d, want 15", got)
	}
}

func TestOpacityPaperScenario(t *testing.T) {
	// Paper §5.2: T1 reads A (a pointer to B); T2 deletes B and commits;
	// T1 then dereferences the pointer. With FaRMv1 T1 would read freed
	// memory; with multi-versioning T1 must either see B's old value
	// (read-only) or abort cleanly (update) — never garbage.
	f, c := directFarm(t, 5)
	var aPtr, bPtr Ptr
	err := RunTransaction(c, f, func(tx *Tx) error {
		bBuf, err := tx.Alloc(16, NilAddr)
		if err != nil {
			return err
		}
		copy(bBuf.Data(), "value-of-B")
		bPtr = bBuf.Ptr()
		aBuf, err := tx.Alloc(PtrBytes, NilAddr)
		if err != nil {
			return err
		}
		copy(aBuf.Data(), AppendPtr(nil, bPtr))
		aPtr = aBuf.Ptr()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Read-only T1.
	t1 := f.CreateReadTransaction(c)
	aBuf, err := t1.Read(aPtr)
	if err != nil {
		t.Fatal(err)
	}
	ptrToB := DecodePtr(aBuf.Data())
	// T2 deletes B and commits.
	err = RunTransaction(c, f, func(tx *Tx) error {
		bBuf, err := tx.Read(bPtr)
		if err != nil {
			return err
		}
		return tx.Free(bBuf)
	})
	if err != nil {
		t.Fatal(err)
	}
	// T1 dereferences: must see the old committed value, not garbage.
	bBuf, err := t1.Read(ptrToB)
	if err != nil {
		t.Fatalf("read-only T1 read of deleted B: %v", err)
	}
	if !bytes.HasPrefix(bBuf.Data(), []byte("value-of-B")) {
		t.Errorf("T1 read garbage: %q", bBuf.Data())
	}

	// Update-transaction T1': must abort cleanly, never observe garbage.
	t1u := f.CreateTransaction(c)
	if _, err := t1u.Read(aPtr); err != nil {
		t.Fatal(err)
	}
	// Delete-and-recreate cycle bumps B's version beyond t1u's snapshot.
	err = RunTransaction(c, f, func(tx *Tx) error {
		buf, err := tx.Alloc(16, bPtr.Addr)
		if err != nil {
			return err
		}
		copy(buf.Data(), "unrelated")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_, rerr := t1u.Read(ptrToB)
	if rerr == nil {
		t.Fatal("update tx read of deleted object succeeded; opacity would allow garbage")
	}
	if !errors.Is(rerr, ErrConflict) && !errors.Is(rerr, ErrNotFound) {
		t.Errorf("err = %v, want conflict or not-found", rerr)
	}
}

func TestFreeTombstoneAndGC(t *testing.T) {
	f, c := directFarm(t, 5)
	p := allocCounter(t, f, c, 3)
	ts, unpin := f.PinCurrent()
	snapshot := f.CreateReadTransactionAt(c, ts)

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
	// New snapshots observe the deletion.
	rtx := f.CreateReadTransaction(c)
	if _, err := rtx.Read(p); !errors.Is(err, ErrNotFound) {
		t.Errorf("read of freed object: err = %v, want ErrNotFound", err)
	}
	// The pinned old snapshot still reads the prior version.
	buf, err := snapshot.Read(p)
	if err != nil {
		t.Fatalf("pinned snapshot read: %v", err)
	}
	if got := binary.LittleEndian.Uint64(buf.Data()); got != 3 {
		t.Errorf("pinned snapshot value = %d, want 3", got)
	}
	// GC with the pin held must not reclaim the old version.
	f.GCVersions(c)
	snapshot2 := f.CreateReadTransactionAt(c, snapshot.ReadTs())
	if _, err := snapshot2.Read(p); err != nil {
		t.Fatalf("pinned version GCed: %v", err)
	}
	// After unpinning, GC reclaims tombstone and chain.
	unpin()
	freed := f.GCVersions(c)
	if freed == 0 {
		t.Error("GC freed nothing after unpin")
	}
	rtx3 := f.CreateReadTransaction(c)
	if _, err := rtx3.Read(p); err == nil {
		t.Error("read of fully GCed object succeeded")
	}
}

func TestLocalityHint(t *testing.T) {
	f, c := directFarm(t, 5)
	var first, second Ptr
	err := RunTransaction(c, f, func(tx *Tx) error {
		b1, err := tx.Alloc(64, NilAddr)
		if err != nil {
			return err
		}
		first = b1.Ptr()
		b2, err := tx.Alloc(64, first.Addr)
		if err != nil {
			return err
		}
		second = b2.Ptr()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if first.Addr.Region() != second.Addr.Region() {
		t.Errorf("hinted allocation landed in region %d, want %d",
			second.Addr.Region(), first.Addr.Region())
	}
}

func TestCommitTimestampsStrictlyOrdered(t *testing.T) {
	f, _ := directFarm(t, 5)
	clock := f.Clock()
	prev := clock.Current()
	for i := 0; i < 1000; i++ {
		ts := clock.Next()
		if ts <= prev {
			t.Fatalf("timestamp %d not > previous %d", ts, prev)
		}
		prev = ts
	}
	cur := clock.Current()
	if cur < prev {
		t.Errorf("Current() = %d went below issued %d", cur, prev)
	}
}

func TestRunTransactionRetriesConflicts(t *testing.T) {
	f, c := directFarm(t, 5)
	p := allocCounter(t, f, c, 0)
	attempts := 0
	err := RunTransaction(c, f, func(tx *Tx) error {
		attempts++
		buf, err := tx.Read(p)
		if err != nil {
			return err
		}
		if attempts == 1 {
			// Sabotage: concurrent commit invalidates our read.
			if _, err := atomicAddUint64(c, f, p, 1); err != nil {
				return err
			}
		}
		w, err := tx.OpenForWrite(buf)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(w.Data(), binary.LittleEndian.Uint64(buf.Data())+10)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts < 2 {
		t.Errorf("attempts = %d, want >= 2 (one conflict retry)", attempts)
	}
}

func TestResizeWithinSlot(t *testing.T) {
	f, c := directFarm(t, 5)
	var p Ptr
	err := RunTransaction(c, f, func(tx *Tx) error {
		buf, err := tx.Alloc(50, NilAddr)
		if err != nil {
			return err
		}
		if err := buf.Resize(90); err != nil { // 50+24 -> class 96: cap 72... grow may fail
			// Slot capacity is class-dependent; just require a coherent error.
			if !errors.Is(err, ErrTooLarge) {
				return err
			}
		}
		p = buf.Ptr()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.IsNil() {
		t.Fatal("nil ptr")
	}
}

func TestMachineFailurePromotesBackup(t *testing.T) {
	simFarmRun(t, 9, func(f *Farm, c *fabric.Ctx) {
		p := Ptr{}
		err := RunTransaction(c, f, func(tx *Tx) error {
			buf, err := tx.Alloc(32, NilAddr)
			if err != nil {
				return err
			}
			copy(buf.Data(), "durable-data")
			p = buf.Ptr()
			return nil
		})
		if err != nil {
			t.Fatalf("setup: %v", err)
		}
		primary, err := f.PrimaryOf(c, p.Addr)
		if err != nil {
			t.Fatal(err)
		}
		f.KillMachine(c, primary)
		newPrimary, err := f.PrimaryOf(c, p.Addr)
		if err != nil {
			t.Fatalf("lookup after failover: %v", err)
		}
		if newPrimary == primary {
			t.Fatalf("primary not changed after failure")
		}
		rtx := f.CreateReadTransaction(c)
		buf, err := rtx.Read(p)
		if err != nil {
			t.Fatalf("read after failover: %v", err)
		}
		if !bytes.HasPrefix(buf.Data(), []byte("durable-data")) {
			t.Errorf("data lost in failover: %q", buf.Data())
		}
		// Replication factor restored?
		if got := len(f.CM().replicasOf(p.Addr.Region())); got != 3 {
			t.Errorf("replicas after recovery = %d, want 3", got)
		}
	})
}

func TestWritesSurviveFailoverOfPrimary(t *testing.T) {
	simFarmRun(t, 9, func(f *Farm, c *fabric.Ctx) {
		p := Ptr{}
		err := RunTransaction(c, f, func(tx *Tx) error {
			buf, err := tx.Alloc(8, NilAddr)
			if err != nil {
				return err
			}
			p = buf.Ptr()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if _, err := atomicAddUint64(c, f, p, 1); err != nil {
				t.Fatal(err)
			}
		}
		primary, _ := f.PrimaryOf(c, p.Addr)
		f.KillMachine(c, primary)
		v, err := atomicAddUint64(c, f, p, 1)
		if err != nil {
			t.Fatalf("increment after failover: %v", err)
		}
		if v != 11 {
			t.Errorf("counter after failover = %d, want 11", v)
		}
	})
}

func TestFastRestartRecoversLostRegion(t *testing.T) {
	simFarmRun(t, 9, func(f *Farm, c *fabric.Ctx) {
		p := Ptr{}
		err := RunTransaction(c, f, func(tx *Tx) error {
			buf, err := tx.Alloc(32, NilAddr)
			if err != nil {
				return err
			}
			copy(buf.Data(), "pyco-protected")
			p = buf.Ptr()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		replicas := f.CM().replicasOf(p.Addr.Region())
		if len(replicas) != 3 {
			t.Fatalf("replicas = %d, want 3", len(replicas))
		}
		// Software outage takes down all three replica hosts at once; the
		// region is lost and the system pauses (paper §5.3).
		for _, m := range replicas {
			f.CrashProcess(c, m)
		}
		done := make(chan error, 1)
		w := c.Go("blocked-reader", func(rc *fabric.Ctx) {
			rtx := f.CreateReadTransaction(rc)
			buf, err := rtx.Read(p)
			if err != nil {
				done <- err
				return
			}
			if !bytes.HasPrefix(buf.Data(), []byte("pyco-protected")) {
				done <- fmt.Errorf("bad data %q", buf.Data())
				return
			}
			done <- nil
		})
		// Fast restart one host after 50ms of (virtual) downtime.
		c.Sleep(50 * time.Millisecond)
		f.RestartProcess(c, replicas[0])
		w.Wait(c)
		if err := <-done; err != nil {
			t.Fatalf("read after fast restart: %v", err)
		}
	})
}

// TestDirectorySnapshot: a Directory answers as of its snapshot — the
// promoted primary only for a snapshot taken after the failover — and a
// region it holds as lost waits out the fast restart, as PrimaryOf does.
func TestDirectorySnapshot(t *testing.T) {
	simFarmRun(t, 9, func(f *Farm, c *fabric.Ctx) {
		p := allocCounter(t, f, c, 0)
		primary, err := f.PrimaryOf(c, p.Addr)
		if err != nil {
			t.Fatal(err)
		}
		before := f.Directory()
		f.KillMachine(c, primary)
		promoted, err := f.PrimaryOf(c, p.Addr)
		if err != nil || promoted == primary {
			t.Fatalf("PrimaryOf after failover = %v, %v", promoted, err)
		}
		if m, err := before.PrimaryOf(c, p.Addr); m != primary || err != nil {
			t.Errorf("snapshot before the failover = %v, %v; want %v", m, err, primary)
		}
		if m, err := f.Directory().PrimaryOf(c, p.Addr); m != promoted || err != nil {
			t.Errorf("snapshot after the failover = %v, %v; want %v", m, err, promoted)
		}
		if _, err := f.Directory().PrimaryOf(c, MakeAddr(RegionID(1<<20), 0)); !errors.Is(err, ErrBadAddr) {
			t.Errorf("unknown region: err = %v, want ErrBadAddr", err)
		}
		replicas := f.CM().replicasOf(p.Addr.Region())
		for _, m := range replicas {
			f.CrashProcess(c, m)
		}
		lost := f.Directory()
		got := make(chan fabric.MachineID, 1)
		w := c.Go("blocked-lookup", func(rc *fabric.Ctx) {
			m, err := lost.PrimaryOf(rc, p.Addr)
			if err != nil {
				t.Error(err)
			}
			got <- m
		})
		c.Sleep(50 * time.Millisecond)
		f.RestartProcess(c, replicas[0])
		w.Wait(c)
		want, err := f.PrimaryOf(c, p.Addr)
		if m := <-got; err != nil || m != want {
			t.Errorf("lost region resolved to %v, want the restarted region's primary %v (%v)", m, want, err)
		}
	})
}

func TestRebootLosesDriverMemory(t *testing.T) {
	simFarmRun(t, 9, func(f *Farm, c *fabric.Ctx) {
		p := Ptr{}
		err := RunTransaction(c, f, func(tx *Tx) error {
			buf, err := tx.Alloc(32, NilAddr)
			if err != nil {
				return err
			}
			p = buf.Ptr()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		replicas := f.CM().replicasOf(p.Addr.Region())
		f.KillMachines(c, replicas...) // correlated power loss wipes all replicas
		rtx := f.CreateReadTransaction(c)
		if _, err := rtx.Read(p); !errors.Is(err, ErrRegionLost) {
			t.Errorf("read err = %v, want ErrRegionLost (needs disaster recovery)", err)
		}
	})
}

func TestOpsStatsCountLocalVsRemote(t *testing.T) {
	simFarmRun(t, 9, func(f *Farm, c *fabric.Ctx) {
		var stats fabric.OpStats
		sc := c.WithStats(&stats)
		var p Ptr
		err := RunTransaction(sc, f, func(tx *Tx) error {
			buf, err := tx.Alloc(64, NilAddr)
			if err != nil {
				return err
			}
			p = buf.Ptr()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		rtx := f.CreateReadTransaction(sc)
		if _, err := rtx.Read(p); err != nil {
			t.Fatal(err)
		}
		if stats.TotalReads() == 0 {
			t.Error("no reads accounted")
		}
	})
}

// TestReadBufferCapIsSlotCapacity: a read buffer, in an update or a
// read-only transaction, reports its slot's class less the header as its
// capacity — not its payload length — and a writable copy of it may grow
// that far in place.
func TestReadBufferCapIsSlotCapacity(t *testing.T) {
	f, c := directFarm(t, 3)
	sizes := []uint32{1, 8, 40, 41, 100, 1000, 5000}
	ptrs := make([]Ptr, len(sizes))
	err := RunTransaction(c, f, func(tx *Tx) error {
		for i, n := range sizes {
			buf, err := tx.Alloc(n, NilAddr)
			if err != nil {
				return err
			}
			ptrs[i] = buf.Ptr()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, update := range []bool{false, true} {
		tx := f.CreateReadTransaction(c)
		if update {
			tx = f.CreateTransaction(c)
		}
		for i, p := range ptrs {
			class, _ := classFor(sizes[i] + hdrBytes)
			want := class - hdrBytes
			buf, err := tx.Read(p)
			if err != nil {
				t.Fatal(err)
			}
			if buf.Cap() != want {
				t.Errorf("update=%v size %d: Cap() = %d, want %d", update, sizes[i], buf.Cap(), want)
			}
			if !update {
				continue
			}
			w, err := tx.OpenForWrite(buf)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Resize(want); err != nil || w.Cap() != want {
				t.Errorf("size %d: Resize to Cap %d: %v (writable Cap %d)", sizes[i], want, err, w.Cap())
			}
			if err := w.Resize(want + 1); !errors.Is(err, ErrTooLarge) {
				t.Errorf("size %d: Resize past Cap: %v, want ErrTooLarge", sizes[i], err)
			}
		}
		tx.Abort()
	}
}
