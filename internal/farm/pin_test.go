package farm

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPinnedReadsSurviveUngatedGC runs one reader loop, one writer loop and
// one GCVersions loop with nothing gating GC against the readers, while
// every commit frees what no snapshot can see. The reader picks its
// snapshot with PinCurrent, which reads the clock and pins in one step, so
// no commit or GC pass can free a version the snapshot needs: no read may
// fail, ErrTooOld included, and every snapshot is consistent. Picking the
// clock first and pinning after leaves a window in which GC frees the
// chain; PinSnapshot refuses such a stale ts instead of pinning it. A
// second reader loop opens unpinned read transactions: commits keep their
// versions, so one no sweep began during reads exactly like a pinned one,
// and one a sweep overlapped may only fail with ErrTooOld. The GC loop
// pauses between passes so both kinds occur. Meaningful under -race.
func TestPinnedReadsSurviveUngatedGC(t *testing.T) {
	f, c := directFarm(t, 3)
	ptrs := make([]Ptr, 8)
	for i := range ptrs {
		ptrs[i] = allocCounter(t, f, c, 0)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	loop := func(body func() bool) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !body() {
					return
				}
			}
		}()
	}
	// The writer bumps the counters round-robin, so any snapshot has them
	// non-increasing in index, first and last at most one apart.
	consistent := func(vals []uint64) bool {
		for i := 1; i < len(vals); i++ {
			if vals[i] > vals[i-1] {
				return false
			}
		}
		return vals[0]-vals[len(vals)-1] <= 1
	}
	readAll := func(tx *Tx) ([]uint64, error) {
		vals := make([]uint64, len(ptrs))
		for i, p := range ptrs {
			buf, err := tx.Read(p)
			if err != nil {
				return nil, err
			}
			vals[i] = binary.LittleEndian.Uint64(buf.Data())
		}
		return vals, nil
	}
	var writes, passes, reads, cleanUnpinned atomic.Int64
	var sweepsBegun, sweepsDone atomic.Int64
	wc := f.Fabric().NewCtx(1, nil)
	i := 0
	loop(func() bool {
		p := ptrs[i%len(ptrs)]
		i++
		err := RunTransaction(wc, f, func(tx *Tx) error {
			buf, err := tx.Read(p)
			if err != nil {
				return err
			}
			w, err := tx.OpenForWrite(buf)
			if err != nil {
				return err
			}
			binary.LittleEndian.PutUint64(w.Data(), binary.LittleEndian.Uint64(buf.Data())+1)
			return nil
		})
		if err != nil {
			t.Errorf("writer: %v", err)
			return false
		}
		writes.Add(1)
		return true
	})
	gc := f.Fabric().NewCtx(2, nil)
	loop(func() bool {
		sweepsBegun.Add(1)
		f.GCVersions(gc)
		sweepsDone.Add(1)
		passes.Add(1)
		time.Sleep(50 * time.Microsecond)
		return true
	})
	rc := f.Fabric().NewCtx(0, nil)
	loop(func() bool {
		tx := f.CreatePinnedReadTransaction(rc)
		defer tx.Abort()
		vals, err := readAll(tx)
		if err != nil {
			t.Errorf("read at pinned snapshot %d: %v", tx.ReadTs(), err)
			return false
		}
		if !consistent(vals) {
			t.Errorf("pinned snapshot %d is inconsistent: %v", tx.ReadTs(), vals)
			return false
		}
		reads.Add(int64(len(vals)))
		return true
	})
	uc := f.Fabric().NewCtx(0, nil)
	loop(func() bool {
		done := sweepsDone.Load()
		idle := sweepsBegun.Load() == done
		tx := f.CreateReadTransaction(uc)
		vals, err := readAll(tx)
		if idle && sweepsBegun.Load() == done {
			if err != nil || !consistent(vals) {
				t.Errorf("unpinned snapshot %d with no sweep since it opened: %v, %v", tx.ReadTs(), vals, err)
				return false
			}
			cleanUnpinned.Add(1)
		} else if err != nil && !errors.Is(err, ErrTooOld) {
			t.Errorf("unpinned snapshot %d across a sweep: %v, want ErrTooOld or a value", tx.ReadTs(), err)
			return false
		}
		return true
	})
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if writes.Load() == 0 || passes.Load() == 0 || reads.Load() == 0 || cleanUnpinned.Load() == 0 {
		t.Fatalf("loops did not overlap: %d writes, %d GC passes, %d pinned reads, %d clean unpinned snapshots",
			writes.Load(), passes.Load(), reads.Load(), cleanUnpinned.Load())
	}
	if n := f.PinnedSnapshots(); n != 0 {
		t.Errorf("pins left behind: %d", n)
	}
	// A GC pass has run with no reader pinned, so a snapshot from before the
	// writes is gone and must be refused rather than pinned.
	f.GCVersions(gc)
	if _, err := f.PinSnapshot(1); !errors.Is(err, ErrTooOld) {
		t.Errorf("PinSnapshot(stale ts) = %v, want ErrTooOld", err)
	}
}
