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
// one GCVersions loop with nothing gating GC against the readers. The
// reader picks its snapshot with PinCurrent, which reads the clock and pins
// in one step, so no GC pass can free a version the snapshot needs: no read
// may fail, ErrTooOld included. Picking the clock first and pinning after
// leaves a window in which GC frees the chain; PinSnapshot refuses such a
// stale ts instead of pinning it. Meaningful under -race.
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
	var writes, passes, reads atomic.Int64
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
		f.GCVersions(gc)
		passes.Add(1)
		return true
	})
	rc := f.Fabric().NewCtx(0, nil)
	loop(func() bool {
		ts, unpin := f.PinCurrent()
		defer unpin()
		tx := f.CreateReadTransactionAt(rc, ts)
		for _, p := range ptrs {
			if _, err := tx.Read(p); err != nil {
				t.Errorf("read at pinned snapshot %d: %v", ts, err)
				return false
			}
			reads.Add(1)
		}
		return true
	})
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if writes.Load() == 0 || passes.Load() == 0 || reads.Load() == 0 {
		t.Fatalf("loops did not overlap: %d writes, %d GC passes, %d reads", writes.Load(), passes.Load(), reads.Load())
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
