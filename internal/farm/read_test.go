package farm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"a1/internal/fabric"
)

// readStore is a committed Direct-mode store for the read-path tests:
// objects spread over every machine (hence over many regions), each payload
// starting with the object's index.
type readStore struct {
	f    *Farm
	c    *fabric.Ctx
	ptrs []Ptr
}

func readStorePayload(i int, size uint32) []byte {
	p := bytes.Repeat([]byte{byte(i)}, int(size))
	binary.LittleEndian.PutUint64(p, uint64(i))
	return p
}

func buildReadStore(tb testing.TB, machines, n int, regionSize uint32, size func(i int) uint32) *readStore {
	tb.Helper()
	fab := fabric.New(fabric.DefaultConfig(machines, fabric.Direct), nil)
	s := &readStore{f: Open(fab, Config{RegionSize: regionSize, Replicas: 3})}
	s.c = fab.NewCtx(0, nil)
	for lo := 0; lo < n; lo += 500 {
		err := RunTransaction(s.c, s.f, func(tx *Tx) error {
			for i := lo; i < min(lo+500, n); i++ {
				buf, err := tx.AllocOn(fabric.MachineID(i%machines), size(i))
				if err != nil {
					return err
				}
				copy(buf.Data(), readStorePayload(i, size(i)))
				s.ptrs = append(s.ptrs[:i], buf.Ptr())
			}
			return nil
		})
		if err != nil {
			tb.Fatalf("buildReadStore: %v", err)
		}
	}
	return s
}

// forgedStore is the small store TestForgedAddrs and FuzzReadAddr probe:
// mixed sizes in 16KB regions, some objects tombstoned, some reclaimed by
// version GC (their slots on free lists), some tombstoned after the GC. It
// is built single-threaded, so addresses repeat run to run and the committed
// fuzz corpus keeps naming the same slots.
func forgedStore(tb testing.TB) *readStore {
	s := buildReadStore(tb, 5, 300, 16<<10, func(i int) uint32 { return uint32(8 + 37*(i%23)) })
	free := func(pick func(i int) bool) {
		err := RunTransaction(s.c, s.f, func(tx *Tx) error {
			for i, p := range s.ptrs {
				if !pick(i) {
					continue
				}
				buf, err := tx.Read(p)
				if err != nil {
					return err
				}
				if err := tx.Free(buf); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			tb.Fatalf("forgedStore: %v", err)
		}
	}
	free(func(i int) bool { return i%7 == 3 })
	s.f.GCVersions(s.c)
	free(func(i int) bool { return i%7 == 5 })
	return s
}

// liveAt is the oracle: whether a names the first byte of a live slot at
// its region's primary, read straight from the allocator.
func (s *readStore) liveAt(a Addr) bool {
	reps := s.f.cm.replicasOf(a.Region())
	if len(reps) == 0 {
		return false
	}
	r, ok := s.f.regionAt(reps[0], a.Region())
	if !ok {
		return false
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.alloc.isLive(a.Offset())
}

// probe sends one address and size hint through every read entry point, in
// a read-only or an update transaction, and checks the forged-address
// contract: an address that is not the start of a live slot fails with
// ErrBadAddr, a live one reads or is ErrNotFound (tombstone), all three
// entry points agree, and nothing panics.
func (s *readStore) probe(t *testing.T, a Addr, hint uint32, update bool) {
	t.Helper()
	tx := s.f.CreateReadTransaction(s.c)
	if update {
		tx = s.f.CreateTransaction(s.c)
		defer tx.Abort()
	}
	buf, err := tx.ReadSized(a, hint)
	_, perr := tx.Read(Ptr{Addr: a, Size: hint})
	into, ierr := tx.ReadSizedInto(a, hint, make([]byte, 0, 16))
	for _, e := range []error{perr, ierr} {
		if errors.Is(e, ErrBadAddr) != errors.Is(err, ErrBadAddr) || errors.Is(e, ErrNotFound) != errors.Is(err, ErrNotFound) || (e == nil) != (err == nil) {
			t.Fatalf("%v hint %d update=%v: entry points disagree: %v / %v / %v", a, hint, update, err, perr, ierr)
		}
	}
	switch live := s.liveAt(a); {
	case !live && !errors.Is(err, ErrBadAddr):
		t.Fatalf("%v hint %d update=%v: err = %v, want ErrBadAddr", a, hint, update, err)
	case live && err != nil && !errors.Is(err, ErrNotFound):
		t.Fatalf("%v hint %d update=%v: live slot: err = %v", a, hint, update, err)
	case err == nil && !bytes.Equal(buf.Data(), into):
		t.Fatalf("%v: ReadSized and ReadSizedInto returned different bytes", a)
	}
}

// TestTxOn: a read-only snapshot bound to another process's context reads
// what the snapshot reads, on that context, and is tx itself on its own;
// an update transaction is never shared.
func TestTxOn(t *testing.T) {
	f, c := directFarm(t, 3)
	p := allocCounter(t, f, c, 5)
	rtx := f.CreatePinnedReadTransaction(c)
	defer rtx.Abort()
	addN(t, f, c, p, 1) // after the snapshot: the bound copy must not see it
	if rtx.On(c) != rtx {
		t.Error("On(own context) is not the transaction itself")
	}
	other := f.Fabric().NewCtx(1, nil)
	bound := rtx.On(other)
	if bound == rtx || bound.Ctx() != other || bound.ReadTs() != rtx.ReadTs() {
		t.Errorf("On(other) = ctx %p ts %d, want a copy on %p at %d", bound.Ctx(), bound.ReadTs(), other, rtx.ReadTs())
	}
	if v, err := readCounter(bound, p); err != nil || v != 5 {
		t.Errorf("read through the bound copy = %d, %v; want 5", v, err)
	}

	utx := f.CreateTransaction(c)
	defer utx.Abort()
	if utx.On(c) != utx {
		t.Error("On(own context) of an update transaction is not the transaction itself")
	}
	defer func() {
		if recover() == nil {
			t.Error("On(other) shared an update transaction")
		}
	}()
	utx.On(other)
}

func TestForgedAddrs(t *testing.T) {
	s := forgedStore(t)
	regions := map[RegionID]bool{}
	reclaimed := 0
	for i, p := range s.ptrs {
		regions[p.Addr.Region()] = true
		// The objects themselves: present, tombstoned or reclaimed.
		rtx := s.f.CreateReadTransaction(s.c)
		buf, err := rtx.Read(p)
		switch {
		case i%7 == 3:
			// Its slot is on a free list, unless a version record of the
			// second round of frees has since taken it.
			if !s.liveAt(p.Addr) {
				reclaimed++
				if !errors.Is(err, ErrBadAddr) {
					t.Fatalf("object %d (reclaimed): err = %v, want ErrBadAddr", i, err)
				}
			}
		case i%7 == 5:
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("object %d (tombstoned): err = %v, want ErrNotFound", i, err)
			}
		case err != nil || !bytes.Equal(buf.Data(), readStorePayload(i, p.Size)):
			t.Fatalf("object %d: err = %v", i, err)
		}
		// Its neighbourhood: misaligned, interior, before, far past.
		id, off := p.Addr.Region(), p.Addr.Offset()
		for _, a := range []Addr{
			p.Addr, MakeAddr(id, off+1), MakeAddr(id, off+8), MakeAddr(id, off+32), MakeAddr(id, off+hdrBytes),
			MakeAddr(id, off-32), MakeAddr(id, off|1<<31), MakeAddr(0, off), MakeAddr(id+1000, off), MakeAddr(^RegionID(0), off),
		} {
			for _, hint := range []uint32{0, p.Size, 1 << 20, ^uint32(0)} {
				s.probe(t, a, hint, false)
				s.probe(t, a, hint, true)
			}
		}
	}
	if len(regions) < 8 || reclaimed == 0 {
		t.Fatalf("store spans %d regions with %d free slots probed, want at least 8 and some", len(regions), reclaimed)
	}
	for id := range regions {
		reps := s.f.cm.replicasOf(id)
		r, _ := s.f.regionAt(reps[0], id)
		for _, off := range []uint32{0, 32, r.alloc.bump, r.alloc.bump + 32, uint32(len(r.data)), r.cap, r.cap - 32, ^uint32(0), ^uint32(31)} {
			s.probe(t, MakeAddr(id, off), 8, false)
			s.probe(t, MakeAddr(id, off), 8, true)
		}
	}
	dir := RegionID(len(*s.f.cm.dir.Load()))
	for _, id := range []RegionID{0, dir, dir + 1, 1 << 31, ^RegionID(0)} {
		for _, off := range []uint32{0, 1, 64, 96} {
			if a := MakeAddr(id, off); !a.IsNil() {
				s.probe(t, a, 8, false)
				s.probe(t, a, 8, true)
			}
		}
	}
	rtx := s.f.CreateReadTransaction(s.c)
	if _, err := rtx.ReadSizedInto(NilAddr, 8, nil); !errors.Is(err, ErrBadAddr) {
		t.Errorf("nil address: err = %v, want ErrBadAddr", err)
	}
}

// FuzzReadAddr feeds arbitrary 64-bit addresses and size hints through
// Tx.Read, ReadSized and ReadSizedInto (see probe). The seeds are the
// structured forgeries of TestForgedAddrs around one object per region.
func FuzzReadAddr(f *testing.F) {
	s := forgedStore(f)
	seen := map[RegionID]bool{}
	for _, p := range s.ptrs {
		if seen[p.Addr.Region()] {
			continue
		}
		seen[p.Addr.Region()] = true
		for _, d := range []uint32{0, 1, 32, hdrBytes} {
			f.Add(uint64(p.Addr)+uint64(d), p.Size, d%2 == 0)
		}
	}
	f.Add(uint64(64), uint32(8), false)          // region 0
	f.Add(^uint64(0), ^uint32(0), true)          // past the directory, past the table
	f.Add(uint64(1)<<32|1<<31, uint32(0), false) // past the slot table
	f.Fuzz(func(t *testing.T, raw uint64, hint uint32, update bool) {
		if raw == 0 {
			return
		}
		s.probe(t, Addr(raw), hint, update)
	})
}

// TestReadSizedIntoAllocs pins the cost of a warm read-only read: no
// allocation at all — no lock object, no snapshot, no error.
func TestReadSizedIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s := buildReadStore(t, 8, 4000, 4<<20, func(int) uint32 { return 64 })
	tx := s.f.CreateReadTransaction(s.c)
	scratch := make([]byte, 0, 128)
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		p := s.ptrs[i%len(s.ptrs)]
		i += 7
		data, err := tx.ReadSizedInto(p.Addr, p.Size, scratch)
		if err != nil || len(data) != 64 {
			t.Fatalf("read %v: %d bytes, %v", p, len(data), err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm read-only ReadSizedInto allocates %.1f times per read, want 0", allocs)
	}
}

var (
	benchStoreOnce sync.Once
	benchStore     *readStore
)

// benchReadStore is the 100k-object store both read benchmarks share.
func benchReadStore(b *testing.B) *readStore {
	benchStoreOnce.Do(func() {
		benchStore = buildReadStore(b, 8, 100_000, 4<<20, func(int) uint32 { return 64 })
		regions := map[RegionID]bool{}
		for _, p := range benchStore.ptrs {
			regions[p.Addr.Region()] = true
		}
		if len(regions) < 8 {
			b.Fatalf("store spans %d regions, want at least 8", len(regions))
		}
	})
	return benchStore
}

// BenchmarkAllocTxRead is the object read every layer above is built from:
// a read-only ReadSizedInto of a 64-byte object, the objects visited in a
// stride that defeats the cache.
func BenchmarkAllocTxRead(b *testing.B) {
	s := benchReadStore(b)
	tx := s.f.CreateReadTransaction(s.c)
	scratch := make([]byte, 0, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := s.ptrs[i*7919%len(s.ptrs)]
		if _, err := tx.ReadSizedInto(p.Addr, p.Size, scratch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocTxReadParallel is the same read from every core at once —
// what shared state on the path (a directory lock, a driver mutex) costs.
func BenchmarkAllocTxReadParallel(b *testing.B) {
	s := benchReadStore(b)
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := int(next.Add(1))
		c := s.f.Fabric().NewCtx(fabric.MachineID(id%8), nil)
		tx := s.f.CreateReadTransaction(c)
		scratch := make([]byte, 0, 128)
		for i := id * 1000; pb.Next(); i++ {
			p := s.ptrs[i*7919%len(s.ptrs)]
			if _, err := tx.ReadSizedInto(p.Addr, p.Size, scratch); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// TestDirectoryUnderReconfiguration reads through the lock-free directory
// and driver tables while they are republished: readers loop Tx.Read over
// objects in many regions while one goroutine creates regions, crashes and
// restarts processes, loses and recovers a region, and power-cycles
// machines (driver wipe). Every read succeeds with the right bytes or fails
// with a documented transient error; no read that began after
// handleFailure(m) returned is served from m (m stops receiving commits
// then, so such a read would return a counter below its floor); reads of a
// lost region pause until fast restart. Meaningful under -race.
func TestDirectoryUnderReconfiguration(t *testing.T) {
	const (
		machines   = 9
		perMachine = 170 // 128-byte slots: one full 16KB region and a part-filled one each
		nObjects   = machines * perMachine
	)
	s := buildReadStore(t, machines, nObjects, 16<<10, func(int) uint32 { return 100 })
	f, c := s.f, s.c
	// Only objects in part-filled regions are updated: an update leaves a
	// version record in the object's own region, and a full region would
	// truncate the chain under a reader (ErrTooOld).
	var hot []int
	for i := (perMachine - 40) * machines; i < nObjects; i++ {
		hot = append(hot, i)
	}
	floor := make([]atomic.Uint64, nObjects) // counter value known committed
	counter := func(data []byte) uint64 { return binary.LittleEndian.Uint64(data[8:]) }
	for i := range floor {
		floor[i].Store(counter(readStorePayload(i, 100)))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads, transient atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rc := f.Fabric().NewCtx(0, nil) // machine 0 hosts the CM and is never failed
			for i := g * 97; ; i = (i + 1) % nObjects {
				select {
				case <-stop:
					return
				default:
				}
				want := floor[i].Load()
				buf, err := f.CreateReadTransaction(rc).Read(s.ptrs[i])
				switch {
				case err == nil:
					if got := binary.LittleEndian.Uint64(buf.Data()); got != uint64(i) || counter(buf.Data()) < want {
						t.Errorf("object %d: read index %d counter %d, want counter >= %d", i, got, counter(buf.Data()), want)
						return
					}
					reads.Add(1)
				case errors.Is(err, ErrRegionLost), errors.Is(err, fabric.ErrUnreachable):
					transient.Add(1)
				default:
					t.Errorf("object %d: %v", i, err)
					return
				}
			}
		}(g)
	}

	notPrimary := func(m fabric.MachineID, when string) {
		t.Helper()
		for id, e := range *f.cm.dir.Load() {
			if id > 0 && !e.lost && e.primary == m {
				t.Errorf("%s: region %d still names %v primary", when, id, m)
			}
		}
	}
	// Commits are held back until re-replication has caught up, so that a
	// copy in flight (possibly started by a reader) cannot miss one. The
	// wait is bounded: a reader's failure report that lands after the
	// machine restarted marks it down until its next restart, and enough of
	// those leave a region short of machines to copy to.
	settle := func() {
		deadline := time.Now().Add(50 * time.Millisecond)
		for time.Now().Before(deadline) {
			full := true
			for _, id := range f.cm.regionIDs() {
				full = full && len(f.cm.replicasOf(id)) == 3
			}
			if full {
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	step := 0
	bump := func(n int) {
		t.Helper()
		for k := 0; k < n; k++ {
			i := hot[(step*31+k*7)%len(hot)]
			var v uint64
			err := RunTransaction(c, f, func(tx *Tx) error {
				buf, err := tx.Read(s.ptrs[i])
				if err != nil {
					return err
				}
				w, err := tx.OpenForWrite(buf)
				if err != nil {
					return err
				}
				v = counter(w.Data()) + 1
				binary.LittleEndian.PutUint64(w.Data()[8:], v)
				return nil
			})
			if err != nil {
				t.Fatalf("update of object %d: %v", i, err)
			}
			floor[i].Store(v)
		}
		step++
	}
	grow := func(m fabric.MachineID) {
		t.Helper()
		before := len(*f.cm.dir.Load())
		err := RunTransaction(c, f, func(tx *Tx) error {
			_, err := tx.AllocOn(m, 12000) // fits no part-filled region: a new one
			return err
		})
		if err != nil {
			t.Fatalf("grow on %v: %v", m, err)
		}
		if after := len(*f.cm.dir.Load()); after <= before {
			t.Errorf("grow on %v created no region (%d directory entries)", m, after)
		}
	}

	for round := 0; round < 2; round++ {
		// Process crash and fast restart, one machine at a time.
		for m := fabric.MachineID(1); m < machines; m++ {
			f.CrashProcess(c, m)
			notPrimary(m, "after CrashProcess")
			settle()
			bump(4)
			notPrimary(m, "before RestartProcess")
			f.RestartProcess(c, m)
			grow(m)
		}
		// A software outage takes every replica of one region: reads of it
		// pause, and resume when the first host is back.
		victim := s.ptrs[hot[round]]
		reps := f.cm.replicasOf(victim.Addr.Region())
		f.CrashProcesses(c, reps...)
		blocked := make(chan error, 1)
		go func() {
			buf, err := f.CreateReadTransaction(f.Fabric().NewCtx(0, nil)).Read(victim)
			if err == nil && binary.LittleEndian.Uint64(buf.Data()) != uint64(hot[round]) {
				err = fmt.Errorf("wrong object: % x", buf.Data()[:8])
			}
			blocked <- err
		}()
		select {
		case err := <-blocked:
			t.Errorf("read of a lost region returned before restart: %v", err)
		case <-time.After(5 * time.Millisecond):
		}
		for i, m := range reps {
			f.RestartProcess(c, m)
			if i == 0 {
				if err := <-blocked; err != nil {
					t.Errorf("read after fast restart: %v", err)
				}
			}
		}
		settle()
		bump(4)
		// Power loss: driver memory is wiped, the data survives elsewhere.
		for _, m := range []fabric.MachineID{fabric.MachineID(2 + 3*round), fabric.MachineID(3 + 3*round)} {
			f.KillMachine(c, m)
			notPrimary(m, "after KillMachine")
			settle()
			bump(4)
			f.RebootMachine(c, m)
			grow(m)
		}
	}
	close(stop)
	wg.Wait()
	if reads.Load() == 0 {
		t.Fatalf("no read completed")
	}
	t.Logf("%d reads, %d transient failures, %d regions", reads.Load(), transient.Load(), len(*f.cm.dir.Load())-1)
	rtx := f.CreateReadTransaction(c)
	for i, p := range s.ptrs {
		buf, err := rtx.Read(p)
		if err != nil || counter(buf.Data()) != floor[i].Load() {
			t.Fatalf("object %d at the end: %v", i, err)
		}
	}
}
