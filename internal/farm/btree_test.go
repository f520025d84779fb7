package farm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"a1/internal/fabric"
)

func newTestBTree(t testing.TB, f *Farm, c *fabric.Ctx) *BTree {
	t.Helper()
	var bt *BTree
	err := RunTransaction(c, f, func(tx *Tx) error {
		var err error
		bt, err = CreateBTree(tx, NilAddr)
		return err
	})
	if err != nil {
		t.Fatalf("CreateBTree: %v", err)
	}
	return bt
}

func btPut(t *testing.T, f *Farm, c *fabric.Ctx, bt *BTree, k, v string) {
	t.Helper()
	err := RunTransaction(c, f, func(tx *Tx) error {
		return bt.Put(tx, []byte(k), []byte(v))
	})
	if err != nil {
		t.Fatalf("Put(%q): %v", k, err)
	}
}

func btGet(t *testing.T, f *Farm, c *fabric.Ctx, bt *BTree, k string) (string, bool) {
	t.Helper()
	rtx := f.CreateReadTransaction(c)
	v, ok, err := bt.Get(rtx, []byte(k))
	if err != nil {
		t.Fatalf("Get(%q): %v", k, err)
	}
	return string(v), ok
}

func TestBTreeBasicOps(t *testing.T) {
	f, c := directFarm(t, 5)
	bt := newTestBTree(t, f, c)
	if _, ok := btGet(t, f, c, bt, "missing"); ok {
		t.Error("empty tree returned a value")
	}
	btPut(t, f, c, bt, "b", "2")
	btPut(t, f, c, bt, "a", "1")
	btPut(t, f, c, bt, "c", "3")
	for k, want := range map[string]string{"a": "1", "b": "2", "c": "3"} {
		if got, ok := btGet(t, f, c, bt, k); !ok || got != want {
			t.Errorf("Get(%q) = %q, %v; want %q", k, got, ok, want)
		}
	}
	// Replace.
	btPut(t, f, c, bt, "b", "two")
	if got, _ := btGet(t, f, c, bt, "b"); got != "two" {
		t.Errorf("after replace Get(b) = %q", got)
	}
	// Delete.
	err := RunTransaction(c, f, func(tx *Tx) error {
		found, err := bt.Delete(tx, []byte("b"))
		if err == nil && !found {
			return errors.New("delete reported not-found")
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := btGet(t, f, c, bt, "b"); ok {
		t.Error("deleted key still present")
	}
	if got, ok := btGet(t, f, c, bt, "a"); !ok || got != "1" {
		t.Errorf("sibling key lost after delete: %q %v", got, ok)
	}
}

func TestBTreeSplitsAndOrder(t *testing.T) {
	f, c := directFarm(t, 5)
	bt := newTestBTree(t, f, c)
	const n = 500
	perm := rand.New(rand.NewSource(3)).Perm(n)
	// Batch inserts to keep the test quick while still forcing many splits.
	for start := 0; start < n; start += 25 {
		chunk := perm[start : start+25]
		err := RunTransaction(c, f, func(tx *Tx) error {
			for _, i := range chunk {
				k := fmt.Sprintf("key-%06d", i)
				if err := bt.Put(tx, []byte(k), []byte(fmt.Sprintf("val-%d", i))); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("batch insert: %v", err)
		}
	}
	for _, i := range []int{0, 1, n / 2, n - 2, n - 1} {
		k := fmt.Sprintf("key-%06d", i)
		if got, ok := btGet(t, f, c, bt, k); !ok || got != fmt.Sprintf("val-%d", i) {
			t.Errorf("Get(%q) = %q, %v", k, got, ok)
		}
	}
	// Scan returns everything in order.
	rtx := f.CreateReadTransaction(c)
	var keys []string
	err := bt.Scan(rtx, nil, nil, func(k, v []byte) bool {
		keys = append(keys, string(k))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != n {
		t.Fatalf("scan found %d keys, want %d", len(keys), n)
	}
	if !sort.StringsAreSorted(keys) {
		t.Error("scan output not sorted")
	}
}

func TestBTreeScanRange(t *testing.T) {
	f, c := directFarm(t, 5)
	bt := newTestBTree(t, f, c)
	err := RunTransaction(c, f, func(tx *Tx) error {
		for i := 0; i < 100; i++ {
			if err := bt.Put(tx, []byte(fmt.Sprintf("k%03d", i)), []byte{byte(i)}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rtx := f.CreateReadTransaction(c)
	var got []string
	err = bt.Scan(rtx, []byte("k010"), []byte("k020"), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0] != "k010" || got[9] != "k019" {
		t.Errorf("range scan = %v", got)
	}
	// Early stop.
	count := 0
	bt.Scan(rtx, nil, nil, func(k, v []byte) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop count = %d, want 5", count)
	}
	// Count helper.
	n, err := bt.Count(rtx, []byte("k090"), nil)
	if err != nil || n != 10 {
		t.Errorf("Count = %d, %v; want 10", n, err)
	}
}

func TestBTreeCachedLookupAfterRemoteSplits(t *testing.T) {
	// Warm machine 0's node cache, force splits driven from machine 1, and
	// verify machine 0's stale cache still routes lookups correctly.
	f, c0 := directFarm(t, 5)
	bt := newTestBTree(t, f, c0)
	btPut(t, f, c0, bt, "seed-a", "1")
	if got, ok := btGet(t, f, c0, bt, "seed-a"); !ok || got != "1" {
		t.Fatalf("warmup get = %q, %v", got, ok)
	}
	c1 := f.Fabric().NewCtx(1, nil)
	for start := 0; start < 400; start += 20 {
		err := RunTransaction(c1, f, func(tx *Tx) error {
			for i := start; i < start+20; i++ {
				k := fmt.Sprintf("grow-%06d", i)
				if err := bt.Put(tx, []byte(k), []byte("x")); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Machine 0 cache is now stale; lookups must still succeed everywhere.
	for _, k := range []string{"seed-a", "grow-000000", "grow-000399", "grow-000200"} {
		if _, ok := btGet(t, f, c0, bt, k); !ok {
			t.Errorf("stale-cache lookup lost key %q", k)
		}
	}
}

// TestBTreeQuickVsOracle interleaves Put/Delete (machine 0) with Get, Scan,
// ScanDesc and Count (machine 1, whose inner-node cache goes stale as machine
// 0 splits) against a sorted-map oracle: a three-level tree, values from a
// few bytes up to btreeMaxEntry, and key ranges deleted whole so that leaves
// sit empty between their fences.
func TestBTreeQuickVsOracle(t *testing.T) {
	f, c := directFarm(t, 5)
	c1 := f.Fabric().NewCtx(1, nil)
	bt := newTestBTree(t, f, c)
	const keyspace = 3000
	key := func(i int) string { return fmt.Sprintf("q%05d", i) }
	oracle := map[string]string{}
	value := func(r *rand.Rand, k string) string {
		n := 4 + r.Intn(120)
		if r.Intn(25) == 0 {
			n = btreeMaxEntry - len(k) // the largest entry Put accepts
		}
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + r.Intn(26))
		}
		return string(b)
	}
	sortedKeys := func() []string {
		keys := make([]string, 0, len(oracle))
		for k := range oracle {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return keys
	}
	// check compares every read path, from machine 1, on [from, to).
	check := func(r *rand.Rand) {
		t.Helper()
		rtx := f.CreateReadTransaction(c1)
		for i := 0; i < 8; i++ {
			k := key(r.Intn(keyspace))
			v, ok, err := bt.Get(rtx, []byte(k))
			if err != nil {
				t.Fatalf("get: %v", err)
			}
			if want, wantOK := oracle[k]; ok != wantOK || string(v) != want {
				t.Fatalf("Get(%q) = %q,%v; oracle %q,%v", k, v, ok, want, wantOK)
			}
		}
		lo := r.Intn(keyspace)
		from, to := []byte(key(lo)), []byte(key(lo+r.Intn(keyspace/4)))
		if r.Intn(6) == 0 {
			from, to = nil, nil
		}
		var want []string
		for _, k := range sortedKeys() {
			if (from == nil || k >= string(from)) && (to == nil || k < string(to)) {
				want = append(want, k)
			}
		}
		var fwd, rev []string
		visit := func(dst *[]string) func(k, v []byte) bool {
			return func(k, v []byte) bool {
				if oracle[string(k)] != string(v) {
					t.Fatalf("scan: key %q has value %q, oracle %q", k, v, oracle[string(k)])
				}
				*dst = append(*dst, string(k))
				return true
			}
		}
		if err := bt.Scan(rtx, from, to, visit(&fwd)); err != nil {
			t.Fatalf("scan: %v", err)
		}
		if err := bt.ScanDesc(rtx, from, to, visit(&rev)); err != nil {
			t.Fatalf("scan desc: %v", err)
		}
		n, err := bt.Count(rtx, from, to)
		if err != nil {
			t.Fatalf("count: %v", err)
		}
		if n != len(want) || len(fwd) != len(want) || len(rev) != len(want) {
			t.Fatalf("[%s,%s): Count %d, Scan %d, ScanDesc %d, oracle %d", from, to, n, len(fwd), len(rev), len(want))
		}
		for i, k := range want {
			if fwd[i] != k || rev[len(rev)-1-i] != k {
				t.Fatalf("[%s,%s) entry %d: Scan %q, ScanDesc %q, oracle %q", from, to, i, fwd[i], rev[len(rev)-1-i], k)
			}
		}
	}
	step := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		err := RunTransaction(c, f, func(tx *Tx) error {
			if r.Intn(10) == 0 { // empty a run of leaves
				lo := r.Intn(keyspace - 200)
				for i := lo; i < lo+200; i++ {
					if _, err := bt.Delete(tx, []byte(key(i))); err != nil {
						return err
					}
					delete(oracle, key(i))
				}
			}
			for op := 0; op < 40; op++ {
				k := key(r.Intn(keyspace))
				if r.Intn(4) == 0 {
					found, err := bt.Delete(tx, []byte(k))
					if err != nil {
						return err
					}
					if _, had := oracle[k]; found != had {
						return fmt.Errorf("Delete(%q) found=%v, oracle had=%v", k, found, had)
					}
					delete(oracle, k)
					continue
				}
				v := value(r, k)
				if err := bt.Put(tx, []byte(k), []byte(v)); err != nil {
					return err
				}
				oracle[k] = v
				// Read-your-writes through the freshly spliced image.
				if got, ok, err := bt.Get(tx, []byte(k)); err != nil || !ok || string(got) != v {
					return fmt.Errorf("Get(%q) in the writing tx = %q,%v,%v", k, got, ok, err)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("ops: %v", err)
		}
		check(r)
		return true
	}
	if err := quick.Check(step, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Error(err)
	}
	// The tree must have grown past two levels for the test to mean much.
	rtx := f.CreateReadTransaction(c)
	depth := 1
	for p, _ := bt.rootPtr(rtx); ; depth++ {
		buf, err := rtx.Read(p)
		if err != nil {
			t.Fatal(err)
		}
		leaf, first, _, err := nodeLinks(buf.Data())
		if err != nil {
			t.Fatal(err)
		}
		if leaf {
			break
		}
		p = first
	}
	if depth < 3 {
		t.Errorf("tree depth %d, want >= 3 levels", depth)
	}
	check(rand.New(rand.NewSource(99)))
}

// TestBTreeReadYourWrites: what Get returned stays what it was after later
// writes to the same leaf in the same transaction, whether the leaf was
// first seen as a committed read buffer or as this transaction's own image.
func TestBTreeReadYourWrites(t *testing.T) {
	f, c := directFarm(t, 5)
	bt := newTestBTree(t, f, c)
	btPut(t, f, c, bt, "k1", "committed-1")
	btPut(t, f, c, bt, "k3", "committed-3")
	err := RunTransaction(c, f, func(tx *Tx) error {
		get := func(k string) []byte {
			v, ok, err := bt.Get(tx, []byte(k))
			if err != nil || !ok {
				t.Fatalf("Get(%q) = %v, %v", k, ok, err)
			}
			return v
		}
		fromReadBuf := get("k1") // aliases the committed leaf image
		if err := bt.Put(tx, []byte("k0"), []byte("shifts every later entry")); err != nil {
			return err
		}
		fromOwnImage := get("k3") // aliases this transaction's spliced image
		if err := bt.Put(tx, []byte("k1"), []byte("replaced")); err != nil {
			return err
		}
		if err := bt.Put(tx, []byte("k2"), bytes.Repeat([]byte("x"), 200)); err != nil {
			return err
		}
		if _, err := bt.Delete(tx, []byte("k3")); err != nil {
			return err
		}
		if string(fromReadBuf) != "committed-1" || string(fromOwnImage) != "committed-3" {
			t.Errorf("earlier Get results changed under later writes: %q, %q", fromReadBuf, fromOwnImage)
		}
		if got := get("k1"); string(got) != "replaced" {
			t.Errorf("Get(k1) after replace = %q", got)
		}
		if _, ok, _ := bt.Get(tx, []byte("k3")); ok {
			t.Error("Get(k3) after delete still finds it")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := btGet(t, f, c, bt, "k1"); got != "replaced" {
		t.Errorf("committed k1 = %q", got)
	}
}

func TestBTreeConcurrentInserters(t *testing.T) {
	f, c := directFarm(t, 5)
	bt := newTestBTree(t, f, c)
	const workers, per = 4, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wc := f.Fabric().NewCtx(fabric.MachineID(w+1), nil)
			for i := 0; i < per; i++ {
				k := fmt.Sprintf("w%d-%04d", w, i)
				err := RunTransaction(wc, f, func(tx *Tx) error {
					return bt.Put(tx, []byte(k), []byte("v"))
				})
				if err != nil {
					t.Errorf("concurrent put %q: %v", k, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	rtx := f.CreateReadTransaction(c)
	n, err := bt.Count(rtx, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != workers*per {
		t.Errorf("count = %d, want %d", n, workers*per)
	}
}

// TestBTreeSnapshotScanDuringInserts: a snapshot's scans, in both
// directions, see the tree as it was, while later transactions split its
// leaves and leaf parents and replace values. Each tree shape is deep
// enough that the scans cross leaf parents and read leaves in windows.
func TestBTreeSnapshotScanDuringInserts(t *testing.T) {
	for _, tree := range []scanTree{wideTree, deepTree} {
		f, c := directFarm(t, 5)
		bt, keys, err := tree.build(f, c)
		var shape scanShape
		if err == nil {
			shape, err = shapeOf(f, c, bt)
		}
		if err == nil {
			err = checkTreeShape(shape)
		}
		if err != nil {
			t.Fatal(err)
		}
		ts, unpin := f.PinCurrent()
		snap := f.CreateReadTransactionAt(c, ts)
		// Growth after the snapshot: a key between every two, and every
		// third old key's value replaced.
		for start := 0; start < tree.n; start += 500 {
			err := RunTransaction(c, f, func(tx *Tx) error {
				for i := start; i < min(start+500, tree.n); i++ {
					if err := bt.Put(tx, []byte(tree.key(2*i+1)), []byte("new")); err != nil {
						return err
					}
					if i%3 == 0 {
						if err := bt.Put(tx, []byte(keys[i]), []byte("new")); err != nil {
							return err
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, sc := range []scanCase{{}, {desc: true}, {stop: tree.n / 3}, {desc: true, stop: tree.n / 3}} {
			var got []string
			walk := bt.Scan
			if sc.desc {
				walk = bt.ScanDesc
			}
			err := walk(snap, nil, nil, func(k, v []byte) bool {
				if string(v) == "new" {
					t.Errorf("%d-byte keys, %v: snapshot scan saw %.7s = new", tree.keyLen, sc, k)
				}
				got = append(got, string(k))
				return sc.stop == 0 || len(got) < sc.stop
			})
			if err != nil {
				t.Fatalf("%d-byte keys, %v: snapshot scan: %v", tree.keyLen, sc, err)
			}
			if want := sc.want(keys); !slices.Equal(got, want) {
				t.Errorf("%d-byte keys, %v: snapshot scan saw %d keys, want %d (inserts after the snapshot invisible)", tree.keyLen, sc, len(got), len(want))
			}
		}
		unpin()
	}
}

func TestBTreeDropFreesNodes(t *testing.T) {
	f, c := directFarm(t, 5)
	bt := newTestBTree(t, f, c)
	err := RunTransaction(c, f, func(tx *Tx) error {
		for i := 0; i < 300; i++ {
			if err := bt.Put(tx, []byte(fmt.Sprintf("d%05d", i)), bytes.Repeat([]byte("x"), 32)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := bt.Drop(c, 32); err != nil {
		t.Fatalf("Drop: %v", err)
	}
	f.GCVersions(c)
	rtx := f.CreateReadTransaction(c)
	if _, err := rtx.Read(bt.Desc()); err == nil {
		t.Error("descriptor still readable after drop+GC")
	}
}

func TestBTreeLargeEntryRejected(t *testing.T) {
	f, c := directFarm(t, 5)
	bt := newTestBTree(t, f, c)
	err := RunTransaction(c, f, func(tx *Tx) error {
		return bt.Put(tx, bytes.Repeat([]byte("k"), btreeMaxEntry), []byte("v"))
	})
	if !errors.Is(err, ErrKeyTooLarge) {
		t.Errorf("err = %v, want ErrKeyTooLarge", err)
	}
}

func TestBTreeScanDesc(t *testing.T) {
	f, c := directFarm(t, 5)
	bt := newTestBTree(t, f, c)
	// Enough entries to force several splits, inserted out of order.
	perm := rand.New(rand.NewSource(3)).Perm(300)
	err := RunTransaction(c, f, func(tx *Tx) error {
		for _, i := range perm {
			if err := bt.Put(tx, []byte(fmt.Sprintf("k%03d", i)), []byte{byte(i)}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rtx := f.CreateReadTransaction(c)
	// Full reverse scan visits every key in strictly descending order.
	var got []string
	err = bt.ScanDesc(rtx, nil, nil, func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 300 {
		t.Fatalf("reverse scan visited %d keys, want 300", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] > got[j] }) {
		t.Error("reverse scan not in descending order")
	}
	if got[0] != "k299" || got[299] != "k000" {
		t.Errorf("reverse scan endpoints = %s..%s", got[0], got[299])
	}
	// Bounds: [from, to) visited high to low.
	got = nil
	err = bt.ScanDesc(rtx, []byte("k010"), []byte("k020"), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0] != "k019" || got[9] != "k010" {
		t.Errorf("bounded reverse scan = %v", got)
	}
	// Early stop after a handful of keys from the high end.
	count := 0
	err = bt.ScanDesc(rtx, nil, nil, func(k, v []byte) bool {
		count++
		return count < 5
	})
	if err != nil || count != 5 {
		t.Errorf("early stop count = %d, %v; want 5", count, err)
	}
	// Forward and reverse agree on membership.
	var fwd []string
	if err := bt.Scan(rtx, nil, nil, func(k, v []byte) bool { fwd = append(fwd, string(k)); return true }); err != nil {
		t.Fatal(err)
	}
	var rev []string
	if err := bt.ScanDesc(rtx, nil, nil, func(k, v []byte) bool { rev = append(rev, string(k)); return true }); err != nil {
		t.Fatal(err)
	}
	for i, j := 0, len(rev)-1; i < len(fwd); i, j = i+1, j-1 {
		if fwd[i] != rev[j] {
			t.Fatalf("forward/reverse mismatch at %d: %s vs %s", i, fwd[i], rev[j])
		}
	}
}
