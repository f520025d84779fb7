package farm

import (
	"fmt"
	"testing"

	"a1/internal/fabric"
)

// allocTreeKeys is the size of the tree the allocation guards run over:
// three levels at A1's index shape (short keys, pointer-sized values).
const allocTreeKeys = 50000

func allocKey(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }

// buildAllocTree loads allocTreeKeys sequential keys with 12-byte values.
func buildAllocTree(tb testing.TB) (*Farm, *fabric.Ctx, *BTree) {
	tb.Helper()
	f, c := directFarm(tb, 5)
	bt := newTestBTree(tb, f, c)
	val := []byte("0123456789ab")
	for start := 0; start < allocTreeKeys; start += 500 {
		err := RunTransaction(c, f, func(tx *Tx) error {
			for i := start; i < start+500; i++ {
				if err := bt.Put(tx, allocKey(i), val); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	return f, c, bt
}

// TestBTreeGetAllocs: a warm read-only Get allocates a small constant —
// the copy of the value it returns and nothing per entry of the nodes it
// searched — so a reintroduced per-key decode fails here, not on a trend
// line. The decode it replaced cost ~100 allocations per 2 kB node.
func TestBTreeGetAllocs(t *testing.T) {
	const maxAllocs = 2
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; the view pool never stays warm")
	}
	f, c, bt := buildAllocTree(t)
	rtx := f.CreateReadTransaction(c)
	keys := [][]byte{allocKey(7), allocKey(allocTreeKeys / 2), allocKey(allocTreeKeys - 1)}
	for _, k := range keys { // warm the inner-node cache and the view pool
		if _, ok, err := bt.Get(rtx, k); err != nil || !ok {
			t.Fatalf("Get(%s) = %v, %v", k, ok, err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok, err := bt.Get(rtx, keys[i%len(keys)]); err != nil || !ok {
			t.Fatalf("Get = %v, %v", ok, err)
		}
		i++
	})
	if allocs > maxAllocs {
		t.Errorf("warm read-only Get: %.1f allocs, want <= %d", allocs, maxAllocs)
	}
}

func BenchmarkAllocBTreeGet(b *testing.B) {
	f, c, bt := buildAllocTree(b)
	rtx := f.CreateReadTransaction(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := bt.Get(rtx, allocKey(i*7919%allocTreeKeys)); err != nil || !ok {
			b.Fatalf("Get = %v, %v", ok, err)
		}
	}
}

// BenchmarkAllocBTreeScan walks 1,000 consecutive entries per iteration.
func BenchmarkAllocBTreeScan(b *testing.B) {
	f, c, bt := buildAllocTree(b)
	rtx := f.CreateReadTransaction(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := i * 7919 % (allocTreeKeys - 1000)
		n := 0
		err := bt.Scan(rtx, allocKey(from), allocKey(from+1000), func(_, _ []byte) bool { n++; return true })
		if err != nil || n != 1000 {
			b.Fatalf("Scan visited %d, %v", n, err)
		}
	}
}

// BenchmarkAllocBTreePut replaces one value per single-Put transaction
// (commit included: the node's new image is what the commit ships).
func BenchmarkAllocBTreePut(b *testing.B) {
	f, c, bt := buildAllocTree(b)
	val := []byte("ba9876543210")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := RunTransaction(c, f, func(tx *Tx) error {
			return bt.Put(tx, allocKey(i*7919%allocTreeKeys), val)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
