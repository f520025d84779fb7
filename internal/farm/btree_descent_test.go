package farm

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"a1/internal/fabric"
)

// opCost is what one B-tree operation cost: the object reads it made and
// the Sim time it took.
type opCost struct {
	op    string
	reads int64
	took  time.Duration
}

// measureOps runs a fixed sequence of operations on tree from machine 0,
// with the tree's nodes on machine 2, and returns each one's cost. Only
// the operation itself is measured; the transaction around it is created
// and committed outside the measurement.
func measureOps(f *Farm, c *fabric.Ctx, tree scanTree) ([]opCost, error) {
	owner := f.Fabric().NewCtx(2, c.P)
	bt, keys, err := tree.build(f, owner)
	if err != nil {
		return nil, err
	}
	n := len(keys)
	var costs []opCost
	measure := func(op string, update bool, fn func(tx *Tx) error) error {
		var st fabric.OpStats
		sctx := c.WithStats(&st)
		tx := f.CreateReadTransaction(sctx)
		if update {
			tx = f.CreateTransaction(sctx)
		}
		start := c.Now()
		err := fn(tx)
		costs = append(costs, opCost{op, st.TotalReads(), c.Now() - start})
		if err != nil {
			tx.Abort()
			return fmt.Errorf("%s: %w", op, err)
		}
		if update {
			return tx.Commit()
		}
		return nil
	}
	get := func(key string) func(tx *Tx) error {
		return func(tx *Tx) error {
			_, ok, err := bt.Get(tx, []byte(key))
			if err == nil && !ok {
				err = fmt.Errorf("%.7s not found", key)
			}
			return err
		}
	}
	scan := func(desc bool, from []byte, stop int) func(tx *Tx) error {
		walk := bt.Scan
		if desc {
			walk = bt.ScanDesc
		}
		return func(tx *Tx) error {
			seen := 0
			return walk(tx, from, nil, func(_, _ []byte) bool {
				seen++
				return stop == 0 || seen < stop
			})
		}
	}
	from := []byte(keys[n/5])
	steps := []struct {
		op     string
		update bool
		fn     func(tx *Tx) error
	}{
		{"get cold", false, get(keys[n/2])},
		{"get warm", false, get(keys[n/3])},
		{"put", true, func(tx *Tx) error { return bt.Put(tx, []byte(tree.key(2*(n/2)+1)), []byte("v")) }},
		{"get after put", false, get(keys[n/2])},
		{"delete", true, func(tx *Tx) error {
			_, err := bt.Delete(tx, []byte(keys[n/4]))
			return err
		}},
		{"scan", false, scan(false, nil, 0)},
		{"scan stop", false, scan(false, from, n/3)},
		{"scan desc", false, scan(true, nil, 0)},
		{"scan desc stop", false, scan(true, from, n/3)},
		{"update scan stop", true, scan(false, from, n/3)},
		{"update scan desc stop", true, scan(true, from, n/3)},
	}
	for _, s := range steps {
		if err := measure(s.op, s.update, s.fn); err != nil {
			return costs, err
		}
	}
	// The owner inserts keys between two stored ones: the leaf that held
	// them splits again and again under machine 0's cached path to it, so
	// a lookup near its start walks right along the leaves, and one at
	// the far end gives up the cached path.
	between := make([]string, 8*btreeNodeCap/tree.keyLen)
	for i := range between {
		between[i] = fmt.Sprintf("%s%04d", keys[n/3], i)
	}
	err = RunTransaction(owner, f, func(tx *Tx) error {
		for _, k := range between {
			if err := bt.Put(tx, []byte(k), []byte("v")); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return costs, err
	}
	if err := measure("get stale near", false, get(between[len(between)/8])); err != nil {
		return costs, err
	}
	return costs, measure("get stale far", false, get(between[len(between)-1]))
}

// TestBTreeOpCostsSim pins what each kind of B-tree operation reads and
// how long it takes on the Sim clock: cold and warm lookups, a lookup
// through a cache the owner's splits made stale, Put, Delete, and scans
// both ways, stopped and not, in both kinds of transaction. A change to
// how the tree descends or windows its leaf reads that moves any of
// these changed what the tree reads or when.
func TestBTreeOpCostsSim(t *testing.T) {
	// Reads, then Sim nanoseconds; machine 0 reads a tree on machine 2.
	want := map[scanTree][]opCost{
		wideTree: {
			{"get cold", 4, 63900},
			{"get warm", 2, 31505},
			{"put", 4, 65445},
			{"get after put", 1, 16746},
			{"delete", 4, 65414},
			{"scan", 150, 236022},
			{"scan stop", 67, 175680},
			{"scan desc", 150, 315564},
			{"scan desc stop", 66, 157092},
			{"update scan stop", 52, 859912},
			{"update scan desc stop", 52, 852001},
			{"get stale near", 6, 99906},
			{"get stale far", 13, 216559},
		},
		deepTree: {
			{"get cold", 6, 97523},
			{"get warm", 4, 65212},
			{"put", 6, 95297},
			{"get after put", 1, 16972},
			{"delete", 6, 97470},
			{"scan", 176, 954265},
			{"scan stop", 90, 547903},
			{"scan desc", 194, 2748413},
			{"scan desc stop", 66, 914423},
			{"update scan stop", 65, 1075105},
			{"update scan desc stop", 66, 1100195},
			{"get stale near", 4, 66331},
			{"get stale far", 16, 264784},
		},
	}
	for _, tree := range []scanTree{wideTree, deepTree} {
		simFarmRun(t, 5, func(f *Farm, c *fabric.Ctx) {
			got, err := measureOps(f, c, tree)
			if err != nil {
				t.Errorf("%d-byte keys: %v", tree.keyLen, err)
				return
			}
			if !slices.Equal(got, want[tree]) {
				var b strings.Builder
				for _, g := range got {
					fmt.Fprintf(&b, "\t\t{%q, %d, %d},\n", g.op, g.reads, g.took)
				}
				t.Errorf("%d-byte keys: costs\n%s", tree.keyLen, b.String())
			}
		})
	}
}

// TestBTreeScanDirectReadsNoLeafPastStop: in Direct mode a window would
// hide no latency, so a read-only scan reads one leaf at a time, and a
// scan that stops early reads no leaf it does not visit — the serial
// walk's reads, plus, ascending, one read per further leaf parent its
// leaves span.
func TestBTreeScanDirectReadsNoLeafPastStop(t *testing.T) {
	f, c := directFarm(t, 5)
	for _, tree := range []scanTree{wideTree, deepTree} {
		bt, keys, err := tree.build(f, c)
		if err != nil {
			t.Fatal(err)
		}
		shape, err := shapeOf(f, c, bt)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkTreeShape(shape); err != nil {
			t.Fatal(err)
		}
		for _, sc := range randomCases(rand.New(rand.NewSource(11)), tree, 120) {
			sc.update = false
			walk, serial := bt.Scan, serialScan
			if sc.desc {
				walk, serial = bt.ScanDesc, serialScanDesc
			}
			got, reads, err := sc.run(f, c, bt, walk)
			if err != nil {
				t.Fatalf("%v: %v", sc, err)
			}
			if want := sc.want(keys); !slices.Equal(got, want) {
				t.Fatalf("%v: visited %d keys, oracle %d", sc, len(got), len(want))
			}
			var leaves []Addr
			_, bound, err := sc.run(f, c, bt, func(tx *Tx, from, to []byte, fn func(k, v []byte) bool) error {
				var err error
				leaves, err = serial(tx, bt, from, to, fn)
				return err
			})
			if err != nil {
				t.Fatalf("%v: serial walk: %v", sc, err)
			}
			if !sc.desc && len(leaves) > 1 {
				s := shape.leafAt[leaves[0]]
				bound += int64(shape.parentOf[s+len(leaves)-1] - shape.parentOf[s])
			}
			if reads > bound {
				t.Errorf("%d-byte keys, %v: %d reads over %d leaves, bound %d", tree.keyLen, sc, reads, len(leaves), bound)
			}
		}
	}
}
