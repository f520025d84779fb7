package farm

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"a1/internal/fabric"
)

// Range scans read their leaves in overlapping windows. These tests hold
// them to a sorted oracle and to the leaf-chain walk they replaced
// (serialScan, serialScanDesc below): the same entries in the same order,
// at most twice the leaves read, and on the Sim clock a fraction of a
// serial walk's time.

// scanTree is one shape of tree the scan tests build: n keys of keyLen
// bytes with 12-byte values, inserted in a seeded random order.
type scanTree struct {
	n, keyLen int
}

var (
	// wideTree has short keys, so leaf parents hold 50–100 children and
	// both directions' windows reach maxLeafWindow inside one parent.
	wideTree = scanTree{n: 8000, keyLen: 9}
	// deepTree has 400-byte keys: four or five entries per node, so a few
	// hundred keys build five levels and dozens of leaf parents.
	deepTree = scanTree{n: 300, keyLen: 400}
)

// key returns the i-th key of the tree's key space; the tree stores the
// even ones, so odd ones fall between stored keys as range bounds.
func (s scanTree) key(i int) string {
	k := fmt.Sprintf("k%06d", i)
	return k + strings.Repeat("-", s.keyLen-len(k))
}

// build creates the tree from c (its nodes are placed on c's machine) and
// returns it with its keys in order. It reports failure as an error, since
// it also runs inside Sim processes, where t.Fatal would hang the test.
func (s scanTree) build(f *Farm, c *fabric.Ctx) (*BTree, []string, error) {
	var bt *BTree
	err := RunTransaction(c, f, func(tx *Tx) error {
		var err error
		bt, err = CreateBTree(tx, NilAddr)
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("CreateBTree: %w", err)
	}
	keys := make([]string, s.n)
	for i := range keys {
		keys[i] = s.key(2 * i)
	}
	perm := rand.New(rand.NewSource(int64(s.n))).Perm(s.n)
	for start := 0; start < len(perm); start += 500 {
		err := RunTransaction(c, f, func(tx *Tx) error {
			for _, i := range perm[start:min(start+500, len(perm))] {
				if err := bt.Put(tx, []byte(keys[i]), []byte(fmt.Sprintf("v%011d", i))); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, nil, fmt.Errorf("Put: %w", err)
		}
	}
	return bt, keys, nil
}

// scanShape is what a level walk finds of a tree: its depth, its leaves
// left to right, and the position of each leaf's parent among the leaf
// parents.
type scanShape struct {
	depth    int
	parents  int
	leaves   []Ptr
	leafAt   map[Addr]int
	parentOf []int
}

func shapeOf(f *Farm, c *fabric.Ctx, bt *BTree) (scanShape, error) {
	rtx := f.CreateReadTransaction(c)
	level, err := bt.rootPtr(rtx)
	if err != nil {
		return scanShape{}, err
	}
	s := scanShape{leafAt: map[Addr]int{}}
	var above []int // child counts of the level above, left to right
	for s.depth = 1; ; s.depth++ {
		var nodes []Ptr
		var counts []int
		first, leaf := NilPtr, false
		for p := level; !p.IsNil(); {
			v, err := bt.readNode(rtx, p)
			if err != nil {
				return scanShape{}, err
			}
			nodes, leaf = append(nodes, p), v.leaf
			if !leaf {
				counts = append(counts, v.n+1)
				if first.IsNil() {
					first = v.child(0)
				}
			}
			p = v.next
			v.release()
		}
		if leaf {
			s.leaves, s.parents = nodes, len(above)
			for i, p := range nodes {
				s.leafAt[p.Addr] = i
			}
			for i, n := range above {
				for ; n > 0; n-- {
					s.parentOf = append(s.parentOf, i)
				}
			}
			if above == nil { // the root is the only leaf
				s.parentOf = []int{0}
			}
			return s, nil
		}
		above, level = counts, first
	}
}

// serialScan is the walk Scan made before its leaf reads overlapped:
// descend to the leaf covering from, then follow sibling pointers, one read
// at a time. It returns the leaves it read, in order.
func serialScan(tx *Tx, bt *BTree, from, to []byte, fn func(k, v []byte) bool) ([]Addr, error) {
	p, err := bt.rootPtr(tx)
	if err != nil {
		return nil, err
	}
	v, err := bt.readNode(tx, p)
	if err != nil {
		return nil, err
	}
	defer v.release()
	for !v.leaf {
		p = v.child(v.childIndex(from))
		if err := bt.fill(tx, p, v); err != nil {
			return nil, err
		}
	}
	var leaves []Addr
	for {
		leaves = append(leaves, p.Addr)
		for i, _ := v.leafIndex(from); i < v.n; i++ {
			k := v.key(i)
			if to != nil && bytes.Compare(k, to) >= 0 || !fn(k, v.val(i)) {
				return leaves, nil
			}
		}
		if v.next.IsNil() || v.hasHi && to != nil && bytes.Compare(v.hi, to) >= 0 {
			return leaves, nil
		}
		p = v.next
		if err := bt.fill(tx, p, v); err != nil {
			return leaves, err
		}
	}
}

// serialScanDesc is ScanDesc's right-to-left depth-first walk before its
// leaf reads overlapped, one node read at a time. It returns the leaves it
// read, in order.
func serialScanDesc(tx *Tx, bt *BTree, from, to []byte, fn func(k, v []byte) bool) ([]Addr, error) {
	var leaves []Addr
	var walk func(p Ptr) (bool, error)
	walk = func(p Ptr) (bool, error) {
		v, err := bt.readNode(tx, p)
		if err != nil {
			return false, err
		}
		defer v.release()
		if v.leaf {
			leaves = append(leaves, p.Addr)
			for i := v.n - 1; i >= 0; i-- {
				k := v.key(i)
				if to != nil && bytes.Compare(k, to) >= 0 {
					continue
				}
				if from != nil && bytes.Compare(k, from) < 0 || !fn(k, v.val(i)) {
					return false, nil
				}
			}
			return true, nil
		}
		for i := v.n; i >= 0; i-- {
			if to != nil && i > 0 && bytes.Compare(v.key(i-1), to) >= 0 {
				continue
			}
			if from != nil && i < v.n && bytes.Compare(v.key(i), from) <= 0 {
				return false, nil
			}
			if cont, err := walk(v.child(i)); err != nil || !cont {
				return cont, err
			}
		}
		return true, nil
	}
	p, err := bt.rootPtr(tx)
	if err != nil {
		return nil, err
	}
	_, err = walk(p)
	return leaves, err
}

// scanCase is one scan: a range, where the callback stops (0 = never),
// the direction, and the kind of transaction.
type scanCase struct {
	from, to []byte
	stop     int
	desc     bool
	update   bool
}

func (sc scanCase) String() string {
	return fmt.Sprintf("[%.7s, %.7s) stop=%d desc=%v update=%v", sc.from, sc.to, sc.stop, sc.desc, sc.update)
}

// want is the oracle: the sorted keys in [from, to), in the scan's
// direction, cut at the stop.
func (sc scanCase) want(keys []string) []string {
	var out []string
	for _, k := range keys {
		if (sc.from == nil || k >= string(sc.from)) && (sc.to == nil || k < string(sc.to)) {
			out = append(out, k)
		}
	}
	if sc.desc {
		slices.Reverse(out)
	}
	if sc.stop > 0 && len(out) > sc.stop {
		out = out[:sc.stop]
	}
	return out
}

// run scans through a fresh transaction on c and returns the keys visited
// and the object reads the scan made. An update transaction is aborted
// afterwards.
func (sc scanCase) run(f *Farm, c *fabric.Ctx, bt *BTree, walk func(tx *Tx, from, to []byte, fn func(k, v []byte) bool) error) ([]string, int64, error) {
	var st fabric.OpStats
	sctx := c.WithStats(&st)
	tx := f.CreateReadTransaction(sctx)
	if sc.update {
		tx = f.CreateTransaction(sctx)
		defer tx.Abort()
	}
	var got []string
	err := walk(tx, sc.from, sc.to, func(k, _ []byte) bool {
		got = append(got, string(k))
		return sc.stop == 0 || len(got) < sc.stop
	})
	return got, st.TotalReads(), err
}

// check runs sc through Scan or ScanDesc and through the serial walk, and
// reports the first way the scan departs from the oracle, from the serial
// walk's order, or from the over-read bound: at most twice the leaves the
// serial walk read, plus, ascending, one read per further leaf parent those
// leaves span; exactly the serial walk's reads when it stopped inside its
// first leaf.
func (sc scanCase) check(f *Farm, c *fabric.Ctx, bt *BTree, keys []string, shape scanShape) error {
	walk, serial := bt.Scan, serialScan
	if sc.desc {
		walk, serial = bt.ScanDesc, serialScanDesc
	}
	got, reads, err := sc.run(f, c, bt, walk)
	if err != nil {
		return fmt.Errorf("%v: %v", sc, err)
	}
	if want := sc.want(keys); !slices.Equal(got, want) {
		return fmt.Errorf("%v: visited %d keys, oracle %d (first difference near %v)", sc, len(got), len(want), firstDiff(got, want))
	}
	var leaves []Addr
	_, serialReads, err := sc.run(f, c, bt, func(tx *Tx, from, to []byte, fn func(k, v []byte) bool) error {
		var err error
		leaves, err = serial(tx, bt, from, to, fn)
		return err
	})
	if err != nil {
		return fmt.Errorf("%v: serial walk: %v", sc, err)
	}
	bound := serialReads
	if len(leaves) > 1 {
		bound += int64(len(leaves))
		if !sc.desc {
			s, ok := shape.leafAt[leaves[0]]
			if !ok {
				return fmt.Errorf("%v: serial walk's first leaf is not in the tree's shape", sc)
			}
			last := min(s+2*len(leaves)-1, len(shape.parentOf)-1)
			bound += int64(shape.parentOf[last] - shape.parentOf[s])
		}
	}
	if reads > bound {
		return fmt.Errorf("%v: %d reads; the serial walk made %d over %d leaves, bound %d", sc, reads, serialReads, len(leaves), bound)
	}
	return nil
}

func firstDiff(a, b []string) string {
	for i := 0; i < min(len(a), len(b)); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("entry %d: %.7s vs %.7s", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("entry %d", min(len(a), len(b)))
}

// randomCases draws n scans over a tree of the given shape: bounds on and
// between stored keys, or open; a stop in the first leaf, deep in the
// range, or none; both directions; both kinds of transaction.
func randomCases(r *rand.Rand, tree scanTree, n int) []scanCase {
	bound := func() []byte {
		if r.Intn(5) == 0 {
			return nil
		}
		return []byte(tree.key(r.Intn(2*tree.n + 2)))
	}
	cases := make([]scanCase, n)
	for i := range cases {
		sc := scanCase{from: bound(), to: bound(), desc: r.Intn(2) == 0, update: r.Intn(3) == 0}
		if sc.from != nil && sc.to != nil && bytes.Compare(sc.from, sc.to) > 0 {
			sc.from, sc.to = sc.to, sc.from
		}
		switch r.Intn(3) {
		case 0:
			sc.stop = 1 + r.Intn(3)
		case 1:
			sc.stop = 1 + r.Intn(tree.n)
		}
		cases[i] = sc
	}
	return cases
}

// checkTreeShape fails unless the tree has the depth and leaf parents the
// scan tests need to mean much.
func checkTreeShape(shape scanShape) error {
	if shape.depth < 3 || shape.parents < 2 {
		return fmt.Errorf("tree has %d levels and %d leaf parents, want >= 3 and >= 2", shape.depth, shape.parents)
	}
	return nil
}

// scanOracle builds each tree shape on c and checks random scans of it
// against the oracle; it returns the first failure.
func scanOracle(f *Farm, c *fabric.Ctx) error {
	for _, tree := range []scanTree{wideTree, deepTree} {
		bt, keys, err := tree.build(f, c)
		if err != nil {
			return err
		}
		shape, err := shapeOf(f, c, bt)
		if err != nil {
			return err
		}
		if err := checkTreeShape(shape); err != nil {
			return err
		}
		full := []scanCase{{}, {desc: true}, {update: true}, {desc: true, update: true}}
		for _, sc := range append(full, randomCases(rand.New(rand.NewSource(7)), tree, 120)...) {
			if err := sc.check(f, c, bt, keys, shape); err != nil {
				return fmt.Errorf("%d-byte keys: %w", tree.keyLen, err)
			}
		}
	}
	return nil
}

// TestBTreeScanReadAhead holds windowed scans to the oracle and the
// over-read bound in Direct mode, where a window's reads run inline.
func TestBTreeScanReadAhead(t *testing.T) {
	f, c := directFarm(t, 5)
	if err := scanOracle(f, c); err != nil {
		t.Fatal(err)
	}
}

// TestBTreeScanReadAheadSim is the same in Sim mode, where a window's reads
// run as concurrent processes.
func TestBTreeScanReadAheadSim(t *testing.T) {
	simFarmRun(t, 5, func(f *Farm, c *fabric.Ctx) {
		if err := scanOracle(f, c); err != nil {
			t.Error(err)
		}
	})
}

// TestBTreeUpdateScanReadSetSim: an update transaction's scan reads each
// node only when its walk reaches it, so in Sim mode, where read-only scans
// read ahead in windows, an ascending update scan's read set — what commit
// validates — is the one it has in Direct mode: a scan that stops early
// holds no leaf parent beyond the leaf it stopped in.
func TestBTreeUpdateScanReadSetSim(t *testing.T) {
	cases := randomCases(rand.New(rand.NewSource(3)), wideTree, 96)
	for i := range cases {
		cases[i].desc, cases[i].update = false, true
	}
	// readSets builds the tree on c and returns each case's read-set size.
	readSets := func(f *Farm, c *fabric.Ctx) ([]int, error) {
		bt, keys, err := wideTree.build(f, c)
		if err != nil {
			return nil, err
		}
		sizes := make([]int, len(cases))
		for i, sc := range cases {
			tx := f.CreateTransaction(c)
			var got []string
			err := bt.Scan(tx, sc.from, sc.to, func(k, _ []byte) bool {
				got = append(got, string(k))
				return sc.stop == 0 || len(got) < sc.stop
			})
			sizes[i] = len(tx.reads)
			tx.Abort()
			if err != nil {
				return nil, fmt.Errorf("%v: %v", sc, err)
			}
			if want := sc.want(keys); !slices.Equal(got, want) {
				return nil, fmt.Errorf("%v: visited %d keys, oracle %d", sc, len(got), len(want))
			}
		}
		return sizes, nil
	}
	f, c := directFarm(t, 5)
	direct, err := readSets(f, c)
	if err != nil {
		t.Fatal(err)
	}
	simFarmRun(t, 5, func(f *Farm, c *fabric.Ctx) {
		sim, err := readSets(f, c)
		if err != nil {
			t.Error(err)
			return
		}
		for i, sc := range cases {
			if sim[i] != direct[i] {
				t.Errorf("%v: read set of %d objects in Sim, %d in Direct", sc, sim[i], direct[i])
			}
		}
	})
}

// TestBTreeScanOverlapsRemoteReads: with every node of a tree on one remote
// machine, a full scan takes at most a quarter of the Sim time of reading
// the same leaves one after another.
func TestBTreeScanOverlapsRemoteReads(t *testing.T) {
	simFarmRun(t, 5, func(f *Farm, c *fabric.Ctx) {
		const owner = fabric.MachineID(2)
		bt, keys, err := wideTree.build(f, f.Fabric().NewCtx(owner, c.P))
		var shape scanShape
		if err == nil {
			shape, err = shapeOf(f, c, bt)
		}
		if err == nil {
			err = checkTreeShape(shape)
		}
		if err != nil {
			t.Error(err)
			return
		}
		for _, p := range shape.leaves {
			if m, err := f.PrimaryOf(c, p.Addr); err != nil || m != owner {
				t.Errorf("leaf %v on %v (%v), want %v", p.Addr, m, err, owner)
				return
			}
		}
		rtx := f.CreateReadTransaction(c)
		start := c.Now()
		n := 0
		if err := bt.Scan(rtx, nil, nil, func(_, _ []byte) bool { n++; return true }); err != nil || n != len(keys) {
			t.Errorf("Scan visited %d of %d keys: %v", n, len(keys), err)
			return
		}
		scan := c.Now() - start
		start = c.Now()
		var buf []byte
		for _, p := range shape.leaves {
			if buf, err = rtx.ReadSizedInto(p.Addr, p.Size, buf); err != nil {
				t.Error(err)
				return
			}
		}
		serial := c.Now() - start
		if 4*scan > serial {
			t.Errorf("full scan of %d leaves took %v, serial leaf reads %v: want at most a quarter", len(shape.leaves), scan, serial)
		}
	})
}

// FuzzBTreeScan is a differential test of Scan and ScanDesc against a
// sorted slice. The fuzz bytes choose the key set (each byte adds a run of
// keys), the range, where the callback stops and the direction.
func FuzzBTreeScan(f *testing.F) {
	f.Add([]byte("A1"), uint16(0), uint16(0), uint16(0), false)
	f.Add([]byte{0, 40, 80, 120, 160, 200, 240}, uint16(90), uint16(2000), uint16(7), true)
	f.Fuzz(func(t *testing.T, runs []byte, from, to, stop uint16, desc bool) {
		tree := scanTree{keyLen: 120}
		set := map[string]bool{}
		for i, b := range runs[:min(len(runs), 24)] {
			for j := 0; j < 1+int(b)%32; j++ {
				set[tree.key(2*(int(b)*16+i+j*5))] = true
			}
		}
		keys := make([]string, 0, len(set))
		for k := range set {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		fm, c := directFarm(t, 3)
		bt := newTestBTree(t, fm, c)
		err := RunTransaction(c, fm, func(tx *Tx) error {
			for _, k := range keys {
				if err := bt.Put(tx, []byte(k), []byte("v")); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		sc := scanCase{stop: int(stop % 512), desc: desc}
		if from > 0 {
			sc.from = []byte(tree.key(int(from) - 1))
		}
		if to > 0 {
			sc.to = []byte(tree.key(int(to) - 1))
		}
		walk := bt.Scan
		if desc {
			walk = bt.ScanDesc
		}
		got, _, err := sc.run(fm, c, bt, walk)
		if err != nil {
			t.Fatal(err)
		}
		if want := sc.want(keys); !slices.Equal(got, want) {
			t.Fatalf("%v: visited %d keys, oracle %d (first difference near %v)", sc, len(got), len(want), firstDiff(got, want))
		}
	})
}
