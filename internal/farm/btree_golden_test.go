package farm

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"a1/internal/fabric"
)

// updateGolden rewrites testdata/*.golden from the running code. The files
// committed here were recorded at the parent of the commit that introduced
// nodeView (the last one with decodeNode/encode), so a green run proves the
// node wire format did not move; never regenerate them to make a failing
// run pass.
var updateGolden = flag.Bool("update-golden", false, "rewrite B-tree golden files")

// treeImages returns every node image of the tree, level by level from the
// root, left to right along the sibling chain — the order Drop collects them.
func treeImages(t *testing.T, f *Farm, c *fabric.Ctx, bt *BTree) [][]byte {
	t.Helper()
	rtx := f.CreateReadTransaction(c)
	level, err := bt.rootPtr(rtx)
	if err != nil {
		t.Fatal(err)
	}
	var imgs [][]byte
	for !level.IsNil() {
		nextLevel := NilPtr
		for p := level; !p.IsNil(); {
			buf, err := rtx.Read(p)
			if err != nil {
				t.Fatal(err)
			}
			imgs = append(imgs, buf.Data())
			leaf, first, next, err := nodeLinks(buf.Data())
			if err != nil {
				t.Fatal(err)
			}
			if nextLevel.IsNil() && !leaf {
				nextLevel = first
			}
			p = next
		}
		level = nextLevel
	}
	return imgs
}

// nodeLinks reads from a node image what a level-by-level walk needs.
func nodeLinks(img []byte) (leaf bool, first, next Ptr, err error) {
	var v nodeView
	if err := v.parse(img); err != nil {
		return false, NilPtr, NilPtr, err
	}
	if !v.leaf {
		first = v.child(0)
	}
	return v.leaf, first, v.next, nil
}

// goldenSmallTree drives a seeded mix of inserts, replaces (shorter and
// longer values) and deletes with wide values, so a handful of leaves and a
// root cover every splice shape in under 10 kB of images.
func goldenSmallTree(t *testing.T, f *Farm, c *fabric.Ctx) *BTree {
	t.Helper()
	bt := newTestBTree(t, f, c)
	r := rand.New(rand.NewSource(14))
	perm := r.Perm(60)
	for start := 0; start < len(perm); start += 10 {
		chunk := perm[start : start+10]
		err := RunTransaction(c, f, func(tx *Tx) error {
			for _, i := range chunk {
				val := bytes.Repeat([]byte{byte('a' + i%26)}, 100+i%50)
				if err := bt.Put(tx, []byte(fmt.Sprintf("g%04d", i)), val); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	err := RunTransaction(c, f, func(tx *Tx) error {
		for i := 0; i < 60; i++ {
			key := []byte(fmt.Sprintf("g%04d", i))
			switch {
			case i%7 == 0:
				if _, err := bt.Delete(tx, key); err != nil {
					return err
				}
			case i%5 == 0:
				if err := bt.Put(tx, key, []byte("short")); err != nil {
					return err
				}
			case i%11 == 0:
				if err := bt.Put(tx, key, bytes.Repeat([]byte("L"), 300)); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return bt
}

// goldenLargeTree grows a three-level tree from short keys and pointer-sized
// values (the shape of A1's indexes), then deletes and replaces a slice of it.
func goldenLargeTree(t *testing.T, f *Farm, c *fabric.Ctx) *BTree {
	t.Helper()
	bt := newTestBTree(t, f, c)
	r := rand.New(rand.NewSource(15))
	perm := r.Perm(12000)
	for start := 0; start < len(perm); start += 200 {
		chunk := perm[start : start+200]
		err := RunTransaction(c, f, func(tx *Tx) error {
			for _, i := range chunk {
				val := []byte(fmt.Sprintf("ptr-%08d", i))
				if err := bt.Put(tx, []byte(fmt.Sprintf("key-%06d", i)), val); err != nil {
					return err
				}
				if i%9 == 0 {
					if _, err := bt.Delete(tx, []byte(fmt.Sprintf("key-%06d", perm[r.Intn(start+1)]))); err != nil {
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
	return bt
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := "testdata/" + name
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s: node images differ from the recorded wire format\n got: %.200s…\nwant: %.200s…", name, got, want)
	}
}

// TestBTreeWireFormatGolden holds node images byte-for-byte against the ones
// the decode/encode representation produced: every image of a small tree in
// hex, and count + digest + allocated bytes of a three-level one. Each farm
// holds a pin from before its first write, so every superseded version is
// kept as it was when the files were recorded and allocation — hence every
// address in the images — runs as it did then.
func TestBTreeWireFormatGolden(t *testing.T) {
	f, c := directFarm(t, 5)
	_, unpin := f.PinCurrent()
	var sb strings.Builder
	for _, img := range treeImages(t, f, c, goldenSmallTree(t, f, c)) {
		sb.WriteString(hex.EncodeToString(img))
		sb.WriteByte('\n')
	}
	unpin()
	checkGolden(t, "btree_small.golden", sb.String())

	f, c = directFarm(t, 5)
	_, unpin = f.PinCurrent()
	imgs := treeImages(t, f, c, goldenLargeTree(t, f, c))
	unpin()
	h := sha256.New()
	for _, img := range imgs {
		h.Write(img)
	}
	checkGolden(t, "btree_large.golden",
		fmt.Sprintf("nodes %d\nsha256 %x\nused_bytes %d\n", len(imgs), h.Sum(nil), f.UsedBytes()))

	// With no reader, each commit frees the versions it supersedes: the same
	// tree is left holding one slot per node and per value, not 5,200,992
	// bytes of version records.
	f, c = directFarm(t, 5)
	imgs = treeImages(t, f, c, goldenLargeTree(t, f, c))
	if got := f.UsedBytes(); len(imgs) != 213 || got != 654400 {
		t.Errorf("large tree without a reader: %d nodes, %d used bytes; want 213, 654400", len(imgs), got)
	}
}
