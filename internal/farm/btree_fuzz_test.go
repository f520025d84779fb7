package farm

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"strings"
	"testing"
)

// checkNodeBytes is the fuzz property: parse either fails with errShortNode
// or yields a view all of whose accessors stay inside the image (a slip
// panics with an index error and fails the run), whose searches terminate in
// range, and which re-serializes to the bytes it was parsed from.
func checkNodeBytes(t *testing.T, img []byte) (valid bool) {
	t.Helper()
	var v nodeView
	if err := v.parse(img); err != nil {
		if !errors.Is(err, errShortNode) {
			t.Fatalf("parse error %v, want errShortNode", err)
		}
		return false
	}
	if len(v.off) != v.n+1 || int(v.off[v.n]) != len(img) {
		t.Fatalf("offset table %v does not span %d entries of a %d-byte image", v.off, v.n, len(img))
	}
	size := v.body
	for i := 0; i < v.n; i++ {
		k := v.key(i)
		size += 2 + len(k)
		if v.leaf {
			size += 2 + len(v.val(i))
		}
		if j, found := v.leafIndex(k); v.leaf && found && !bytes.Equal(v.key(j), k) {
			t.Fatalf("leafIndex(key %d) = %d, a different key", i, j)
		}
		if c := v.childIndex(k); c < 0 || c > v.n {
			t.Fatalf("childIndex(key %d) = %d out of [0,%d]", i, c, v.n)
		}
	}
	if !v.leaf {
		size += (v.n + 1) * PtrBytes
		for i := 0; i <= v.n; i++ {
			_ = v.child(i)
		}
	}
	if size != len(img) {
		t.Fatalf("accessors cover %d bytes of a %d-byte image", size, len(img))
	}
	_, _ = v.coversKey(v.hi), v.next
	if img[0]&^(nodeFlagLeaf|nodeFlagHi) == 0 {
		if again := appendNode(nil, v.leaf, v.n, v.next, v.hi, v.hasHi, img[v.body:]); !bytes.Equal(again, img) {
			t.Fatalf("re-serialized image differs:\n got %x\nwant %x", again, img)
		}
	}
	// Splices of a valid image are valid images.
	if v.n > 0 {
		var w nodeView
		val := []byte("0123456789ab") // 12 bytes: a value or a child pointer
		for _, out := range [][]byte{v.splice(0, 1, nil, nil), v.splice(v.n, v.n, []byte("k"), val), v.splice(v.n/2, v.n/2+1, []byte("k"), val)} {
			if len(out) <= 0xFFFF {
				if err := w.parse(out); err != nil {
					t.Fatalf("splice of a valid image does not parse: %v", err)
				}
			}
		}
	}
	return true
}

// FuzzBTreeNode feeds nodeView.parse arbitrary bytes, and every truncation
// of whatever parses: a node is exactly its image, so no proper prefix of a
// valid image is valid.
func FuzzBTreeNode(f *testing.F) {
	golden, err := os.ReadFile("testdata/btree_small.golden")
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Fields(string(golden)) {
		img, err := hex.DecodeString(line)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
	}
	f.Fuzz(func(t *testing.T, img []byte) {
		if !checkNodeBytes(t, img) {
			return
		}
		for cut := 0; cut < len(img); cut++ {
			if checkNodeBytes(t, img[:cut:cut]) {
				t.Fatalf("the %d-byte prefix of a valid %d-byte image parses", cut, len(img))
			}
		}
	})
}

// TestBTreeNodeDocExample parses the worked example of
// docs/btree-node-format.md, so the document cannot drift from the code.
func TestBTreeNodeDocExample(t *testing.T) {
	img, err := hex.DecodeString("03" + "0200" + "0009000001000000" + "2c010000" + "0100" + "6d" +
		"0500" + "6170706c65" + "0100" + "31" + "0400" + "6b697769" + "0000")
	if err != nil {
		t.Fatal(err)
	}
	var v nodeView
	if err := v.parse(img); err != nil {
		t.Fatal(err)
	}
	if !v.leaf || !v.hasHi || v.n != 2 || string(v.hi) != "m" || v.body != 18 ||
		v.next != (Ptr{Addr: MakeAddr(1, 0x900), Size: 300}) {
		t.Errorf("header = %+v", v)
	}
	if len(v.off) != 3 || v.off[0] != 18 || v.off[1] != 28 || v.off[2] != 36 {
		t.Errorf("offset table = %v, want [18 28 36]", v.off)
	}
	if string(v.key(0)) != "apple" || string(v.val(0)) != "1" || string(v.key(1)) != "kiwi" || len(v.val(1)) != 0 {
		t.Errorf("entries = %q→%q, %q→%q", v.key(0), v.val(0), v.key(1), v.val(1))
	}
	if i, found := v.leafIndex([]byte("kiwi")); i != 1 || !found {
		t.Errorf("leafIndex(kiwi) = %d, %v", i, found)
	}
	if v.coversKey([]byte("m")) || !v.coversKey([]byte("lz")) {
		t.Error("fence \"m\" must cover \"lz\" and not \"m\"")
	}
	checkNodeBytes(t, img)
}
