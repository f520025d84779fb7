package farm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"a1/internal/fabric"
)

// BTree is FaRM's distributed B-tree (paper §2.1/§2.2, §3.1): nodes are
// FaRM objects linked by fat ⟨address,size⟩ pointers, with a high branching
// factor and per-machine caching of internal nodes so that a lookup usually
// costs one RDMA read for the leaf instead of O(log n).
//
// Structure invariants (B-link style): nodes split to the right and are
// never merged, each node carries an upper fence key and a right-sibling
// pointer, so key ranges only ever shrink. Those invariants make the
// internal-node cache safe: a descent through stale (or newer) cached nodes
// lands at-or-left-of the correct leaf, and a short move-right walk along
// snapshot-consistent sibling pointers recovers; any failure falls back to
// an uncached descent through transactional reads.
//
// Aliasing contract: nodes are searched in their serialized form (nodeView),
// so keys and values handed out are sub-slices of a node image. The slices
// passed to a Scan/ScanDesc callback are valid for that callback only (in a
// read-only transaction the leaf sits in pooled scratch the next leaf
// overwrites); Get's result is valid for the transaction. Neither may be
// written through. A node image is never modified once built — Put and
// Delete install a fresh image — so a Get result stays what it was after a
// later write to the same leaf in the same transaction.
type BTree struct {
	farm *Farm
	desc Ptr // descriptor object holding the root pointer
}

// btreeNodeCap is the payload budget of one node; with A1's 12-byte value
// pointers and short keys this yields a branching factor of several dozen.
const btreeNodeCap = 2048

// maxMoveRight bounds the cached fast path's sibling walk before it falls
// back to a full descent.
const maxMoveRight = 8

// ErrKeyTooLarge rejects keys/values that would not leave a sane branching
// factor.
var ErrKeyTooLarge = errors.New("farm: btree key or value too large")

const btreeMaxEntry = btreeNodeCap / 4

var errShortNode = errors.New("farm: truncated btree node")

var errTooDeep = errors.New("farm: btree descent too deep")

// Node image layout (docs/btree-node-format.md has the byte tables):
//
//	flags(1: bit0 leaf, bit1 has fence) count(2) next(12) [hiLen(2) hi]
//	leaf:  count × { keyLen(2) key valLen(2) val }
//	inner: child0(12) count × { keyLen(2) key child(12) }
const (
	nodeFlagLeaf  = 1
	nodeFlagHi    = 2
	nodeHdrBytes  = 3 + PtrBytes
	nodeAllocSize = btreeNodeCap + 64 // slot requested for every node object
)

// nodeView is a B-tree node searched where it lies: the serialized image
// plus the offset of every entry, filled by parse in one bounds-checked pass
// over the length prefixes. Accessors return sub-slices of img; nothing is
// copied and img is never written through a view.
type nodeView struct {
	img   []byte
	leaf  bool
	hasHi bool
	n     int      // entries (keys)
	next  Ptr      // right sibling
	hi    []byte   // upper fence; meaningful only when hasHi
	body  int      // offset of the first byte past header and fence
	off   []uint16 // off[i] = offset of entry i; off[n] = len(img)
	buf   []byte   // scratch that read-only transactions read the image into
}

var viewPool = sync.Pool{New: func() any {
	return &nodeView{buf: make([]byte, 0, nodeAllocSize)}
}}

// release returns a view obtained from readNode to the pool.
func (v *nodeView) release() {
	v.img, v.hi = nil, nil
	viewPool.Put(v)
}

// parse points the view at img, checking every length prefix so that no
// accessor can leave the image afterwards. Anything that is not exactly one
// node fails with errShortNode.
func (v *nodeView) parse(img []byte) error {
	if len(img) < nodeHdrBytes || len(img) > math.MaxUint16 {
		return errShortNode
	}
	v.img = img
	v.leaf, v.hasHi = img[0]&nodeFlagLeaf != 0, img[0]&nodeFlagHi != 0
	v.n = int(binary.LittleEndian.Uint16(img[1:]))
	v.next = DecodePtr(img[3:])
	pos := nodeHdrBytes
	v.hi = nil
	if v.hasHi {
		end := skipBytes(img, pos)
		if end < 0 {
			return errShortNode
		}
		v.hi = img[pos+2 : end : end]
		pos = end
	}
	v.body = pos
	if !v.leaf {
		pos += PtrBytes // child 0
	}
	v.off = v.off[:0]
	for i := 0; i < v.n && pos <= len(img); i++ {
		v.off = append(v.off, uint16(pos))
		if pos = skipBytes(img, pos); pos < 0 {
			return errShortNode
		}
		if v.leaf {
			if pos = skipBytes(img, pos); pos < 0 {
				return errShortNode
			}
		} else {
			pos += PtrBytes
		}
	}
	if pos != len(img) {
		return errShortNode
	}
	v.off = append(v.off, uint16(pos))
	return nil
}

// skipBytes steps over one length-prefixed byte string at pos and returns
// the offset after it, or -1 if it does not fit in img.
func skipBytes(img []byte, pos int) int {
	if pos+2 > len(img) {
		return -1
	}
	pos += 2 + int(binary.LittleEndian.Uint16(img[pos:]))
	if pos > len(img) {
		return -1
	}
	return pos
}

func (v *nodeView) key(i int) []byte {
	p := int(v.off[i]) + 2
	end := p + int(binary.LittleEndian.Uint16(v.img[p-2:]))
	return v.img[p:end:end]
}

// val returns entry i's value (leaf only).
func (v *nodeView) val(i int) []byte {
	p := int(v.off[i])
	p += 4 + int(binary.LittleEndian.Uint16(v.img[p:]))
	end := int(v.off[i+1])
	return v.img[p:end:end]
}

// child returns child i of an inner node, 0 <= i <= n: every child pointer
// immediately precedes the entry that follows it.
func (v *nodeView) child(i int) Ptr { return DecodePtr(v.img[int(v.off[i])-PtrBytes:]) }

// childIndex returns which child of an inner node covers key: the number of
// separator keys <= key.
func (v *nodeView) childIndex(key []byte) int {
	lo, hi := 0, v.n
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(key, v.key(mid)) >= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// leafIndex returns (index, found) of key in a leaf.
func (v *nodeView) leafIndex(key []byte) (int, bool) {
	lo, hi := 0, v.n
	for lo < hi {
		mid := (lo + hi) / 2
		switch bytes.Compare(v.key(mid), key) {
		case -1:
			lo = mid + 1
		case 0:
			return mid, true
		default:
			hi = mid
		}
	}
	return lo, false
}

// coversKey reports whether key falls below the node's upper fence.
func (v *nodeView) coversKey(key []byte) bool {
	return !v.hasHi || bytes.Compare(key, v.hi) < 0
}

// appendNode appends a node image to dst: header, fence, then body, which
// is entry bytes (with the leading child pointer, for an inner node) taken
// verbatim from other images.
func appendNode(dst []byte, leaf bool, count int, next Ptr, hi []byte, hasHi bool, body []byte) []byte {
	var flags byte
	if leaf {
		flags |= nodeFlagLeaf
	}
	if hasHi {
		flags |= nodeFlagHi
	}
	dst = append(dst, flags)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(count))
	dst = AppendPtr(dst, next)
	if hasHi {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(hi)))
		dst = append(dst, hi...)
	}
	return append(dst, body...)
}

// appendEntry appends one entry: a length-prefixed key, then the value —
// length-prefixed in a leaf, the 12 bytes of a child pointer in an inner
// node.
func appendEntry(dst []byte, leaf bool, key, val []byte) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(key)))
	dst = append(dst, key...)
	if leaf {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(val)))
	}
	return append(dst, val...)
}

// splice builds the image that results from replacing entries [i, j) with
// the entry (key, val), or with nothing when key is nil: prefix ‖ entry ‖
// suffix of the old image, with the count patched. The result may exceed
// btreeNodeCap; the caller splits it then.
func (v *nodeView) splice(i, j int, key, val []byte) []byte {
	a, b := int(v.off[i]), int(v.off[j])
	count := v.n - (j - i)
	out := make([]byte, 0, len(v.img)-(b-a)+4+len(key)+len(val))
	out = append(out, v.img[:a]...)
	if key != nil {
		out = appendEntry(out, v.leaf, key, val)
		count++
	}
	out = append(out, v.img[b:]...)
	binary.LittleEndian.PutUint16(out[1:], uint16(count))
	return out
}

// cachedNode is one entry of the per-machine cache: the view (own image and
// offsets, immutable once published) of an inner node, or — under a tree's
// descriptor address — its root pointer.
type cachedNode struct {
	root Ptr
	node *nodeView
}

func (m *Machine) cacheGet(a Addr) (cachedNode, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	cn, ok := m.nodeCache[a]
	return cn, ok
}

func (m *Machine) cachePut(a Addr, cn cachedNode) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nodeCache[a] = cn
}

func (m *Machine) cacheDrop(a Addr) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.nodeCache, a)
}

// CreateBTree allocates an empty tree (descriptor + root leaf) inside tx,
// placed near hint. The returned handle is only valid after tx commits.
func CreateBTree(tx *Tx, hint Addr) (*BTree, error) {
	root, err := allocNode(tx, hint, true, 0, NilPtr, nil, false, nil)
	if err != nil {
		return nil, err
	}
	descBuf, err := tx.Alloc(PtrBytes, root.Addr)
	if err != nil {
		return nil, err
	}
	AppendPtr(descBuf.Data()[:0], root)
	return &BTree{farm: tx.farm, desc: descBuf.Ptr()}, nil
}

// OpenBTree returns a handle on an existing tree from its descriptor
// pointer (as recorded in the A1 catalog).
func OpenBTree(f *Farm, desc Ptr) *BTree {
	return &BTree{farm: f, desc: desc}
}

// Desc returns the descriptor pointer that identifies this tree.
func (bt *BTree) Desc() Ptr { return bt.desc }

// rootPtr reads the descriptor within tx.
func (bt *BTree) rootPtr(tx *Tx) (Ptr, error) {
	buf, err := tx.Read(bt.desc)
	if err != nil {
		return NilPtr, err
	}
	if len(buf.data) < PtrBytes {
		return NilPtr, errShortNode
	}
	return DecodePtr(buf.data), nil
}

// readNode fetches node p within tx into a pooled view; the caller releases
// it.
func (bt *BTree) readNode(tx *Tx, p Ptr) (*nodeView, error) {
	v := viewPool.Get().(*nodeView)
	if err := bt.fill(tx, p, v); err != nil {
		v.release()
		return nil, err
	}
	return v, nil
}

// fill points v at node p as tx sees it. A read-only transaction reads the
// image into the view's own scratch (nothing of it outlives the view, and
// tx.Read would allocate an ObjBuf and a 2 kB payload per node: +33 % on a
// Get, +50 % on a Scan); an update transaction views the tracked read
// buffer, which lives as long as the transaction. Committed inner nodes
// refresh the machine-local cache.
func (bt *BTree) fill(tx *Tx, p Ptr, v *nodeView) error {
	var img []byte
	if tx.readOnly {
		data, err := tx.ReadSizedInto(p.Addr, p.Size, v.buf)
		if err != nil {
			return err
		}
		v.buf, img = data, data
	} else {
		buf, err := tx.Read(p)
		if err != nil {
			return err
		}
		img = buf.data
	}
	if err := v.parse(img); err != nil {
		return err
	}
	if !v.leaf && !tx.wrote(p.Addr) {
		m := bt.machine(tx)
		if cn, ok := m.cacheGet(p.Addr); !ok || cn.node == nil || !bytes.Equal(cn.node.img, img) {
			own := new(nodeView)
			if err := own.parse(bytes.Clone(img)); err != nil {
				return err
			}
			m.cachePut(p.Addr, cachedNode{node: own})
		}
	}
	return nil
}

func (bt *BTree) machine(tx *Tx) *Machine { return bt.farm.machines[tx.c.M] }

// pathEntry records one node a descent read through the transaction.
type pathEntry struct {
	ptr Ptr
	v   *nodeView
}

func releasePath(path []pathEntry) {
	for _, e := range path {
		e.v.release()
	}
}

// descend walks from the root to the leaf covering key, appending each
// node it reads through tx to path (root side first, the leaf last) for
// the caller to release. Uncached, it reads every level, as a split or a
// scan needs. Cached, it starts from the machine's cached root pointer and
// steps through cached inner nodes without a read — the paper's "one RDMA
// read" lookup — and a stale cached node may leave the leaf left of the
// one covering key. Inner nodes read through tx refresh the cache (fill).
func (bt *BTree) descend(tx *Tx, key []byte, cached bool, path []pathEntry) ([]pathEntry, error) {
	m := bt.machine(tx)
	p, ok := NilPtr, false
	if cached {
		var cn cachedNode
		cn, ok = m.cacheGet(bt.desc.Addr)
		p = cn.root
	}
	if !ok {
		var err error
		if p, err = bt.rootPtr(tx); err != nil {
			return nil, err
		}
		if cached && !tx.wrote(bt.desc.Addr) {
			m.cachePut(bt.desc.Addr, cachedNode{root: p})
		}
	}
	for depth := 0; depth < 64; depth++ {
		if cached {
			if cn, ok := m.cacheGet(p.Addr); ok && cn.node != nil {
				p = cn.node.child(cn.node.childIndex(key))
				continue
			}
		}
		v, err := bt.readNode(tx, p)
		if err != nil {
			releasePath(path)
			return nil, err
		}
		path = append(path, pathEntry{ptr: p, v: v})
		if v.leaf {
			return path, nil
		}
		p = v.child(v.childIndex(key))
	}
	releasePath(path)
	return nil, errTooDeep
}

// Get returns the value stored under key, descending through the cache and
// falling back to an uncached descent on any inconsistency.
func (bt *BTree) Get(tx *Tx, key []byte) ([]byte, bool, error) {
	val, ok, err := bt.get(tx, key, true)
	if err != nil && !errors.Is(err, ErrConflict) && !errors.Is(err, ErrAborted) {
		bt.machine(tx).cacheDrop(bt.desc.Addr)
		return bt.get(tx, key, false)
	}
	return val, ok, err
}

// get looks key up in the leaf descend reaches, walking right along
// snapshot-consistent sibling pointers when a stale cached path landed
// left of the target.
func (bt *BTree) get(tx *Tx, key []byte, cached bool) ([]byte, bool, error) {
	var pathBuf [4]pathEntry
	path, err := bt.descend(tx, key, cached, pathBuf[:0])
	if err != nil {
		return nil, false, err
	}
	defer releasePath(path)
	v := path[len(path)-1].v
	for moves := 0; !v.coversKey(key); moves++ {
		if moves >= maxMoveRight || v.next.IsNil() {
			return nil, false, fmt.Errorf("btree: fence walk exhausted")
		}
		if err := bt.fill(tx, v.next, v); err != nil {
			return nil, false, err
		}
	}
	i, found := v.leafIndex(key)
	if !found {
		return nil, false, nil
	}
	val := v.val(i)
	if tx.readOnly {
		val = bytes.Clone(val) // the leaf sits in the view's pooled scratch
	}
	return val, true, nil
}

// writeNode installs img as the new image of the existing node object p.
func (bt *BTree) writeNode(tx *Tx, p Ptr, img []byte) error {
	buf, err := tx.Read(p)
	if err != nil {
		return err
	}
	if _, err := tx.openForWrite(buf, img); err != nil {
		return err
	}
	bt.machine(tx).cacheDrop(p.Addr)
	return nil
}

// allocNode allocates a new node object near an existing address and builds
// its image straight into the object's buffer.
func allocNode(tx *Tx, near Addr, leaf bool, count int, next Ptr, hi []byte, hasHi bool, body []byte) (Ptr, error) {
	buf, err := tx.Alloc(nodeAllocSize, near)
	if err != nil {
		return NilPtr, err
	}
	img := appendNode(buf.data[:0], leaf, count, next, hi, hasHi, body)
	if _, err := tx.openForWrite(buf, img); err != nil {
		return NilPtr, err
	}
	return buf.Ptr(), nil
}

// Put inserts or replaces key's value. The leaf's new image is spliced from
// the old one; while an image exceeds btreeNodeCap its node is split and the
// separator spliced into the parent, growing a new root at the top.
func (bt *BTree) Put(tx *Tx, key, val []byte) error {
	if len(key) == 0 || len(key)+len(val) > btreeMaxEntry {
		return fmt.Errorf("%w: %d bytes", ErrKeyTooLarge, len(key)+len(val))
	}
	var pathBuf [4]pathEntry
	path, err := bt.descend(tx, key, false, pathBuf[:0])
	if err != nil {
		return err
	}
	defer releasePath(path)
	level := len(path) - 1
	i, found := path[level].v.leafIndex(key)
	j := i
	if found {
		j++
	}
	img := path[level].v.splice(i, j, key, val)
	var big nodeView
	var ptrBuf [PtrBytes]byte
	for len(img) > btreeNodeCap {
		if err := big.parse(img); err != nil {
			return err
		}
		sep, right, err := bt.splitNode(tx, path[level].ptr, &big)
		if err != nil {
			return err
		}
		if level == 0 {
			return bt.growRoot(tx, path[0].ptr, sep, right)
		}
		level--
		parent := path[level].v
		pi := parent.childIndex(sep)
		img = parent.splice(pi, pi, sep, AppendPtr(ptrBuf[:0], right))
	}
	return bt.writeNode(tx, path[level].ptr, img)
}

// growRoot replaces a split root by a new root referencing the two halves.
func (bt *BTree) growRoot(tx *Tx, left Ptr, sep []byte, right Ptr) error {
	body := AppendPtr(make([]byte, 0, 2*PtrBytes+2+len(sep)), left)
	body = appendEntry(body, false, sep, AppendPtr(nil, right))
	root, err := allocNode(tx, left.Addr, false, 1, NilPtr, nil, false, body)
	if err != nil {
		return err
	}
	descBuf, err := tx.Read(bt.desc)
	if err != nil {
		return err
	}
	w, err := tx.OpenForWrite(descBuf)
	if err != nil {
		return err
	}
	AppendPtr(w.Data()[:0], root)
	bt.machine(tx).cacheDrop(bt.desc.Addr)
	return nil
}

// splitNode writes the oversized image big as two nodes: the upper half
// goes to a fresh right sibling, the lower half (fenced by the separator,
// linked to the sibling) back into node p. In an inner node the separator
// moves up, becoming the right node's implicit low bound. Returns the
// separator key (a sub-slice of big) and the new node's pointer.
func (bt *BTree) splitNode(tx *Tx, p Ptr, big *nodeView) ([]byte, Ptr, error) {
	mid := big.n / 2
	sep := big.key(mid)
	leftEnd := int(big.off[mid])
	rightStart, rightCount := leftEnd, big.n-mid
	if !big.leaf {
		rightStart, rightCount = int(big.off[mid+1])-PtrBytes, big.n-mid-1
	}
	right, err := allocNode(tx, p.Addr, big.leaf, rightCount, big.next, big.hi, big.hasHi, big.img[rightStart:])
	if err != nil {
		return nil, NilPtr, err
	}
	left := appendNode(make([]byte, 0, leftEnd+2+len(sep)), big.leaf, mid, right, sep, true, big.img[big.body:leftEnd])
	if err := bt.writeNode(tx, p, left); err != nil {
		return nil, NilPtr, err
	}
	return sep, right, nil
}

// Delete removes key, reporting whether it was present. Nodes are never
// merged (emptied leaves remain as range placeholders), matching the
// split-only invariant the node cache relies on.
func (bt *BTree) Delete(tx *Tx, key []byte) (bool, error) {
	var pathBuf [4]pathEntry
	path, err := bt.descend(tx, key, false, pathBuf[:0])
	if err != nil {
		return false, err
	}
	defer releasePath(path)
	leaf := path[len(path)-1]
	i, found := leaf.v.leafIndex(key)
	if !found {
		return false, nil
	}
	return true, bt.writeNode(tx, leaf.ptr, leaf.v.splice(i, i+1, nil, nil))
}

// Scan visits entries with from <= key < to in order (nil to = +infinity).
// It descends to the leaf covering from, then takes the leaves to its right
// from their parent's child list, moving to the parent's right sibling when
// the list runs out, and reads them in scanLeaves' windows. fn returns false
// to stop early; the slices it receives are valid until it returns.
func (bt *BTree) Scan(tx *Tx, from, to []byte, fn func(key, val []byte) bool) error {
	visit := func(v *nodeView) bool {
		for i, _ := v.leafIndex(from); i < v.n; i++ {
			k := v.key(i)
			if to != nil && bytes.Compare(k, to) >= 0 || !fn(k, v.val(i)) {
				return false
			}
		}
		return true
	}
	var pathBuf [4]pathEntry
	path, err := bt.descend(tx, from, false, pathBuf[:0])
	if err != nil {
		return err
	}
	defer releasePath(path)
	leaf := path[len(path)-1].v
	if len(path) == 1 {
		visit(leaf)
		return nil
	}
	up := path[len(path)-2].v
	i := up.childIndex(from)
	// Child i covers [key(i-1), key(i)), and a leaf parent's fence is its
	// last child's: the next leaf is in range while the bound below it is.
	_, err = bt.scanLeaves(tx, leaf, func() (Ptr, bool, error) {
		for i >= up.n {
			if up.next.IsNil() || up.hasHi && to != nil && bytes.Compare(up.hi, to) >= 0 {
				return NilPtr, false, nil
			}
			if err := bt.fill(tx, up.next, up); err != nil {
				return NilPtr, false, err
			}
			i = -1
		}
		i++
		if i > 0 && to != nil && bytes.Compare(up.key(i-1), to) >= 0 {
			return NilPtr, false, nil
		}
		return up.child(i), true, nil
	}, visit)
	return err
}

// maxLeafWindow caps the leaf reads a range scan keeps in flight.
const maxLeafWindow = 32

// scanLeaves visits first, then the leaves next yields, in key order, until
// visit returns false (cont=false) or next runs out. Where concurrent reads
// hide one another's waits (fabric.Ctx.Overlaps: Sim mode), a read-only
// transaction takes the leaves after first in windows of 2, 4, …
// maxLeafWindow and issues each window's reads together through Parallel:
// a long scan waits one round trip per window rather than per leaf, and one
// that stops early has read at most twice the leaves it visited. Elsewhere,
// and in every update transaction, each window holds one leaf, so a scan
// reads no leaf — and next reads no leaf parent — it does not reach: an
// update transaction's tracked read set must not be shared between
// processes, and a node its scan never reaches must not join its
// commit-time validation. Errors surface in key order, after every leaf
// before the failed read has been visited.
func (bt *BTree) scanLeaves(tx *Tx, first *nodeView, next func() (Ptr, bool, error), visit func(*nodeView) bool) (cont bool, err error) {
	if !visit(first) {
		return false, nil
	}
	var win struct {
		ptrs  [maxLeafWindow]Ptr
		views [maxLeafWindow]*nodeView
		errs  [maxLeafWindow]error
	}
	read := func(i int, c *fabric.Ctx) {
		win.views[i], win.errs[i] = bt.readNode(tx.On(c), win.ptrs[i])
	}
	defer func() {
		for _, v := range win.views {
			if v != nil {
				v.release()
			}
		}
	}()
	grow := 1
	if tx.readOnly && tx.c.Overlaps() {
		grow = 2
	}
	for w := grow; ; w = min(grow*w, maxLeafWindow) {
		n, ok := 0, true
		var tail error
		for ; n < w; n++ {
			var p Ptr
			if p, ok, tail = next(); !ok || tail != nil {
				break
			}
			win.ptrs[n] = p
		}
		// An update transaction's window holds one leaf, which Parallel
		// reads inline on tx's own context.
		tx.c.Parallel(n, read)
		for i := 0; i < n; i++ {
			if win.errs[i] != nil {
				return false, win.errs[i]
			}
			more := visit(win.views[i])
			win.views[i].release()
			win.views[i] = nil
			if !more {
				return false, nil
			}
		}
		if !ok || tail != nil {
			return tail == nil, tail
		}
	}
}

// ScanDesc visits entries with from <= key < to in descending key order
// (nil to = +infinity), so callers can stop early at the high end of a
// range — the iteration direction behind descending ordered index scans.
// Leaves carry only right-sibling pointers, so the reverse walk is a
// right-to-left depth-first descent instead of a leaf chain: every node is
// read through the transaction, whose snapshot is internally consistent,
// so no fence walks are needed. fn returns false to stop early; the slices
// it receives are valid until it returns.
func (bt *BTree) ScanDesc(tx *Tx, from, to []byte, fn func(key, val []byte) bool) error {
	visit := func(v *nodeView) bool {
		for i := v.n - 1; i >= 0; i-- {
			k := v.key(i)
			if to != nil && bytes.Compare(k, to) >= 0 {
				continue
			}
			if from != nil && bytes.Compare(k, from) < 0 || !fn(k, v.val(i)) {
				return false
			}
		}
		return true
	}
	p, err := bt.rootPtr(tx)
	if err != nil {
		return err
	}
	v, err := bt.readNode(tx, p)
	if err != nil {
		return err
	}
	defer v.release()
	_, err = bt.scanDescNode(tx, v, from, to, visit, 1)
	return err
}

// scanDescNode visits the subtree under v right to left. cont=false
// propagates an early stop. Under a leaf parent the rightmost in-range leaf
// is read alone and the rest of the parent's in-range children, right to
// left, in scanLeaves' windows.
func (bt *BTree) scanDescNode(tx *Tx, v *nodeView, from, to []byte, visit func(*nodeView) bool, depth int) (cont bool, err error) {
	if v.leaf {
		return visit(v), nil
	}
	if depth >= 64 {
		return false, errTooDeep
	}
	// Child i covers [key(i-1), key(i)): children above hi lie entirely
	// above the range, children below lo entirely below it.
	lo, hi := v.childIndex(from), v.n
	if to != nil {
		hi, _ = v.leafIndex(to) // the separators < to
	}
	if hi < lo {
		return false, nil
	}
	c, err := bt.readNode(tx, v.child(hi))
	if err != nil {
		return false, err
	}
	defer c.release()
	if c.leaf {
		i := hi
		return bt.scanLeaves(tx, c, func() (Ptr, bool, error) {
			if i == lo {
				return NilPtr, false, nil
			}
			i--
			return v.child(i), true, nil
		}, visit)
	}
	for i := hi; ; i-- {
		if cont, err := bt.scanDescNode(tx, c, from, to, visit, depth+1); err != nil || !cont || i == lo {
			return cont, err
		}
		if err := bt.fill(tx, v.child(i-1), c); err != nil {
			return false, err
		}
	}
}

// Count returns the number of entries in [from, to).
func (bt *BTree) Count(tx *Tx, from, to []byte) (int, error) {
	count := 0
	err := bt.Scan(tx, from, to, func(_, _ []byte) bool {
		count++
		return true
	})
	return count, err
}

// Drop frees every node of the tree and its descriptor, batching frees
// across transactions so arbitrarily large trees can be dismantled without
// one giant transaction. It is used by the DeleteType/DeleteGraph
// asynchronous workflows (paper §3.3).
func (bt *BTree) Drop(c *fabric.Ctx, batch int) error {
	if batch <= 0 {
		batch = 64
	}
	all, err := bt.nodePtrs(c)
	if err != nil {
		return err
	}
	all = append(all, bt.desc)
	for start := 0; start < len(all); start += batch {
		end := start + batch
		if end > len(all) {
			end = len(all)
		}
		chunk := all[start:end]
		err := RunTransaction(c, bt.farm, func(tx *Tx) error {
			for _, p := range chunk {
				buf, err := tx.Read(p)
				if errors.Is(err, ErrNotFound) {
					continue
				}
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
			return err
		}
	}
	for _, p := range all {
		bt.farm.machines[c.M].cacheDrop(p.Addr)
	}
	return nil
}

// nodePtrs collects the tree's node pointers level by level in one
// read-only pass.
func (bt *BTree) nodePtrs(c *fabric.Ctx) ([]Ptr, error) {
	rtx := bt.farm.CreatePinnedReadTransaction(c)
	defer rtx.Abort()
	level, err := bt.rootPtr(rtx)
	if err != nil {
		return nil, err
	}
	v := viewPool.Get().(*nodeView)
	defer v.release()
	var all []Ptr
	for !level.IsNil() {
		var nextLevel Ptr
		for p := level; !p.IsNil(); p = v.next {
			if err := bt.fill(rtx, p, v); err != nil {
				return nil, err
			}
			all = append(all, p)
			if nextLevel.IsNil() && !v.leaf {
				nextLevel = v.child(0)
			}
		}
		level = nextLevel
	}
	return all, nil
}
