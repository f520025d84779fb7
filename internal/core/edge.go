package core

import (
	"encoding/binary"
	"fmt"

	"a1/internal/bond"
	"a1/internal/farm"
)

// Edge storage (paper §3.2, Figure 7): an edge from v1 to v2 is a 3-part
// object — an outgoing half-edge ⟨edge type, v2 pointer, data pointer⟩ on
// v1, an incoming half-edge ⟨edge type, v1 pointer, data pointer⟩ on v2,
// and an optional data object. Half-edges for a vertex are stored in a
// single variable-length FaRM object co-located with the vertex, resized in
// a geometric progression; past ~1000 edges they spill into a per-graph
// global B-tree keyed ⟨src vertex pointer, edge type, dst vertex pointer⟩.
// Keeping both directions makes deletes safe: removing v2 walks its
// incoming list and erases the forward half-edges pointing at it, so no
// dangling edge can survive — the TAO anomaly A1 was built to eliminate.

// Direction selects a vertex's outgoing or incoming half-edges.
type Direction int

const (
	// DirOut enumerates edges leaving the vertex.
	DirOut Direction = iota
	// DirIn enumerates edges arriving at the vertex.
	DirIn
)

func (d Direction) String() string {
	if d == DirOut {
		return "out"
	}
	return "in"
}

// HalfEdge is one entry of a vertex's edge list.
type HalfEdge struct {
	TypeID uint32
	Other  VertexPtr // the far endpoint's vertex pointer
	Data   farm.Ptr  // edge data object (nil if the edge carries no data)
}

// halfEdgeBytes is the packed entry size.
const halfEdgeBytes = 28

// initialInlineEntries sizes a vertex's first edge-list object.
const initialInlineEntries = 4

func encodeHalfEdge(dst []byte, he HalfEdge) {
	binary.LittleEndian.PutUint32(dst[0:], he.TypeID)
	farm.AppendPtr(dst[4:4], he.Other)
	farm.AppendPtr(dst[16:16], he.Data)
}

func decodeHalfEdge(b []byte) HalfEdge {
	return HalfEdge{
		TypeID: binary.LittleEndian.Uint32(b[0:]),
		Other:  farm.DecodePtr(b[4:]),
		Data:   farm.DecodePtr(b[16:]),
	}
}

// edgeTreeKey builds the global edge-tree key ⟨this, etype, other⟩. The
// out-tree keys start with the source pointer, the in-tree keys with the
// destination pointer, so per-vertex enumeration is a prefix scan.
func edgeTreeKey(this farm.Addr, etype uint32, other farm.Addr) []byte {
	k := make([]byte, 0, 20)
	k = binary.BigEndian.AppendUint64(k, uint64(this))
	k = binary.BigEndian.AppendUint32(k, etype)
	k = binary.BigEndian.AppendUint64(k, uint64(other))
	return k
}

func edgeTreePrefix(this farm.Addr, etype uint32, withType bool) []byte {
	k := make([]byte, 0, 12)
	k = binary.BigEndian.AppendUint64(k, uint64(this))
	if withType {
		k = binary.BigEndian.AppendUint32(k, etype)
	}
	return k
}

// treeValue packs ⟨data ptr, other vertex size⟩ so enumeration can rebuild
// the half-edge from key+value. Since vertex headers have a fixed size, the
// value is just the data pointer.
func edgeTreeFor(g *Graph, gm *graphMeta, dir Direction) *farm.BTree {
	if dir == DirOut {
		return farm.OpenBTree(g.store.farm, gm.OutTree)
	}
	return farm.OpenBTree(g.store.farm, gm.InTree)
}

func (h *vertexHdr) listRef(dir Direction) (farm.Ptr, uint32, bool) {
	if dir == DirOut {
		return h.outList, h.outCount, h.flags&flagOutSpilled != 0
	}
	return h.inList, h.inCount, h.flags&flagInSpilled != 0
}

func (h *vertexHdr) setListRef(dir Direction, list farm.Ptr, count uint32, spilled bool) {
	if dir == DirOut {
		h.outList, h.outCount = list, count
		if spilled {
			h.flags |= flagOutSpilled
		} else {
			h.flags &^= flagOutSpilled
		}
		return
	}
	h.inList, h.inCount = list, count
	if spilled {
		h.flags |= flagInSpilled
	} else {
		h.flags &^= flagInSpilled
	}
}

// scanSpilledEdges enumerates a spilled edge list: a prefix scan of the
// graph's global edge tree.
func (g *Graph) scanSpilledEdges(tx *farm.Tx, gm *graphMeta, vp VertexPtr, dir Direction, etypeFilter uint32, fn func(HalfEdge) bool) error {
	tree := edgeTreeFor(g, gm, dir)
	prefix := edgeTreePrefix(vp.Addr, etypeFilter, etypeFilter != 0)
	return tree.Scan(tx, prefix, prefixEnd(prefix), func(k, v []byte) bool {
		if len(k) != 20 {
			return true
		}
		he := HalfEdge{
			TypeID: binary.BigEndian.Uint32(k[8:]),
			Other:  farm.Ptr{Addr: farm.Addr(binary.BigEndian.Uint64(k[12:])), Size: vertexHdrSize},
			Data:   farm.DecodePtr(v),
		}
		return fn(he)
	})
}

// walkInlineEdges decodes an inline half-edge array entry by entry; each
// entry is a value by the time fn sees it, so data may be scratch.
func walkInlineEdges(data []byte, etypeFilter uint32, fn func(HalfEdge) bool) {
	for i := 0; i+halfEdgeBytes <= len(data); i += halfEdgeBytes {
		he := decodeHalfEdge(data[i:])
		if etypeFilter != 0 && he.TypeID != etypeFilter {
			continue
		}
		if !fn(he) {
			return
		}
	}
}

// findHalfEdge locates a specific half-edge ⟨etype, other⟩.
func (g *Graph) findHalfEdge(tx *farm.Tx, gm *graphMeta, vp VertexPtr, hdr *vertexHdr, dir Direction, etype uint32, other VertexPtr) (HalfEdge, bool, error) {
	list, count, spilled := hdr.listRef(dir)
	if spilled {
		tree := edgeTreeFor(g, gm, dir)
		v, ok, err := tree.Get(tx, edgeTreeKey(vp.Addr, etype, other.Addr))
		if err != nil || !ok {
			return HalfEdge{}, false, err
		}
		return HalfEdge{TypeID: etype, Other: other, Data: farm.DecodePtr(v)}, true, nil
	}
	if count == 0 || list.IsNil() {
		return HalfEdge{}, false, nil
	}
	buf, err := tx.Read(list)
	if err != nil {
		return HalfEdge{}, false, err
	}
	i, he := inlineHalfEdge(buf.Data(), etype, other)
	return he, i >= 0, nil
}

// inlineHalfEdge returns the byte offset of ⟨etype, other⟩ in an inline
// half-edge array and its entry, or -1 when the array holds no such edge.
func inlineHalfEdge(data []byte, etype uint32, other VertexPtr) (int, HalfEdge) {
	for i := 0; i+halfEdgeBytes <= len(data); i += halfEdgeBytes {
		if he := decodeHalfEdge(data[i:]); he.TypeID == etype && he.Other.Addr == other.Addr {
			return i, he
		}
	}
	return -1, HalfEdge{}
}

// addHalfEdge appends ⟨etype, other, data⟩ to one direction of a vertex's
// edge list: in place while the inline object's slot has room, moving it
// to a slot of double the entries when it does not, and spilling to the
// global B-tree past the threshold.
func (g *Graph) addHalfEdge(tx *farm.Tx, gm *graphMeta, vp VertexPtr, dir Direction, etype uint32, other VertexPtr, dataPtr farm.Ptr) error {
	hdrBuf, hdr, err := g.readHeader(tx, vp)
	if err != nil {
		return err
	}
	list, count, spilled := hdr.listRef(dir)
	he := HalfEdge{TypeID: etype, Other: other, Data: dataPtr}

	writeHeader := func() error {
		w, err := tx.OpenForWrite(hdrBuf)
		if err != nil {
			return err
		}
		hdr.encode(w.Data())
		return nil
	}

	if spilled {
		tree := edgeTreeFor(g, gm, dir)
		if err := tree.Put(tx, edgeTreeKey(vp.Addr, etype, other.Addr), farm.AppendPtr(nil, dataPtr)); err != nil {
			return err
		}
		hdr.setListRef(dir, farm.NilPtr, count+1, true)
		return writeHeader()
	}

	if list.IsNil() {
		// First edge: allocate the initial inline list near the vertex.
		buf, err := tx.Alloc(initialInlineEntries*halfEdgeBytes, vp.Addr)
		if err != nil {
			return err
		}
		if err := buf.Resize(halfEdgeBytes); err != nil {
			return err
		}
		encodeHalfEdge(buf.Data(), he)
		hdr.setListRef(dir, buf.Ptr(), 1, false)
		return writeHeader()
	}

	buf, err := tx.Read(list)
	if err != nil {
		return err
	}
	newLen := (count + 1) * halfEdgeBytes
	if int(count)+1 > g.store.cfg.EdgeSpillThreshold {
		// Migrate every half-edge (plus the new one) into the global tree.
		tree := edgeTreeFor(g, gm, dir)
		data := buf.Data()
		for i := 0; i+halfEdgeBytes <= len(data); i += halfEdgeBytes {
			old := decodeHalfEdge(data[i:])
			if err := tree.Put(tx, edgeTreeKey(vp.Addr, old.TypeID, old.Other.Addr), farm.AppendPtr(nil, old.Data)); err != nil {
				return err
			}
		}
		if err := tree.Put(tx, edgeTreeKey(vp.Addr, etype, other.Addr), farm.AppendPtr(nil, dataPtr)); err != nil {
			return err
		}
		// The header is the inline list's only pointer and is rewritten
		// below, so the list is unlinked, not tombstoned.
		if err := tx.Unlink(buf); err != nil {
			return err
		}
		hdr.setListRef(dir, farm.NilPtr, count+1, true)
		return writeHeader()
	}
	if newLen <= buf.Cap() {
		w, err := tx.OpenForWrite(buf)
		if err != nil {
			return err
		}
		if err := w.Resize(newLen); err != nil {
			return err
		}
		encodeHalfEdge(w.Data()[count*halfEdgeBytes:], he)
		hdr.setListRef(dir, w.Ptr(), count+1, false)
		return writeHeader()
	}
	// The slot is full: move the list into one with double the entries.
	// The header is the list's only pointer and is rewritten below, so
	// the old slot needs no tombstone.
	nb, err := tx.Realloc(buf, max(2*count*halfEdgeBytes, newLen), vp.Addr)
	if err != nil {
		return err
	}
	if err := nb.Resize(newLen); err != nil {
		return err
	}
	encodeHalfEdge(nb.Data()[count*halfEdgeBytes:], he)
	hdr.setListRef(dir, nb.Ptr(), count+1, false)
	return writeHeader()
}

// removeHalfEdgeData deletes ⟨etype, other⟩ from one direction, returning
// the edge's data pointer.
func (g *Graph) removeHalfEdgeData(tx *farm.Tx, gm *graphMeta, vp VertexPtr, dir Direction, etype uint32, other VertexPtr) (farm.Ptr, error) {
	hdrBuf, hdr, err := g.readHeader(tx, vp)
	if err != nil {
		return farm.NilPtr, err
	}
	list, count, spilled := hdr.listRef(dir)
	writeHeader := func() error {
		w, err := tx.OpenForWrite(hdrBuf)
		if err != nil {
			return err
		}
		hdr.encode(w.Data())
		return nil
	}
	if spilled {
		tree := edgeTreeFor(g, gm, dir)
		key := edgeTreeKey(vp.Addr, etype, other.Addr)
		v, ok, err := tree.Get(tx, key)
		if err != nil || !ok {
			return farm.NilPtr, err
		}
		if _, err := tree.Delete(tx, key); err != nil {
			return farm.NilPtr, err
		}
		hdr.setListRef(dir, farm.NilPtr, count-1, true)
		return farm.DecodePtr(v), writeHeader()
	}
	if count == 0 || list.IsNil() {
		return farm.NilPtr, nil
	}
	buf, err := tx.Read(list)
	if err != nil {
		return farm.NilPtr, err
	}
	i, he := inlineHalfEdge(buf.Data(), etype, other)
	if i < 0 {
		return farm.NilPtr, nil
	}
	w, err := tx.OpenForWrite(buf)
	if err != nil {
		return farm.NilPtr, err
	}
	wd := w.Data()
	copy(wd[i:], wd[i+halfEdgeBytes:])
	if err := w.Resize(uint32(len(wd) - halfEdgeBytes)); err != nil {
		return farm.NilPtr, err
	}
	hdr.setListRef(dir, w.Ptr(), count-1, false)
	return he.Data, writeHeader()
}

// dropEdgeLists frees a vertex's edge-list storage (inline objects or
// spilled tree entries) during vertex deletion.
func (g *Graph) dropEdgeLists(tx *farm.Tx, gm *graphMeta, vp VertexPtr, hdr *vertexHdr) error {
	for _, dir := range []Direction{DirOut, DirIn} {
		list, _, spilled := hdr.listRef(dir)
		if spilled {
			tree := edgeTreeFor(g, gm, dir)
			prefix := edgeTreePrefix(vp.Addr, 0, false)
			var keys [][]byte
			if err := tree.Scan(tx, prefix, prefixEnd(prefix), func(k, _ []byte) bool {
				keys = append(keys, append([]byte(nil), k...))
				return true
			}); err != nil {
				return err
			}
			for _, k := range keys {
				if _, err := tree.Delete(tx, k); err != nil {
					return err
				}
			}
			continue
		}
		if !list.IsNil() {
			buf, err := tx.Read(list)
			if err != nil {
				if err == farm.ErrNotFound {
					continue
				}
				return err
			}
			if err := tx.Free(buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// CreateEdge inserts an edge of the named type from src to dst inside tx.
// Given two vertices there can be only one edge of a given type between
// them (§3); val carries the edge attributes (bond.Null when the type has
// no schema).
func (g *Graph) CreateEdge(tx *farm.Tx, src VertexPtr, etypeName string, dst VertexPtr, val bond.Value) error {
	c := tx.Ctx()
	gm, err := g.requireActive(c)
	if err != nil {
		return err
	}
	et, err := g.edgeType(c, etypeName)
	if err != nil {
		return err
	}
	if et.Schema != nil && !val.IsNull() {
		if err := et.Schema.Validate(val); err != nil {
			return fmt.Errorf("%w: %v", ErrBadSchema, err)
		}
	} else if et.Schema == nil && !val.IsNull() {
		return fmt.Errorf("%w: edge type %q carries no data", ErrBadSchema, etypeName)
	}
	_, srcHdr, err := g.readHeader(tx, src)
	if err != nil {
		return fmt.Errorf("source vertex: %w", err)
	}
	if _, _, err := g.readHeader(tx, dst); err != nil {
		return fmt.Errorf("destination vertex: %w", err)
	}
	if _, exists, err := g.findHalfEdge(tx, gm, src, srcHdr, DirOut, et.ID, dst); err != nil {
		return err
	} else if exists {
		return fmt.Errorf("%w: edge %s", ErrExists, etypeName)
	}
	dataPtr := farm.NilPtr
	if !val.IsNull() {
		bytes := bond.Marshal(val)
		buf, err := tx.Alloc(uint32(len(bytes)), src.Addr)
		if err != nil {
			return err
		}
		copy(buf.Data(), bytes)
		dataPtr = buf.Ptr()
	}
	if err := g.addHalfEdge(tx, gm, src, DirOut, et.ID, dst, dataPtr); err != nil {
		return err
	}
	if err := g.addHalfEdge(tx, gm, dst, DirIn, et.ID, src, dataPtr); err != nil {
		return err
	}
	return g.edgeChanged(tx, src, etypeName, dst, val, false)
}

// DeleteEdge removes the ⟨src, etype, dst⟩ edge, reporting whether it
// existed.
func (g *Graph) DeleteEdge(tx *farm.Tx, src VertexPtr, etypeName string, dst VertexPtr) (bool, error) {
	c := tx.Ctx()
	gm, err := g.meta(c) // deletes stay legal during graph deletion (§3.3)
	if err != nil {
		return false, err
	}
	et, err := g.edgeType(c, etypeName)
	if err != nil {
		return false, err
	}
	_, srcHdr, err := g.readHeader(tx, src)
	if err != nil {
		return false, err
	}
	if _, exists, err := g.findHalfEdge(tx, gm, src, srcHdr, DirOut, et.ID, dst); err != nil || !exists {
		return false, err
	}
	dataPtr, err := g.removeHalfEdgeData(tx, gm, src, DirOut, et.ID, dst)
	if err != nil {
		return false, err
	}
	if _, err := g.removeHalfEdgeData(tx, gm, dst, DirIn, et.ID, src); err != nil {
		return false, err
	}
	if !dataPtr.IsNil() {
		if err := g.freeEdgeData(tx, dataPtr, map[farm.Addr]bool{}); err != nil {
			return false, err
		}
	}
	if err := g.edgeChanged(tx, src, etypeName, dst, bond.Null, true); err != nil {
		return false, err
	}
	return true, nil
}

// GetEdge returns an edge's data (bond.Null for data-less edges).
func (g *Graph) GetEdge(tx *farm.Tx, src VertexPtr, etypeName string, dst VertexPtr) (bond.Value, bool, error) {
	c := tx.Ctx()
	gm, err := g.meta(c)
	if err != nil {
		return bond.Null, false, err
	}
	et, err := g.edgeType(c, etypeName)
	if err != nil {
		return bond.Null, false, err
	}
	_, hdr, err := g.readHeader(tx, src)
	if err != nil {
		return bond.Null, false, err
	}
	he, ok, err := g.findHalfEdge(tx, gm, src, hdr, DirOut, et.ID, dst)
	if err != nil || !ok {
		return bond.Null, false, err
	}
	if he.Data.IsNil() {
		return bond.Null, true, nil
	}
	buf, err := tx.Read(he.Data)
	if err != nil {
		return bond.Null, false, err
	}
	v, err := bond.Unmarshal(buf.Data())
	if err != nil {
		return bond.Null, false, err
	}
	return v, true, nil
}

// EnumerateEdges visits a vertex's half-edges in one direction, optionally
// filtered by edge type name ("" = all types). Once the vertex header is
// read, enumeration costs one extra read for inline lists — usually a
// local memory access thanks to locality (§3.2).
func (g *Graph) EnumerateEdges(tx *farm.Tx, vp VertexPtr, dir Direction, etypeName string, fn func(HalfEdge) bool) error {
	return g.readOne(tx, vp, VisitHeader, func(v *VertexVisit) error {
		return v.Edges(dir, etypeName, fn)
	})
}

// EdgeCounts returns a vertex's out- and in-degree from its header alone.
func (g *Graph) EdgeCounts(tx *farm.Tx, vp VertexPtr) (out, in int, err error) {
	_, hdr, err := g.readHeader(tx, vp)
	if err != nil {
		return 0, 0, err
	}
	return int(hdr.outCount), int(hdr.inCount), nil
}
