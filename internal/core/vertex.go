package core

import (
	"encoding/binary"
	"fmt"

	"a1/internal/bond"
	"a1/internal/fabric"
	"a1/internal/farm"
)

// Vertex storage (paper §3.2, Figure 6): a vertex is two FaRM objects — a
// fixed-size header and a variable-length Bond-serialized data object. The
// header holds the type, a pointer to the data, and the incoming/outgoing
// edge list references. As the vertex gains edges or new data the header
// contents change but its address — the "vertex pointer" every index and
// half-edge refers to — never does. Data and edge lists are allocated in
// the header's region (locality), while headers themselves are placed on a
// random machine across the cluster.

// vertexHdrSize is the encoded header payload length.
const vertexHdrSize = 52

// header flag bits.
const (
	flagOutSpilled = 1 << 0 // outgoing edges live in the global B-tree
	flagInSpilled  = 1 << 1 // incoming edges live in the global B-tree
)

// vertexHdr is the decoded header.
type vertexHdr struct {
	typeID   uint32
	flags    uint32
	data     farm.Ptr
	outList  farm.Ptr // inline half-edge array (when not spilled)
	outCount uint32
	inList   farm.Ptr
	inCount  uint32
}

func (h *vertexHdr) encode(dst []byte) {
	binary.LittleEndian.PutUint32(dst[0:], h.typeID)
	binary.LittleEndian.PutUint32(dst[4:], h.flags)
	farm.AppendPtr(dst[8:8], h.data)
	farm.AppendPtr(dst[20:20], h.outList)
	binary.LittleEndian.PutUint32(dst[32:], h.outCount)
	farm.AppendPtr(dst[36:36], h.inList)
	binary.LittleEndian.PutUint32(dst[48:], h.inCount)
}

func decodeVertexHdr(b []byte) (*vertexHdr, error) {
	h, err := decodeVertexHdrVal(b)
	if err != nil {
		return nil, err
	}
	return &h, nil
}

// decodeVertexHdrVal decodes by value: the read hot path decodes millions
// of headers and must not heap-allocate one struct per vertex.
func decodeVertexHdrVal(b []byte) (vertexHdr, error) {
	if len(b) < vertexHdrSize {
		return vertexHdr{}, fmt.Errorf("a1: short vertex header (%d bytes)", len(b))
	}
	return vertexHdr{
		typeID:   binary.LittleEndian.Uint32(b[0:]),
		flags:    binary.LittleEndian.Uint32(b[4:]),
		data:     farm.DecodePtr(b[8:]),
		outList:  farm.DecodePtr(b[20:]),
		outCount: binary.LittleEndian.Uint32(b[32:]),
		inList:   farm.DecodePtr(b[36:]),
		inCount:  binary.LittleEndian.Uint32(b[48:]),
	}, nil
}

// VertexPtr identifies a vertex: the fat pointer to its header object.
type VertexPtr = farm.Ptr

// Vertex is a materialized vertex.
type Vertex struct {
	Ptr      VertexPtr
	TypeID   uint32
	TypeName string
	Data     bond.Value
	OutCount int
	InCount  int
}

// pkOf extracts and validates the primary key from a vertex value.
func pkOf(vt *vertexTypeMeta, val bond.Value) (bond.Value, error) {
	pk, ok := val.Field(vt.PKField)
	if !ok || pk.IsZero() {
		f, _ := vt.Schema.FieldByID(vt.PKField)
		return bond.Null, fmt.Errorf("%w: primary key %q missing or null", ErrBadSchema, f.Name)
	}
	return pk, nil
}

// pkIndexKey is the primary index key encoding.
func pkIndexKey(pk bond.Value) []byte { return bond.OrderedEncode(nil, pk) }

// secIndexKey is the secondary index key: attribute value followed by the
// vertex address (secondary keys are non-unique, §3).
func secIndexKey(attr bond.Value, vp farm.Ptr) []byte {
	k := bond.OrderedEncode(nil, attr)
	return binary.BigEndian.AppendUint64(k, uint64(vp.Addr))
}

// CreateVertex inserts a vertex of the named type inside tx. The value must
// conform to the type's schema and carry a unique, non-null primary key.
// Returns the new vertex pointer.
func (g *Graph) CreateVertex(tx *farm.Tx, typeName string, val bond.Value) (VertexPtr, error) {
	c := tx.Ctx()
	if _, err := g.requireActive(c); err != nil {
		return farm.NilPtr, err
	}
	vt, err := g.vertexType(c, typeName)
	if err != nil {
		return farm.NilPtr, err
	}
	if err := vt.Schema.Validate(val); err != nil {
		return farm.NilPtr, fmt.Errorf("%w: %v", ErrBadSchema, err)
	}
	pk, err := pkOf(vt, val)
	if err != nil {
		return farm.NilPtr, err
	}
	primary := farm.OpenBTree(g.store.farm, vt.Primary)
	if _, exists, err := primary.Get(tx, pkIndexKey(pk)); err != nil {
		return farm.NilPtr, err
	} else if exists {
		return farm.NilPtr, fmt.Errorf("%w: %s %v", ErrExists, typeName, pk)
	}
	// Header on a (randomly) chosen machine; data co-located with it.
	target := g.store.placementTarget(c)
	hdrBuf, err := tx.AllocOn(target, vertexHdrSize)
	if err != nil {
		return farm.NilPtr, err
	}
	dataBytes := bond.Marshal(val)
	dataBuf, err := tx.Alloc(uint32(len(dataBytes)), hdrBuf.Addr())
	if err != nil {
		return farm.NilPtr, err
	}
	copy(dataBuf.Data(), dataBytes)
	hdr := &vertexHdr{typeID: vt.ID, data: dataBuf.Ptr()}
	hdr.encode(hdrBuf.Data())
	vp := hdrBuf.Ptr()
	if err := g.vertexChanged(tx, vp, vt, bond.Null, val); err != nil {
		return farm.NilPtr, err
	}
	return vp, nil
}

// LookupVertex finds a vertex by ⟨type, primary key⟩ through the primary
// index (paper §3: the unique vertex identity).
func (g *Graph) LookupVertex(tx *farm.Tx, typeName string, pk bond.Value) (VertexPtr, bool, error) {
	vt, err := g.vertexType(tx.Ctx(), typeName)
	if err != nil {
		return farm.NilPtr, false, err
	}
	primary := farm.OpenBTree(g.store.farm, vt.Primary)
	v, ok, err := primary.Get(tx, pkIndexKey(pk))
	if err != nil || !ok {
		return farm.NilPtr, false, err
	}
	return farm.DecodePtr(v), true, nil
}

// LookupVertexAnyType finds a vertex by primary key alone, trying every
// vertex type of the graph in name order. The fan-out is served from the
// per-machine type directory, so it costs no catalog read; only when every
// cached type misses is the directory re-read once, for types newer than
// it (as vertexType does for an unknown name).
func (g *Graph) LookupVertexAnyType(tx *farm.Tx, pk bond.Value) (VertexPtr, bool, error) {
	dir, err := g.types(tx.Ctx())
	if err != nil {
		return farm.NilPtr, false, err
	}
	for _, name := range dir.vNames {
		if vp, ok, err := g.LookupVertex(tx, name, pk); err != nil || ok {
			return vp, ok, err
		}
	}
	newer, err := g.typesMissed(tx.Ctx())
	if err != nil {
		return farm.NilPtr, false, err
	}
	for _, name := range newer.vNames {
		if _, tried := dir.vByName[name]; tried {
			continue
		}
		if vp, ok, err := g.LookupVertex(tx, name, pk); err != nil || ok {
			return vp, ok, err
		}
	}
	return farm.NilPtr, false, nil
}

// readHeader fetches and decodes a vertex header.
func (g *Graph) readHeader(tx *farm.Tx, vp VertexPtr) (*farm.ObjBuf, *vertexHdr, error) {
	buf, err := tx.ReadSized(vp.Addr, vertexHdrSize)
	if err != nil {
		if err == farm.ErrNotFound {
			return nil, nil, ErrNotFound
		}
		return nil, nil, err
	}
	hdr, err := decodeVertexHdr(buf.Data())
	if err != nil {
		return nil, nil, err
	}
	return buf, hdr, nil
}

// ReadVertex materializes a vertex: header read plus data read — the two
// consecutive RDMA reads of §3.2.
func (g *Graph) ReadVertex(tx *farm.Tx, vp VertexPtr) (*Vertex, error) {
	var out *Vertex
	err := g.readOne(tx, vp, VisitDecoded, func(v *VertexVisit) error {
		out = v.vertex()
		return nil
	})
	return out, err
}

// ReadVertices materializes a batch of vertices whole through the batched
// visitor (visit.go). The result is parallel to vps; a vertex that has
// vanished since its pointer was collected (concurrent delete) yields a
// nil slot rather than failing the batch.
func (g *Graph) ReadVertices(tx *farm.Tx, vps []VertexPtr) ([]*Vertex, error) {
	out := make([]*Vertex, len(vps))
	err := g.VisitVertices(tx, vps, VisitDecoded, func(v *VertexVisit) (bool, error) {
		out[v.Index] = v.vertex()
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// UpdateVertex replaces a vertex's attribute data. The primary key must not
// change. Secondary index entries are kept consistent transactionally.
func (g *Graph) UpdateVertex(tx *farm.Tx, vp VertexPtr, newVal bond.Value) error {
	c := tx.Ctx()
	if _, err := g.requireActive(c); err != nil {
		return err
	}
	hdrBuf, hdr, err := g.readHeader(tx, vp)
	if err != nil {
		return err
	}
	dir, err := g.types(c)
	if err != nil {
		return err
	}
	vt, ok := dir.vByID[hdr.typeID]
	if !ok {
		return fmt.Errorf("%w: vertex type id %d", ErrNoSuchType, hdr.typeID)
	}
	if err := vt.Schema.Validate(newVal); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSchema, err)
	}
	oldBuf, err := tx.Read(hdr.data)
	if err != nil {
		return err
	}
	oldVal, err := bond.UnmarshalStruct(vt.Schema, oldBuf.Data())
	if err != nil {
		return err
	}
	oldPK, _ := oldVal.Field(vt.PKField)
	newPK, err := pkOf(vt, newVal)
	if err != nil {
		return err
	}
	if !oldPK.Equal(newPK) {
		return ErrImmutablePK
	}
	newBytes := bond.Marshal(newVal)
	n := uint32(len(newBytes))
	var w *farm.ObjBuf
	if n <= oldBuf.Cap() {
		if w, err = tx.OpenForWrite(oldBuf); err == nil {
			err = w.Resize(n)
		}
	} else {
		// Outgrown its slot, the data moves; the header, its only
		// pointer, is rewritten below.
		w, err = tx.Realloc(oldBuf, n, vp.Addr)
	}
	if err != nil {
		return err
	}
	copy(w.Data(), newBytes)
	// Resized in place, the data keeps its address, and the header is not
	// rewritten: a pointer's size is only a transfer hint, as a B-tree's
	// child pointers are after their nodes grow.
	if w.Addr() != hdr.data.Addr {
		hw, err := tx.OpenForWrite(hdrBuf)
		if err != nil {
			return err
		}
		hdr.data = w.Ptr()
		hdr.encode(hw.Data())
	}
	return g.vertexChanged(tx, vp, vt, oldVal, newVal)
}

// DeleteVertex removes a vertex and every edge attached to it: the
// incoming and outgoing half-edge lists identify all remote half-edges
// that must be removed so that no dangling edge survives (paper §3.2).
func (g *Graph) DeleteVertex(tx *farm.Tx, vp VertexPtr) error {
	c := tx.Ctx()
	// Deletes stay legal while the graph is in the Deleting state: the
	// asynchronous DeleteGraph workflow itself drains vertices (§3.3).
	gm, err := g.meta(c)
	if err != nil {
		return err
	}
	hdrBuf, hdr, err := g.readHeader(tx, vp)
	if err != nil {
		return err
	}
	dir, err := g.types(c)
	if err != nil {
		return err
	}
	vt, ok := dir.vByID[hdr.typeID]
	if !ok {
		return fmt.Errorf("%w: vertex type id %d", ErrNoSuchType, hdr.typeID)
	}
	dataBuf, err := tx.Read(hdr.data)
	if err != nil {
		return err
	}
	val, err := bond.UnmarshalStruct(vt.Schema, dataBuf.Data())
	if err != nil {
		return err
	}
	// Collect both half-edge lists, then detach the remote ends.
	var lists [2][]HalfEdge
	if err := g.readOne(tx, vp, VisitHeader, func(v *VertexVisit) error {
		for _, d := range []Direction{DirOut, DirIn} {
			if err := v.Edges(d, "", func(he HalfEdge) bool {
				lists[d] = append(lists[d], he)
				return true
			}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	freedData := map[farm.Addr]bool{}
	for d, hes := range lists {
		for _, he := range hes {
			if he.Other.Addr == vp.Addr && Direction(d) == DirIn {
				continue // a self-loop left with the out-list
			}
			src, dst, far := vp, he.Other, DirIn
			if Direction(d) == DirIn {
				src, dst, far = he.Other, vp, DirOut
			}
			if he.Other.Addr != vp.Addr {
				if _, err := g.removeHalfEdgeData(tx, gm, he.Other, far, he.TypeID, vp); err != nil {
					return err
				}
			}
			if err := g.freeEdgeData(tx, he.Data, freedData); err != nil {
				return err
			}
			// An edge type can be gone only while DeleteGraph drains the
			// graph; its edges then leave without a record.
			if et, ok := dir.eByID[he.TypeID]; ok {
				if err := g.edgeChanged(tx, src, et.Name, dst, bond.Null, true); err != nil {
					return err
				}
			}
		}
	}
	// Drop this vertex's own edge-list storage, data and header.
	if err := g.dropEdgeLists(tx, gm, vp, hdr); err != nil {
		return err
	}
	if err := tx.Free(dataBuf); err != nil {
		return err
	}
	if err := tx.Free(hdrBuf); err != nil {
		return err
	}
	return g.vertexChanged(tx, vp, vt, val, bond.Null)
}

// freeEdgeData frees an edge's data object exactly once.
func (g *Graph) freeEdgeData(tx *farm.Tx, p farm.Ptr, seen map[farm.Addr]bool) error {
	if p.IsNil() || seen[p.Addr] {
		return nil
	}
	seen[p.Addr] = true
	buf, err := tx.Read(p)
	if err != nil {
		if err == farm.ErrNotFound {
			return nil
		}
		return err
	}
	return tx.Free(buf)
}

// VertexPK returns a vertex's ⟨type name, primary key⟩ identity.
func (g *Graph) VertexPK(tx *farm.Tx, vp VertexPtr) (string, bond.Value, error) {
	var typeName string
	var pk bond.Value
	err := g.readOne(tx, vp, VisitDecoded, func(v *VertexVisit) error {
		typeName = v.TypeName
		pk, _ = v.PK()
		return nil
	})
	return typeName, pk, err
}

// ScanVerticesByType visits every vertex of a type in primary key order.
func (g *Graph) ScanVerticesByType(tx *farm.Tx, typeName string, fn func(pk bond.Value, vp VertexPtr) bool) error {
	return g.scanPrimary(tx, typeName, func(k []byte, vp VertexPtr) (bool, error) {
		pk, _, err := bond.OrderedDecode(k)
		if err != nil {
			return false, err
		}
		return fn(pk, vp), nil
	})
}

// ScanVertexPtrsByType is ScanVerticesByType for callers that discard the
// primary key: each key's encoding is still checked, with the same error,
// but no value is built.
func (g *Graph) ScanVertexPtrsByType(tx *farm.Tx, typeName string, fn func(vp VertexPtr) bool) error {
	return g.scanPrimary(tx, typeName, func(k []byte, vp VertexPtr) (bool, error) {
		if _, err := bond.OrderedSkip(k); err != nil {
			return false, err
		}
		return fn(vp), nil
	})
}

// scanPrimary walks a type's primary index in key order; fn's error stops
// the walk and is returned.
func (g *Graph) scanPrimary(tx *farm.Tx, typeName string, fn func(k []byte, vp VertexPtr) (bool, error)) error {
	vt, err := g.vertexType(tx.Ctx(), typeName)
	if err != nil {
		return err
	}
	primary := farm.OpenBTree(g.store.farm, vt.Primary)
	var scanErr error
	err = primary.Scan(tx, nil, nil, func(k, v []byte) bool {
		var more bool
		more, scanErr = fn(k, farm.DecodePtr(v))
		return more
	})
	if err == nil {
		err = scanErr
	}
	return err
}

// IndexScan visits vertices whose secondary-indexed attribute equals value.
func (g *Graph) IndexScan(tx *farm.Tx, typeName, fieldName string, value bond.Value, fn func(vp VertexPtr) bool) error {
	tree, err := g.secondaryIndex(tx, typeName, fieldName)
	if err != nil {
		return err
	}
	st := farm.OpenBTree(g.store.farm, tree)
	prefix := bond.OrderedEncode(nil, value)
	return st.Scan(tx, prefix, prefixEnd(prefix), func(_, v []byte) bool {
		return fn(farm.DecodePtr(v))
	})
}

// IndexRangeScanBoundsDir visits, in attribute order, the vertices whose
// secondary-indexed attribute lies between lo and hi with explicit
// inclusivity per side; a Null bound is unbounded. desc=true walks the
// range high to low (the B-tree's reverse scan), so ordered top-K readers
// can stop at the high end after a handful of hits. Bound values must
// match the indexed field's stored kind (the ordered key encoding is
// kind-tagged), which the query layer guarantees by coercion. Secondary
// keys carry the vertex address as a suffix, so inclusive/exclusive edges
// are realized by starting or stopping at the key-prefix boundary, and
// the callback receives the entry's ordered-encoded attribute key (the
// index key minus that suffix) to detect attribute ties without reading
// the vertex.
func (g *Graph) IndexRangeScanBoundsDir(tx *farm.Tx, typeName, fieldName string, lo bond.Value, loInc bool, hi bond.Value, hiInc bool, desc bool, fn func(attrKey []byte, vp VertexPtr) bool) error {
	tree, err := g.secondaryIndex(tx, typeName, fieldName)
	if err != nil {
		return err
	}
	st := farm.OpenBTree(g.store.farm, tree)
	var from, to []byte
	if !lo.IsNull() {
		enc := bond.OrderedEncode(nil, lo)
		if loInc {
			from = enc // every key with attr == lo sorts after the bare prefix
		} else {
			from = prefixEnd(enc) // skip all keys with attr == lo
		}
	}
	if !hi.IsNull() {
		enc := bond.OrderedEncode(nil, hi)
		if hiInc {
			to = prefixEnd(enc) // include all keys with attr == hi
		} else {
			to = enc
		}
	}
	visit := func(k, v []byte) bool {
		attr := k
		if len(attr) >= 8 {
			attr = attr[:len(attr)-8] // strip the address suffix
		}
		return fn(attr, farm.DecodePtr(v))
	}
	if desc {
		return st.ScanDesc(tx, from, to, visit)
	}
	return st.Scan(tx, from, to, visit)
}

// secondaryIndex returns the B-tree descriptor of a type's secondary index
// on a field; ErrNotFound when the field has none.
func (g *Graph) secondaryIndex(tx *farm.Tx, typeName, fieldName string) (farm.Ptr, error) {
	vt, err := g.vertexType(tx.Ctx(), typeName)
	if err != nil {
		return farm.Ptr{}, err
	}
	f, ok := vt.Schema.FieldByName(fieldName)
	if !ok {
		return farm.Ptr{}, fmt.Errorf("%w: field %q", ErrBadSchema, fieldName)
	}
	for _, si := range vt.Secondary {
		if si.FieldID == f.ID {
			return si.Tree, nil
		}
	}
	return farm.Ptr{}, fmt.Errorf("%w: no secondary index on %s.%s", ErrNotFound, typeName, fieldName)
}

// CountVertices returns the number of vertices of a type (primary index
// cardinality).
func (g *Graph) CountVertices(c *fabric.Ctx, typeName string) (int, error) {
	tx := g.store.farm.CreatePinnedReadTransaction(c)
	defer tx.Abort()
	vt, err := g.vertexType(c, typeName)
	if err != nil {
		return 0, err
	}
	primary := farm.OpenBTree(g.store.farm, vt.Primary)
	return primary.Count(tx, nil, nil)
}
