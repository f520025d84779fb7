package core

import (
	"fmt"
	"sync"

	"a1/internal/bond"
	"a1/internal/farm"
)

// The batched vertex visitor: the one read path every materializing caller
// goes through (paper §3.2: a vertex is a header object plus a data object,
// and its edge lists hang off the header). A visit reads each header
// exactly once, reads the data object only when the caller's projection
// asks for it, and enumerates half-edges off that same header — so a
// reader pays for the FaRM objects it consumes and nothing else. The type
// directory is resolved once per batch; the graph meta (needed for spilled
// edge lists) and the edge type on the batch's first enumeration.

// Projection names what a visit reads of each vertex.
type Projection uint8

const (
	// VisitHeader reads the header object alone: type, degrees, edge lists.
	VisitHeader Projection = iota
	// VisitEncoded also reads the data object and hands it over undecoded
	// (VertexVisit.Encoded): the caller tests and decodes what it needs in
	// place (bond.LocateFields).
	VisitEncoded
	// VisitDecoded also decodes the whole data object into VertexVisit.Data.
	VisitDecoded
)

// VertexVisit is one vertex as the visitor presents it. It is valid only
// during the callback it is handed to.
type VertexVisit struct {
	Index    int // position in the visited batch
	Ptr      VertexPtr
	TypeID   uint32
	TypeName string
	Schema   *bond.Schema
	// Encoded is the data object's encoding under VisitEncoded and
	// VisitDecoded, aliasing a scratch buffer the next vertex reuses.
	Encoded []byte
	// Data is the decoded data object under VisitDecoded; Null otherwise,
	// unless the caller stores what it decoded of Encoded here.
	Data     bond.Value
	OutCount int
	InCount  int

	vs       *visitState
	vt       *vertexTypeMeta
	hdr      vertexHdr
	listRead [2]bool // inline list of that direction is in vs.lists
}

// visitState is the batch-scoped half of a visit: resolved metadata and
// the scratch buffers every vertex of the batch decodes out of. Decoding
// copies everything out of the buffers (bond values own their strings and
// blobs, half-edges are values), and a visit's Encoded lives only as long
// as its callback, so the scratch never escapes.
type visitState struct {
	g     *Graph
	tx    *farm.Tx
	types *typeDirectory
	gm    *graphMeta // resolved on the batch's first edge enumeration

	hdr, data []byte
	lists     [2][]byte   // inline half-edge lists of the current vertex, per direction
	cur       VertexVisit // the visit handed to the callback (pooled with the state)

	// One-entry cache: batches overwhelmingly enumerate a single edge label.
	edgeName  string
	edgeID    uint32
	edgeKnown bool
}

var visitStatePool = sync.Pool{New: func() any { return new(visitState) }}

func (g *Graph) newVisitState(tx *farm.Tx) (*visitState, error) {
	types, err := g.types(tx.Ctx())
	if err != nil {
		return nil, err
	}
	vs := visitStatePool.Get().(*visitState)
	vs.g, vs.tx, vs.types = g, tx, types
	return vs, nil
}

// release returns the state to the pool, keeping only the scratch buffers.
func (vs *visitState) release() {
	*vs = visitState{hdr: vs.hdr, data: vs.data, lists: vs.lists}
	visitStatePool.Put(vs)
}

// read fills v from vp's header and, past VisitHeader, its data object.
// ok=false means the vertex no longer exists at the snapshot.
func (vs *visitState) read(vp VertexPtr, proj Projection, v *VertexVisit) (ok bool, err error) {
	hb, err := vs.tx.ReadSizedInto(vp.Addr, vertexHdrSize, vs.hdr)
	if err != nil {
		if err == farm.ErrNotFound {
			return false, nil
		}
		return false, err
	}
	vs.hdr = hb
	hdr, err := decodeVertexHdrVal(hb)
	if err != nil {
		return false, err
	}
	vt, found := vs.types.vByID[hdr.typeID]
	if !found {
		return false, fmt.Errorf("%w: vertex type id %d", ErrNoSuchType, hdr.typeID)
	}
	*v = VertexVisit{
		Ptr:      vp,
		TypeID:   hdr.typeID,
		TypeName: vt.Name,
		Schema:   vt.Schema,
		OutCount: int(hdr.outCount),
		InCount:  int(hdr.inCount),
		vs:       vs,
		vt:       vt,
		hdr:      hdr,
	}
	if proj == VisitHeader {
		return true, nil
	}
	db, err := vs.tx.ReadSizedInto(hdr.data.Addr, hdr.data.Size, vs.data)
	if err != nil {
		return false, err
	}
	vs.data, v.Encoded = db, db
	if proj == VisitDecoded {
		v.Data, err = bond.UnmarshalStruct(vt.Schema, db)
	}
	return err == nil, err
}

// edgeTypeID resolves an edge label to its filter id (0 = all types).
func (vs *visitState) edgeTypeID(name string) (uint32, error) {
	if name == "" {
		return 0, nil
	}
	if vs.edgeKnown && vs.edgeName == name {
		return vs.edgeID, nil
	}
	et, err := vs.g.edgeType(vs.tx.Ctx(), name)
	if err != nil {
		return 0, err
	}
	vs.edgeName, vs.edgeID, vs.edgeKnown = name, et.ID, true
	return et.ID, nil
}

// PK returns the vertex's primary key when Data holds it.
func (v *VertexVisit) PK() (bond.Value, bool) { return v.Data.Field(v.vt.PKField) }

// PKField returns the id of the vertex type's primary-key field.
func (v *VertexVisit) PKField() uint16 { return v.vt.PKField }

// Edges enumerates the vertex's half-edges in one direction off the header
// the visit already read, optionally filtered by edge type name ("" = all
// types). An inline list costs one more read — usually local, thanks to
// locality (§3.2) — and is read at most once per direction per visit, so
// several enumerations of one vertex (a star `_match`) share it.
func (v *VertexVisit) Edges(dir Direction, etypeName string, fn func(HalfEdge) bool) error {
	vs := v.vs
	filter, err := vs.edgeTypeID(etypeName)
	if err != nil {
		return err
	}
	if vs.gm == nil {
		if vs.gm, err = vs.g.meta(vs.tx.Ctx()); err != nil {
			return err
		}
	}
	list, count, spilled := v.hdr.listRef(dir)
	if spilled {
		return vs.g.scanSpilledEdges(vs.tx, vs.gm, v.Ptr, dir, filter, fn)
	}
	if count == 0 || list.IsNil() {
		return nil
	}
	if !v.listRead[dir] {
		d, err := vs.tx.ReadSizedInto(list.Addr, list.Size, vs.lists[dir])
		if err != nil {
			return err
		}
		vs.lists[dir] = d
		v.listRead[dir] = true
	}
	walkInlineEdges(vs.lists[dir], filter, fn)
	return nil
}

// VisitVertices runs fn over a batch of vertices: one header read each,
// plus the data-object read (and, under VisitDecoded, its decode);
// fn enumerates edges through the visit. A vertex that no longer exists at
// the transaction's snapshot is skipped. fn returning more=false ends the
// batch before the next vertex is read. Reads are sequential within one
// call — the fabric-level win comes from the caller shipping the batch to
// the owner first. Callers that want a batch's reads to run concurrently
// split it and visit each part in a body of its own: an owner runs a large
// batch as morsels, one call per morsel on a process of its own
// (query's runMorsels, under fabric.Ctx.Parallel), and the root ordered
// walk (query's orderedWalk), the one caller that reads remote vertices
// from the coordinator, visits each vertex of a window in a Parallel body
// of its own.
func (g *Graph) VisitVertices(tx *farm.Tx, vps []VertexPtr, proj Projection, fn func(v *VertexVisit) (more bool, err error)) error {
	if len(vps) == 0 {
		return nil
	}
	vs, err := g.newVisitState(tx)
	if err != nil {
		return err
	}
	defer vs.release()
	v := &vs.cur
	for i, vp := range vps {
		ok, err := vs.read(vp, proj, v)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		v.Index = i
		more, err := fn(v)
		if err != nil || !more {
			return err
		}
	}
	return nil
}

// vertex materializes the visit as a Vertex (VisitDecoded reads).
func (v *VertexVisit) vertex() *Vertex {
	return &Vertex{
		Ptr:      v.Ptr,
		TypeID:   v.TypeID,
		TypeName: v.TypeName,
		Data:     v.Data,
		OutCount: v.OutCount,
		InCount:  v.InCount,
	}
}

// readOne is the single-vertex visit behind ReadVertex, VertexPK and
// EnumerateEdges: ErrNotFound when the vertex does not exist.
func (g *Graph) readOne(tx *farm.Tx, vp VertexPtr, proj Projection, fn func(v *VertexVisit) error) error {
	found := false
	err := g.VisitVertices(tx, []VertexPtr{vp}, proj, func(v *VertexVisit) (bool, error) {
		found = true
		return false, fn(v)
	})
	if err == nil && !found {
		err = ErrNotFound
	}
	return err
}
