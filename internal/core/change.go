package core

import (
	"a1/internal/bond"
	"a1/internal/farm"
	"a1/internal/stats"
)

// A mutation's consequences belong to its own transaction (§3, §4): the
// index entries that find the vertex, the planner's statistics and the
// replication-log entry. Every data-plane mutator ends in one of two
// funnels that derive all three from one change record — vertexChanged
// from a vertex's value before and after, edgeChanged from one edge — so
// what a mutation must also do is decided here and nowhere else.

// UpdateLogger receives every data-plane change inside its transaction so
// the disaster-recovery layer can append a replication-log entry
// transactionally (§4). Implemented by internal/dr.
type UpdateLogger interface {
	LogChange(tx *farm.Tx, ch *Change) error
}

// Change is the durable record of one vertex or edge mutation. It names
// vertices by ⟨type, primary key⟩ rather than by FaRM address, which does
// not survive recovery.
type Change struct {
	Tenant, Graph string
	// Deleted marks a removal; otherwise the change creates or replaces.
	Deleted bool
	// VType and PK identify the vertex, or the edge's source.
	VType string
	PK    bond.Value
	// Data is the new value of a vertex or edge; Null for a removal and
	// for an edge type that carries no data.
	Data bond.Value
	// EType is the edge type of an edge change ("" for a vertex), and
	// DstType and DstPK identify the edge's destination.
	EType   string
	DstType string
	DstPK   bond.Value
}

// fieldChange is one secondary-indexed field whose indexed value a change
// moves; Null stands for no index entry.
type fieldChange struct {
	tree     farm.Ptr
	name     string
	old, new bond.Value
}

// vertexDelta is what a vertex change does to the indexes and statistics
// beyond the primary key: the vertex's arrival (count +1) or departure
// (-1), and the indexed fields whose value moved.
type vertexDelta struct {
	typ    string
	count  int
	fields []fieldChange
}

// indexedValue is the value an index holds for a field: Null when the
// vertex is absent or the field is unset.
func indexedValue(v bond.Value, field uint16) bond.Value {
	a, _ := v.Field(field)
	return a
}

// diffVertex compares two versions of a vertex, Null meaning absent.
func diffVertex(vt *vertexTypeMeta, before, after bond.Value) vertexDelta {
	d := vertexDelta{typ: vt.Name}
	switch {
	case before.IsNull():
		d.count = 1
	case after.IsNull():
		d.count = -1
	}
	for _, si := range vt.Secondary {
		o, n := indexedValue(before, si.FieldID), indexedValue(after, si.FieldID)
		if o.Equal(n) {
			continue
		}
		f, _ := vt.Schema.FieldByID(si.FieldID)
		d.fields = append(d.fields, fieldChange{tree: si.Tree, name: f.Name, old: o, new: n})
	}
	return d
}

// apply feeds the delta to one machine's statistics.
func (d vertexDelta) apply(l *stats.Local, graph string) {
	switch d.count {
	case 1:
		l.VertexAdded(graph, d.typ)
	case -1:
		l.VertexRemoved(graph, d.typ)
	}
	for _, f := range d.fields {
		if !f.old.IsNull() {
			l.FieldValueRemoved(graph, d.typ, f.name, f.old)
		}
	}
	for _, f := range d.fields {
		if !f.new.IsNull() {
			l.FieldValueAdded(graph, d.typ, f.name, f.new)
		}
	}
}

// edgeDelta is an edge's arrival or departure, counted on its source.
type edgeDelta struct {
	label   string
	src     farm.Addr
	removed bool
}

func (d edgeDelta) apply(l *stats.Local, graph string) {
	if d.removed {
		l.EdgeRemoved(graph, d.label, uint64(d.src))
	} else {
		l.EdgeAdded(graph, d.label, uint64(d.src))
	}
}

// vertexChanged is the funnel every vertex mutation ends in, once the
// vertex's own objects are written: before and after are its values
// (Null = absent). It applies the index diff — the primary-key entry
// on create and delete, then each secondary index whose value moved —
// registers the statistics delta for exactly that diff on the machine
// owning the header, effective at commit, and appends the DR entry.
func (g *Graph) vertexChanged(tx *farm.Tx, vp VertexPtr, vt *vertexTypeMeta, before, after bond.Value) error {
	d := diffVertex(vt, before, after)
	pk := indexedValue(after, vt.PKField)
	if d.count < 0 {
		pk = indexedValue(before, vt.PKField)
	}
	primary := farm.OpenBTree(g.store.farm, vt.Primary)
	switch d.count {
	case 1:
		if err := primary.Put(tx, pkIndexKey(pk), farm.AppendPtr(nil, vp)); err != nil {
			return err
		}
	case -1:
		if _, err := primary.Delete(tx, pkIndexKey(pk)); err != nil {
			return err
		}
	}
	for _, f := range d.fields {
		st := farm.OpenBTree(g.store.farm, f.tree)
		if !f.old.IsNull() {
			if _, err := st.Delete(tx, secIndexKey(f.old, vp)); err != nil {
				return err
			}
		}
		if !f.new.IsNull() {
			if err := st.Put(tx, secIndexKey(f.new, vp), farm.AppendPtr(nil, vp)); err != nil {
				return err
			}
		}
	}
	if d.count != 0 || len(d.fields) > 0 {
		if l := g.store.statsLocal(tx.Ctx(), vp.Addr); l != nil {
			key := statsKey(g.tenant, g.name)
			tx.OnCommitted(func() { d.apply(l, key) })
		}
	}
	lg := g.store.updateLogger()
	if lg == nil {
		return nil
	}
	return lg.LogChange(tx, &Change{
		Tenant: g.tenant, Graph: g.name, Deleted: d.count < 0,
		VType: vt.Name, PK: pk, Data: after,
	})
}

// edgeChanged is the funnel every edge mutation ends in, once both
// half-edges are written: it registers the edge's statistics delta on the
// machine owning the source header, effective at commit, and appends the
// DR entry, naming both endpoints by ⟨type, primary key⟩.
func (g *Graph) edgeChanged(tx *farm.Tx, src VertexPtr, label string, dst VertexPtr, data bond.Value, deleted bool) error {
	if l := g.store.statsLocal(tx.Ctx(), src.Addr); l != nil {
		d := edgeDelta{label: label, src: src.Addr, removed: deleted}
		key := statsKey(g.tenant, g.name)
		tx.OnCommitted(func() { d.apply(l, key) })
	}
	lg := g.store.updateLogger()
	if lg == nil {
		return nil
	}
	ch := &Change{Tenant: g.tenant, Graph: g.name, Deleted: deleted, EType: label, Data: data}
	var err error
	if ch.VType, ch.PK, err = g.VertexPK(tx, src); err != nil {
		return err
	}
	if ch.DstType, ch.DstPK, err = g.VertexPK(tx, dst); err != nil {
		return err
	}
	return lg.LogChange(tx, ch)
}
