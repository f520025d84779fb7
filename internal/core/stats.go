package core

import (
	"a1/internal/bond"
	"a1/internal/fabric"
	"a1/internal/farm"
	"a1/internal/stats"
)

// Statistics maintenance: every committed data-plane mutation feeds the
// per-machine stats tracker, attributed to the machine hosting the vertex
// header (placement, not the coordinator), so per-machine numbers mirror
// where the data actually lives. Deltas are registered with tx.OnCommitted
// — aborted or retried transactions never count.

// statsKey identifies a graph inside the tracker.
func statsKey(tenant, graph string) string { return tenant + "/" + graph }

// StatsTracker exposes the live statistics subsystem.
func (s *Store) StatsTracker() *stats.Tracker { return s.stats }

// StatsSummary returns a graph's cluster-wide statistics as seen from the
// calling machine: per-type vertex counts, per-indexed-field distinct-value
// and heavy-hitter estimates, and per-edge-label mean out-degrees. The
// coordinator caches the aggregated view for the proxy TTL, so the summary
// may be one TTL stale — the planner's staleness model.
func (s *Store) StatsSummary(c *fabric.Ctx, tenant, graph string) *stats.GraphSummary {
	return s.stats.Summary(int(c.M), c.Now(), statsKey(tenant, graph))
}

// statsLocal returns the stats sink for the machine owning addr; nil when
// the owner cannot be resolved (stats simply miss the delta).
func (s *Store) statsLocal(c *fabric.Ctx, addr farm.Addr) *stats.Local {
	m, err := s.farm.PrimaryOf(c, addr)
	if err != nil {
		return nil
	}
	return s.stats.Local(int(m))
}

// statFieldVal is one secondary-indexed field value captured for a stats
// delta.
type statFieldVal struct {
	field string
	val   bond.Value
}

// indexedFieldVals extracts the non-null secondary-indexed field values of
// a vertex value — exactly the entries the secondary indexes store.
func indexedFieldVals(vt *vertexTypeMeta, val bond.Value) []statFieldVal {
	var out []statFieldVal
	for _, si := range vt.Secondary {
		attr, ok := val.Field(si.FieldID)
		if !ok || attr.IsNull() {
			continue
		}
		f, ok := vt.Schema.FieldByID(si.FieldID)
		if !ok {
			continue
		}
		out = append(out, statFieldVal{field: f.Name, val: attr})
	}
	return out
}

// statsVertexAdded registers the commit-time delta for a vertex insert.
func (g *Graph) statsVertexAdded(tx *farm.Tx, target fabric.MachineID, vt *vertexTypeMeta, val bond.Value) {
	l := g.store.stats.Local(int(target))
	key := statsKey(g.tenant, g.name)
	typeName := vt.Name
	fvals := indexedFieldVals(vt, val)
	tx.OnCommitted(func() {
		l.VertexAdded(key, typeName)
		for _, fv := range fvals {
			l.FieldValueAdded(key, typeName, fv.field, fv.val)
		}
	})
}

// statsVertexRemoved registers the commit-time delta for a vertex delete.
func (g *Graph) statsVertexRemoved(tx *farm.Tx, vp VertexPtr, vt *vertexTypeMeta, val bond.Value) {
	l := g.store.statsLocal(tx.Ctx(), vp.Addr)
	if l == nil {
		return
	}
	key := statsKey(g.tenant, g.name)
	typeName := vt.Name
	fvals := indexedFieldVals(vt, val)
	tx.OnCommitted(func() {
		l.VertexRemoved(key, typeName)
		for _, fv := range fvals {
			l.FieldValueRemoved(key, typeName, fv.field, fv.val)
		}
	})
}

// statsVertexUpdated registers deltas for the indexed fields an update
// changed.
func (g *Graph) statsVertexUpdated(tx *farm.Tx, vp VertexPtr, vt *vertexTypeMeta, oldVal, newVal bond.Value) {
	oldF := indexedFieldVals(vt, oldVal)
	newF := indexedFieldVals(vt, newVal)
	var removed, added []statFieldVal
	oldBy := make(map[string]bond.Value, len(oldF))
	for _, fv := range oldF {
		oldBy[fv.field] = fv.val
	}
	newBy := make(map[string]bond.Value, len(newF))
	for _, fv := range newF {
		newBy[fv.field] = fv.val
	}
	for _, fv := range oldF {
		if nv, ok := newBy[fv.field]; !ok || !nv.Equal(fv.val) {
			removed = append(removed, fv)
		}
	}
	for _, fv := range newF {
		if ov, ok := oldBy[fv.field]; !ok || !ov.Equal(fv.val) {
			added = append(added, fv)
		}
	}
	if len(removed) == 0 && len(added) == 0 {
		return
	}
	l := g.store.statsLocal(tx.Ctx(), vp.Addr)
	if l == nil {
		return
	}
	key := statsKey(g.tenant, g.name)
	typeName := vt.Name
	tx.OnCommitted(func() {
		for _, fv := range removed {
			l.FieldValueRemoved(key, typeName, fv.field, fv.val)
		}
		for _, fv := range added {
			l.FieldValueAdded(key, typeName, fv.field, fv.val)
		}
	})
}

// statsEdgeAdded registers the commit-time delta for an edge insert,
// attributed to the source vertex's machine.
func (g *Graph) statsEdgeAdded(tx *farm.Tx, src VertexPtr, label string) {
	l := g.store.statsLocal(tx.Ctx(), src.Addr)
	if l == nil {
		return
	}
	key := statsKey(g.tenant, g.name)
	srcAddr := uint64(src.Addr)
	tx.OnCommitted(func() { l.EdgeAdded(key, label, srcAddr) })
}

// statsEdgeRemoved registers the commit-time delta for an edge delete.
func (g *Graph) statsEdgeRemoved(tx *farm.Tx, src VertexPtr, label string) {
	l := g.store.statsLocal(tx.Ctx(), src.Addr)
	if l == nil {
		return
	}
	key := statsKey(g.tenant, g.name)
	srcAddr := uint64(src.Addr)
	tx.OnCommitted(func() { l.EdgeRemoved(key, label, srcAddr) })
}

// Analyze rebuilds a graph's statistics exactly from a full scan of every
// vertex (counts, indexed field values, out-edges) and returns the fresh
// cluster-wide summary. It repairs whatever drift the incremental sketches
// accumulated; queries running during the rebuild may briefly see partial
// numbers, which only perturbs plan choice, never results.
func (g *Graph) Analyze(c *fabric.Ctx) (*stats.GraphSummary, error) {
	s := g.store
	key := statsKey(g.tenant, g.name)
	s.stats.ResetGraph(key)
	dir, err := s.typeDir(c, g.tenant, g.name)
	if err != nil {
		return nil, err
	}
	names, err := g.VertexTypeNames(c)
	if err != nil {
		return nil, err
	}
	gm, err := g.meta(c)
	if err != nil {
		return nil, err
	}
	tx := s.farm.CreatePinnedReadTransaction(c)
	defer tx.Abort()
	for _, typeName := range names {
		vt, err := g.vertexType(c, typeName)
		if err != nil {
			return nil, err
		}
		var ptrs []VertexPtr
		if err := g.ScanVertexPtrsByType(tx, typeName, func(vp VertexPtr) bool {
			ptrs = append(ptrs, vp)
			return true
		}); err != nil {
			return nil, err
		}
		for _, vp := range ptrs {
			l := s.statsLocal(c, vp.Addr)
			if l == nil {
				continue
			}
			v, err := g.ReadVertex(tx, vp)
			if err != nil {
				if err == ErrNotFound {
					continue
				}
				return nil, err
			}
			l.VertexAdded(key, typeName)
			for _, fv := range indexedFieldVals(vt, v.Data) {
				l.FieldValueAdded(key, typeName, fv.field, fv.val)
			}
			_, hdr, err := g.readHeader(tx, vp)
			if err != nil {
				return nil, err
			}
			srcAddr := uint64(vp.Addr)
			if err := g.enumerateHalfEdges(tx, gm, vp, hdr, DirOut, 0, func(he HalfEdge) bool {
				if et, ok := dir.eByID[he.TypeID]; ok {
					l.EdgeAdded(key, et.Name, srcAddr)
				}
				return true
			}); err != nil {
				return nil, err
			}
		}
	}
	s.stats.Invalidate(key)
	return s.StatsSummary(c, g.tenant, g.name), nil
}
