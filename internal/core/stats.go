package core

import (
	"a1/internal/bond"
	"a1/internal/fabric"
	"a1/internal/farm"
	"a1/internal/stats"
)

// Statistics maintenance: the mutation funnels (change.go) register each
// committed change's delta with the per-machine stats tracker, attributed
// to the machine hosting the vertex header — the source's, for an edge —
// rather than the coordinator, so per-machine numbers mirror where the
// data lives. Deltas are registered with tx.OnCommitted: aborted or
// retried transactions never count. Analyze rebuilds the same numbers by
// feeding every vertex and out-edge through the same delta code as a
// creation.

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

// Analyze rebuilds a graph's statistics exactly from a full scan of every
// vertex (counts, indexed field values, out-edges) and returns the fresh
// cluster-wide summary. It repairs whatever drift the incremental sketches
// accumulated; queries running during the rebuild may briefly see partial
// numbers, which only perturbs plan choice, never results.
func (g *Graph) Analyze(c *fabric.Ctx) (*stats.GraphSummary, error) {
	s := g.store
	key := statsKey(g.tenant, g.name)
	s.stats.ResetGraph(key)
	names, err := g.VertexTypeNames(c)
	if err != nil {
		return nil, err
	}
	tx := s.farm.CreatePinnedReadTransaction(c)
	defer tx.Abort()
	for _, typeName := range names {
		var ptrs []VertexPtr
		if err := g.ScanVertexPtrsByType(tx, typeName, func(vp VertexPtr) bool {
			ptrs = append(ptrs, vp)
			return true
		}); err != nil {
			return nil, err
		}
		// Each vertex counts as its own creation, and each out-edge as
		// its own: the deltas the write path registers.
		err := g.VisitVertices(tx, ptrs, VisitDecoded, func(v *VertexVisit) (bool, error) {
			l := s.statsLocal(c, v.Ptr.Addr)
			if l == nil {
				return true, nil
			}
			diffVertex(v.vt, bond.Null, v.Data).apply(l, key)
			return true, v.Edges(DirOut, "", func(he HalfEdge) bool {
				if et, ok := v.vs.types.eByID[he.TypeID]; ok {
					edgeDelta{label: et.Name, src: v.Ptr.Addr}.apply(l, key)
				}
				return true
			})
		})
		if err != nil {
			return nil, err
		}
	}
	s.stats.Invalidate(key)
	return s.StatsSummary(c, g.tenant, g.name), nil
}
