package core

import (
	"fmt"

	"a1/internal/bond"
	"a1/internal/fabric"
	"a1/internal/farm"
)

// Control plane (paper §3): tenants, graphs and types. Each control-plane
// operation runs in its own transaction and cannot be grouped with data
// plane operations. A1 organizes data as tenant → graphs → types →
// vertices/edges; tenants are the isolation container.

// CreateTenant registers a tenant.
func (s *Store) CreateTenant(c *fabric.Ctx, tenant string) error {
	key := catTenant + tenant
	return farm.RunTransaction(c, s.farm, func(tx *farm.Tx) error {
		if _, exists, err := s.catGet(tx, key); err != nil {
			return err
		} else if exists {
			return fmt.Errorf("%w: tenant %q", ErrExists, tenant)
		}
		m := tenantMeta{Name: tenant}
		return s.catPut(tx, key, m.encode())
	})
}

// CreateGraph creates a graph under a tenant, allocating its global edge
// B-trees.
func (s *Store) CreateGraph(c *fabric.Ctx, tenant, graph string) error {
	tkey := catTenant + tenant
	gkey := graphKey(tenant, graph)
	return farm.RunTransaction(c, s.farm, func(tx *farm.Tx) error {
		if _, exists, err := s.catGet(tx, tkey); err != nil {
			return err
		} else if !exists {
			return fmt.Errorf("%w: tenant %q", ErrNotFound, tenant)
		}
		if _, exists, err := s.catGet(tx, gkey); err != nil {
			return err
		} else if exists {
			return fmt.Errorf("%w: graph %q", ErrExists, graph)
		}
		outTree, err := farm.CreateBTree(tx, farm.NilAddr)
		if err != nil {
			return err
		}
		inTree, err := farm.CreateBTree(tx, farm.NilAddr)
		if err != nil {
			return err
		}
		m := graphMeta{
			Name:       graph,
			State:      GraphActive,
			NextTypeID: 1, // id 0 is the "any type" sentinel in edge filters
			OutTree:    outTree.Desc(),
			InTree:     inTree.Desc(),
		}
		return s.catPut(tx, gkey, m.encode())
	})
}

func graphKey(tenant, graph string) string    { return catGraph + tenant + "/" + graph }
func vtypeKey(tenant, graph, t string) string { return catVertexType + tenant + "/" + graph + "/" + t }
func etypeKey(tenant, graph, t string) string { return catEdgeType + tenant + "/" + graph + "/" + t }
func vtypePrefix(tenant, graph string) string { return catVertexType + tenant + "/" + graph + "/" }
func etypePrefix(tenant, graph string) string { return catEdgeType + tenant + "/" + graph + "/" }

// Graph is a data-plane handle on a graph, resolved through the
// per-machine graph proxies (proxy.go).
type Graph struct {
	store  *Store
	tenant string
	name   string
	// Keys are precomputed once per handle: the data plane resolves the
	// proxy on every vertex read, and the per-call key concatenation was a
	// measurable hot-path allocation.
	gKey string // graphKey(tenant, name)
	key  string // proxy key (tenant/name)
}

func newGraph(s *Store, tenant, graph string) *Graph {
	return &Graph{
		store:  s,
		tenant: tenant,
		name:   graph,
		gKey:   graphKey(tenant, graph),
		key:    tenant + "/" + graph,
	}
}

// OpenGraph returns a handle on an existing graph.
func (s *Store) OpenGraph(c *fabric.Ctx, tenant, graph string) (*Graph, error) {
	g := newGraph(s, tenant, graph)
	if _, err := g.meta(c); err != nil {
		return nil, err
	}
	return g, nil
}

// Tenant returns the owning tenant name.
func (g *Graph) Tenant() string { return g.tenant }

// Name returns the graph name.
func (g *Graph) Name() string { return g.name }

// Store returns the owning store.
func (g *Graph) Store() *Store { return g.store }

// requireActive fails data-plane operations once deletion has begun.
func (g *Graph) requireActive(c *fabric.Ctx) (*graphMeta, error) {
	m, err := g.meta(c)
	if err != nil {
		return nil, err
	}
	if m.State != GraphActive {
		return nil, ErrGraphDeleting
	}
	return m, nil
}

// VertexTypeSchema returns a vertex type's Bond schema.
func (g *Graph) VertexTypeSchema(c *fabric.Ctx, name string) (*bond.Schema, error) {
	vt, err := g.vertexType(c, name)
	if err != nil {
		return nil, err
	}
	return vt.Schema, nil
}

// EdgeTypeSchema returns an edge type's Bond schema (nil for data-less
// edge types).
func (g *Graph) EdgeTypeSchema(c *fabric.Ctx, name string) (*bond.Schema, error) {
	et, err := g.edgeType(c, name)
	if err != nil {
		return nil, err
	}
	return et.Schema, nil
}

// VertexTypeIndexInfo returns the primary key field name and the
// secondary-indexed field names of a vertex type (used by disaster
// recovery to snapshot type definitions).
func (g *Graph) VertexTypeIndexInfo(c *fabric.Ctx, name string) (pkField string, secondary []string, err error) {
	vt, err := g.vertexType(c, name)
	if err != nil {
		return "", nil, err
	}
	pk, _ := vt.Schema.FieldByID(vt.PKField)
	for _, si := range vt.Secondary {
		f, ok := vt.Schema.FieldByID(si.FieldID)
		if ok {
			secondary = append(secondary, f.Name)
		}
	}
	return pk.Name, secondary, nil
}

// VertexTypeNames lists the graph's vertex types.
func (g *Graph) VertexTypeNames(c *fabric.Ctx) ([]string, error) {
	tx := g.store.farm.CreatePinnedReadTransaction(c)
	defer tx.Abort()
	prefix := vtypePrefix(g.tenant, g.name)
	var names []string
	err := g.store.catScanPrefix(tx, prefix, func(key string, _ []byte) bool {
		names = append(names, key[len(prefix):])
		return true
	})
	return names, err
}

// EdgeTypeNames lists the graph's edge types.
func (g *Graph) EdgeTypeNames(c *fabric.Ctx) ([]string, error) {
	tx := g.store.farm.CreatePinnedReadTransaction(c)
	defer tx.Abort()
	prefix := etypePrefix(g.tenant, g.name)
	var names []string
	err := g.store.catScanPrefix(tx, prefix, func(key string, _ []byte) bool {
		names = append(names, key[len(prefix):])
		return true
	})
	return names, err
}

// CreateVertexType declares a vertex type: its Bond schema, which attribute
// is the primary key (unique, non-null, indexed by a sorted primary index),
// and optional secondary-indexed attributes (no uniqueness or null
// constraints; §3).
func (g *Graph) CreateVertexType(c *fabric.Ctx, name string, schema *bond.Schema, pkField string, secondaryFields ...string) error {
	pk, ok := schema.FieldByName(pkField)
	if !ok {
		return fmt.Errorf("%w: primary key field %q not in schema", ErrBadSchema, pkField)
	}
	var secIDs []uint16
	for _, sf := range secondaryFields {
		f, ok := schema.FieldByName(sf)
		if !ok {
			return fmt.Errorf("%w: secondary index field %q not in schema", ErrBadSchema, sf)
		}
		secIDs = append(secIDs, f.ID)
	}
	key := vtypeKey(g.tenant, g.name, name)
	gkey := graphKey(g.tenant, g.name)
	return farm.RunTransaction(c, g.store.farm, func(tx *farm.Tx) error {
		graw, exists, err := g.store.catGet(tx, gkey)
		if err != nil {
			return err
		}
		if !exists {
			return fmt.Errorf("%w: graph %q", ErrNotFound, g.name)
		}
		gm, err := decodeGraphMeta(graw)
		if err != nil {
			return err
		}
		if gm.State != GraphActive {
			return ErrGraphDeleting
		}
		if _, exists, err := g.store.catGet(tx, key); err != nil {
			return err
		} else if exists {
			return fmt.Errorf("%w: vertex type %q", ErrExists, name)
		}
		primary, err := farm.CreateBTree(tx, farm.NilAddr)
		if err != nil {
			return err
		}
		m := vertexTypeMeta{
			ID:      gm.NextTypeID,
			Name:    name,
			Schema:  schema,
			PKField: pk.ID,
			Primary: primary.Desc(),
		}
		for _, fid := range secIDs {
			st, err := farm.CreateBTree(tx, farm.NilAddr)
			if err != nil {
				return err
			}
			m.Secondary = append(m.Secondary, secondaryMeta{FieldID: fid, Tree: st.Desc()})
		}
		gm.NextTypeID++
		if err := g.store.catPut(tx, gkey, gm.encode()); err != nil {
			return err
		}
		return g.store.catPut(tx, key, m.encode())
	})
}

// CreateEdgeType declares an edge type with an optional data schema.
func (g *Graph) CreateEdgeType(c *fabric.Ctx, name string, schema *bond.Schema) error {
	key := etypeKey(g.tenant, g.name, name)
	gkey := graphKey(g.tenant, g.name)
	return farm.RunTransaction(c, g.store.farm, func(tx *farm.Tx) error {
		graw, exists, err := g.store.catGet(tx, gkey)
		if err != nil {
			return err
		}
		if !exists {
			return fmt.Errorf("%w: graph %q", ErrNotFound, g.name)
		}
		gm, err := decodeGraphMeta(graw)
		if err != nil {
			return err
		}
		if gm.State != GraphActive {
			return ErrGraphDeleting
		}
		if _, exists, err := g.store.catGet(tx, key); err != nil {
			return err
		} else if exists {
			return fmt.Errorf("%w: edge type %q", ErrExists, name)
		}
		m := edgeTypeMeta{ID: gm.NextTypeID, Name: name, Schema: schema}
		gm.NextTypeID++
		if err := g.store.catPut(tx, gkey, gm.encode()); err != nil {
			return err
		}
		return g.store.catPut(tx, key, m.encode())
	})
}

// SetGraphState transitions the graph's lifecycle state (used by the
// asynchronous DeleteGraph workflow, §3.3).
func (s *Store) SetGraphState(c *fabric.Ctx, tenant, graph string, state GraphState) error {
	gkey := graphKey(tenant, graph)
	return farm.RunTransaction(c, s.farm, func(tx *farm.Tx) error {
		raw, exists, err := s.catGet(tx, gkey)
		if err != nil {
			return err
		}
		if !exists {
			return fmt.Errorf("%w: graph %q", ErrNotFound, graph)
		}
		gm, err := decodeGraphMeta(raw)
		if err != nil {
			return err
		}
		gm.State = state
		return s.catPut(tx, gkey, gm.encode())
	})
}

// GraphNames lists graphs under a tenant.
func (s *Store) GraphNames(c *fabric.Ctx, tenant string) ([]string, error) {
	tx := s.farm.CreatePinnedReadTransaction(c)
	defer tx.Abort()
	prefix := catGraph + tenant + "/"
	var names []string
	err := s.catScanPrefix(tx, prefix, func(key string, _ []byte) bool {
		names = append(names, key[len(prefix):])
		return true
	})
	return names, err
}

// DropVertexTypeTrees frees a vertex type's primary and secondary index
// B-trees (DeleteType workflow: "when the primary index is deleted, we
// delete the vertices at the same time" — vertices are drained first here,
// then the trees are dismantled in batches).
func (s *Store) DropVertexTypeTrees(c *fabric.Ctx, tenant, graph, name string) error {
	tx := s.farm.CreatePinnedReadTransaction(c)
	raw, ok, err := s.catGet(tx, vtypeKey(tenant, graph, name))
	tx.Abort()
	if err != nil || !ok {
		return err
	}
	m, err := decodeVertexTypeMeta(raw)
	if err != nil {
		return err
	}
	if err := farm.OpenBTree(s.farm, m.Primary).Drop(c, 64); err != nil {
		return err
	}
	for _, si := range m.Secondary {
		if err := farm.OpenBTree(s.farm, si.Tree).Drop(c, 64); err != nil {
			return err
		}
	}
	return nil
}

// DropGraphTrees frees the graph's global edge B-trees.
func (s *Store) DropGraphTrees(c *fabric.Ctx, tenant, graph string) error {
	tx := s.farm.CreatePinnedReadTransaction(c)
	raw, ok, err := s.catGet(tx, graphKey(tenant, graph))
	tx.Abort()
	if err != nil || !ok {
		return err
	}
	gm, err := decodeGraphMeta(raw)
	if err != nil {
		return err
	}
	if err := farm.OpenBTree(s.farm, gm.OutTree).Drop(c, 64); err != nil {
		return err
	}
	return farm.OpenBTree(s.farm, gm.InTree).Drop(c, 64)
}

// DropGraphEntry removes the graph's catalog row once its resources are
// gone (the final step of the DeleteGraph workflow).
func (s *Store) DropGraphEntry(c *fabric.Ctx, tenant, graph string) error {
	return farm.RunTransaction(c, s.farm, func(tx *farm.Tx) error {
		return s.catDelete(tx, graphKey(tenant, graph))
	})
}

// DropVertexTypeEntry removes a vertex type's catalog row (end of
// DeleteType workflow).
func (s *Store) DropVertexTypeEntry(c *fabric.Ctx, tenant, graph, name string) error {
	return farm.RunTransaction(c, s.farm, func(tx *farm.Tx) error {
		return s.catDelete(tx, vtypeKey(tenant, graph, name))
	})
}

// DropEdgeTypeEntry removes an edge type's catalog row.
func (s *Store) DropEdgeTypeEntry(c *fabric.Ctx, tenant, graph, name string) error {
	return farm.RunTransaction(c, s.farm, func(tx *farm.Tx) error {
		return s.catDelete(tx, etypeKey(tenant, graph, name))
	})
}
