// Fixture for a1/statshook: exported mutators in internal/core must
// reach a stats commit hook.
package core

import (
	"a1/internal/farm"
	"a1/internal/hooks"
	"a1/internal/stats"
)

type Graph struct {
	bt    *farm.BTree
	stats *stats.Local
}

// The in-package commit hooks the analyzer recognizes: the mutation
// funnels.
func (g *Graph) vertexChanged(typeID uint16) { g.stats.VertexAdded(typeID) }
func (g *Graph) edgeChanged(typeID uint16)   { g.stats.EdgeRemoved(typeID) }

// Good: mutation plus a direct hook call.
func (g *Graph) CreateThing(tx *farm.Tx, k, v []byte) error {
	if err := g.bt.Put(tx, k, v); err != nil {
		return err
	}
	g.vertexChanged(1)
	return nil
}

// Bad: mutates through farm.Put but never reaches any hook.
func (g *Graph) CreateThingNoHook(tx *farm.Tx, k, v []byte) error { // want `CreateThingNoHook mutates graph state`
	return g.bt.Put(tx, k, v)
}

// dropRow is the shared unexported mutation helper; unexported, so it is
// not flagged itself, but mutation propagates to its exported callers.
func (g *Graph) dropRow(tx *farm.Tx, k []byte) error {
	_, err := g.bt.Delete(tx, k)
	return err
}

// Good: transitive mutation with a hook in the caller.
func (g *Graph) DeleteThing(tx *farm.Tx, k []byte) error {
	if err := g.dropRow(tx, k); err != nil {
		return err
	}
	g.edgeChanged(1)
	return nil
}

// Bad: transitive mutation, no hook anywhere on the path.
func (g *Graph) BreakThing(tx *farm.Tx, k []byte) error { // want `BreakThing mutates graph state`
	return g.dropRow(tx, k)
}

// Good: a stats.Local delta method called directly counts as a hook.
func (g *Graph) UpdateThing(tx *farm.Tx, p farm.Ptr) error {
	if _, err := tx.OpenForWrite(p); err != nil {
		return err
	}
	g.stats.EdgeAdded(2)
	return nil
}

// catPut is the catalog plane; the statistics subsystem deliberately does
// not track schema metadata, so call edges into it are not followed.
func (g *Graph) catPut(tx *farm.Tx, k, v []byte) error {
	return g.bt.Put(tx, k, v)
}

// Good: catalog-only mutation is out of the tracker's scope.
func (g *Graph) CreateType(tx *farm.Tx, name []byte) error {
	return g.catPut(tx, name, nil)
}

// Good: creating an empty tree adds nothing the tracker counts.
func (g *Graph) CreateEmptyTree(tx *farm.Tx) (*farm.BTree, error) {
	return tx.CreateBTree()
}

// Good: reads are not mutations.
func (g *Graph) ReadThing(tx *farm.Tx, k []byte) ([]byte, error) {
	v, _, err := g.bt.Get(tx, k)
	return v, err
}

// Good (fact-driven): the commit hook sits one package away, below
// hooks.RecordVertexAdded; the PR-6 per-package analyzer flagged this
// shape and forced a suppression, the interprocedural one sees through.
func (g *Graph) CreateThingRemoteHook(tx *farm.Tx, k, v []byte) error {
	if err := g.bt.Put(tx, k, v); err != nil {
		return err
	}
	hooks.RecordVertexAdded(g.stats, 1)
	return nil
}

// Bad (fact-driven): the mutation itself hides below a cross-package
// helper; the PR-6 analyzer missed it entirely.
func (g *Graph) CreateThingRemoteMutation(tx *farm.Tx, k, v []byte) error { // want `CreateThingRemoteMutation mutates graph state`
	return hooks.PutRow(g.bt, tx, k, v)
}

//lint:ignore a1/statshook bulk loader feeds the tracker through Analyze afterwards
func (g *Graph) BulkLoad(tx *farm.Tx, ks [][]byte) error {
	for _, k := range ks {
		if err := g.bt.Put(tx, k, nil); err != nil {
			return err
		}
	}
	return nil
}
