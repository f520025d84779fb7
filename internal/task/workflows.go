package task

import (
	"strconv"

	"a1/internal/core"
	"a1/internal/fabric"
	"a1/internal/farm"
)

// The DeleteGraph workflow (paper §3.3): the DeleteGraph API call merely
// transitions the graph to Deleting and creates a task. That task spawns a
// DeleteType task per type and waits for all of them; each DeleteType task
// deletes the type's vertices (and with them their edges and index
// entries) in bounded batches, rescheduling itself until done, then drops
// the type's index trees and catalog entry. The continuation finally frees
// the graph's own resources and catalog row.

// Workflow task kinds.
const (
	KindDeleteGraph    = "graph.delete"
	KindDeleteVType    = "vtype.delete"
	KindDeleteEType    = "etype.delete"
	KindFinalizeGraph  = "graph.finalize"
	deleteBatchDefault = 64
)

// Workflows binds the task runtime to a graph store.
type Workflows struct {
	rt    *Runtime
	store *core.Store
	// DeleteBatch bounds vertices deleted per transaction step.
	DeleteBatch int
}

// RegisterWorkflows installs A1's built-in workflow handlers.
func RegisterWorkflows(rt *Runtime, store *core.Store) *Workflows {
	w := &Workflows{rt: rt, store: store, DeleteBatch: deleteBatchDefault}
	rt.Register(KindDeleteGraph, w.deleteGraph)
	rt.Register(KindDeleteVType, w.deleteVertexType)
	rt.Register(KindDeleteEType, w.deleteEdgeType)
	rt.Register(KindFinalizeGraph, w.finalizeGraph)
	return w
}

// DeleteGraphAsync is the asynchronous DeleteGraph API: it transitions the
// graph to Deleting and enqueues the teardown workflow, returning
// immediately.
func (w *Workflows) DeleteGraphAsync(c *fabric.Ctx, tenant, graph string) error {
	if err := w.store.SetGraphState(c, tenant, graph, core.GraphDeleting); err != nil {
		return err
	}
	return w.rt.Enqueue(c, Spec{
		Kind: KindDeleteGraph,
		Args: map[string]string{"tenant": tenant, "graph": graph},
	})
}

func (w *Workflows) deleteGraph(c *fabric.Ctx, rt *Runtime, t *Task) error {
	tenant, graph := t.Arg("tenant"), t.Arg("graph")
	g, err := w.store.OpenGraph(c, tenant, graph)
	if err != nil {
		if err == core.ErrNotFound {
			return nil // already gone
		}
		return err
	}
	vtypes, err := g.VertexTypeNames(c)
	if err != nil {
		return err
	}
	etypes, err := g.EdgeTypeNames(c)
	if err != nil {
		return err
	}
	var children []Spec
	for _, vt := range vtypes {
		children = append(children, Spec{
			Kind: KindDeleteVType,
			Args: map[string]string{"tenant": tenant, "graph": graph, "type": vt},
		})
	}
	for _, et := range etypes {
		children = append(children, Spec{
			Kind: KindDeleteEType,
			Args: map[string]string{"tenant": tenant, "graph": graph, "type": et},
		})
	}
	return rt.SpawnGroup(c, children, Spec{
		Kind: KindFinalizeGraph,
		Args: map[string]string{"tenant": tenant, "graph": graph},
	})
}

// deleteVertexType deletes one batch of the type's vertices per execution,
// rescheduling itself until the primary index is empty, then drops the
// type's trees and catalog entry.
func (w *Workflows) deleteVertexType(c *fabric.Ctx, rt *Runtime, t *Task) error {
	tenant, graph, typ := t.Arg("tenant"), t.Arg("graph"), t.Arg("type")
	g, err := w.store.OpenGraph(c, tenant, graph)
	if err != nil {
		if err == core.ErrNotFound {
			return nil
		}
		return err
	}
	batch := w.DeleteBatch
	if n, err := strconv.Atoi(t.Arg("batch")); err == nil && n > 0 {
		batch = n
	}
	// Collect one batch of vertex pointers.
	var victims []core.VertexPtr
	rtx := w.store.Farm().CreatePinnedReadTransaction(c)
	err = g.ScanVertexPtrsByType(rtx, typ, func(vp core.VertexPtr) bool {
		victims = append(victims, vp)
		return len(victims) < batch
	})
	rtx.Abort()
	if err != nil {
		return err
	}
	// Delete them one transaction each (a vertex delete touches an
	// unbounded number of remote half-edges; keeping transactions small
	// bounds conflict windows).
	for _, vp := range victims {
		err := farm.RunTransaction(c, w.store.Farm(), func(tx *farm.Tx) error {
			err := g.DeleteVertex(tx, vp)
			if err == core.ErrNotFound {
				return nil // another worker got it
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	if len(victims) == batch {
		// More remain: this execution saved its state (nothing — the index
		// is the cursor) and runs again.
		return rt.Reschedule(c, t, 0)
	}
	// Empty: drop the index trees and the catalog entry.
	if err := w.store.DropVertexTypeTrees(c, tenant, graph, typ); err != nil {
		return err
	}
	return w.store.DropVertexTypeEntry(c, tenant, graph, typ)
}

// deleteEdgeType drops the edge type's catalog entry; its edges were
// removed with their endpoint vertices.
func (w *Workflows) deleteEdgeType(c *fabric.Ctx, rt *Runtime, t *Task) error {
	return w.store.DropEdgeTypeEntry(c, t.Arg("tenant"), t.Arg("graph"), t.Arg("type"))
}

// finalizeGraph drops the graph's global edge trees and catalog row, then
// reclaims freed versions.
func (w *Workflows) finalizeGraph(c *fabric.Ctx, rt *Runtime, t *Task) error {
	tenant, graph := t.Arg("tenant"), t.Arg("graph")
	if err := w.store.DropGraphTrees(c, tenant, graph); err != nil {
		return err
	}
	if err := w.store.DropGraphEntry(c, tenant, graph); err != nil {
		return err
	}
	w.store.Farm().GCVersions(c)
	return nil
}
