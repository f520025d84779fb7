// Stub of the real a1/internal/core data plane.
package core

import "a1/internal/farm"

type VertexPtr = farm.Ptr

type Graph struct{ name string }

// VisitVertices is handed a transaction, so it is a remote call.
func (g *Graph) VisitVertices(tx *farm.Tx, vps []VertexPtr, fn func(p VertexPtr) bool) error {
	return nil
}

// Name is handed neither a transaction nor a fabric context: local.
func (g *Graph) Name() string { return g.name }
