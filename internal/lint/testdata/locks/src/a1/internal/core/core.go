// Stub of the real a1/internal/core data plane.
package core

import (
	"sync"

	"a1/internal/farm"
)

type VertexPtr = farm.Ptr

type Graph struct{ name string }

// VisitVertices is handed a transaction, so it is a remote call.
func (g *Graph) VisitVertices(tx *farm.Tx, vps []VertexPtr, fn func(p VertexPtr) bool) error {
	return nil
}

// Name is handed neither a transaction nor a fabric context: local.
func (g *Graph) Name() string { return g.name }

type proxyMap struct {
	mu     sync.Mutex
	graphs map[string][]byte
}

// catGet is unexported, but it is handed a transaction and reads farm.
func catGet(tx *farm.Tx, key string) ([]byte, error) {
	_, err := tx.Read(farm.Ptr{})
	return nil, err
}

// Bad: an unexported core helper handed a transaction is a remote call too.
func (pm *proxyMap) meta(tx *farm.Tx, key string) error {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	raw, err := catGet(tx, key) // want `meta calls catGet while holding pm.mu`
	pm.graphs[key] = raw
	return err
}

// Good: the lock covers only the map update, after the read.
func (pm *proxyMap) refresh(tx *farm.Tx, key string) error {
	raw, err := catGet(tx, key)
	pm.mu.Lock()
	pm.graphs[key] = raw
	pm.mu.Unlock()
	return err
}
