// Fixture for a1/locks, lock-order rule: lock-acquisition-order cycles
// are potential deadlocks. The Registry/Store cycle crosses a package
// boundary with one of its two edges hidden below a call
// (alpha.Store.Bump), proving the bottom-up acquisition summaries; the
// A/B cycle is suppressed at its anchor site; the Cache ordering is
// consistent and silent; Coupled re-acquires one class (instance
// ordering) and is exempt by design.
package beta

import (
	"sync"

	"a1/internal/alpha"
)

type Registry struct {
	mu    sync.Mutex
	store *alpha.Store
}

// Publish orders Registry.mu before Store — the Store acquisition is
// one call below, in another package, visible only through its
// callee's acquisition summary. This
// call site is the cycle's anchor (lexicographically first edge).
func (r *Registry) Publish() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.store.Bump() // want `lock-order cycle alpha\.Store → beta\.Registry\.mu → alpha\.Store`
}

// Rebuild orders Store before Registry.mu — the opposite order, closing
// the cycle.
func (r *Registry) Rebuild() {
	r.store.Lock()
	defer r.store.Unlock()
	r.mu.Lock()
	r.mu.Unlock()
}

type Cache struct {
	mu sync.Mutex
}

// Good: Registry.mu → Cache.mu is the only ordering between these two
// classes anywhere in the program; a consistent order is no cycle.
func (r *Registry) Refresh(c *Cache) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c.mu.Lock()
	c.mu.Unlock()
}

// Exempt by design: re-acquiring the same lock class is instance
// ordering (the address-ordered coupling pattern); the class-level
// analyzer records no self-edge.
func Coupled(s1, s2 *alpha.Store) {
	s1.Lock()
	s2.Lock()
	s2.Unlock()
	s1.Unlock()
}

type A struct{ mu sync.Mutex }
type B struct{ mu sync.Mutex }

// Suppressed: a sanctioned cycle carries its justification at the
// anchor site (the lexicographically first contributing acquisition).
func Sanctioned(a *A, b *B) {
	a.mu.Lock()
	//lint:ignore a1/locks fixture: sanctioned legacy ordering kept until the A/B merge lands
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}

func SanctionedReverse(a *A, b *B) {
	b.mu.Lock()
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Unlock()
}
