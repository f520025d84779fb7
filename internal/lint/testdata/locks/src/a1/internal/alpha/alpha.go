// Fixture for a1/locks: the store half of a cross-package
// lock-order cycle. Store embeds its mutex so other packages can take
// part in acquisition chains, and Bump buries a Store acquisition one
// call below its callers — only the bottom-up acquisition summary shows
// it to beta.
package alpha

import "sync"

type Store struct {
	sync.Mutex
	n int
}

// Bump acquires the store lock; callers holding other locks pick this
// acquisition up through Bump's acquisition summary.
func (s *Store) Bump() {
	s.Lock()
	s.n++
	s.Unlock()
}
