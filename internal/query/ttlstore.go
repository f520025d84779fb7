package query

import (
	"math"
	"slices"
	"sync"
	"time"
)

// ttlStore is the one id→state map with a time-to-live behind every piece
// of state a query leaves on a machine after it returns: the coordinator's
// continuation sources and the workers' parked group-run tails. An entry
// is either in the store or claimed by exactly one caller — work on a
// claimed value runs unlocked (it may cross the fabric) and ends in
// restore or in the caller's own teardown. Values that need teardown are
// handed back to the caller by put, sweep and drain, never closed under
// the lock.
type ttlStore[T any] struct {
	mu        sync.Mutex
	nextID    uint64
	entries   map[uint64]ttlEntry[T]
	lastSweep time.Duration
}

type ttlEntry[T any] struct {
	val     T
	expires time.Duration
}

func newTTLStore[T any]() *ttlStore[T] {
	return &ttlStore[T]{entries: make(map[uint64]ttlEntry[T])}
}

// put parks val under a fresh id (never 0) until now+ttl. It is also the
// store's sweeper: at most once per ttl/4 a put drops every lapsed entry
// and returns the values for the caller to tear down, so abandoned state
// is reclaimed by the traffic that creates it — no goroutine, and in Sim
// mode no virtual time.
func (s *ttlStore[T]) put(now, ttl time.Duration, val T) (id uint64, expired []T) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if now-s.lastSweep >= ttl/4 {
		s.lastSweep = now
		expired = s.takeLocked(now)
	}
	s.nextID++
	s.entries[s.nextID] = ttlEntry[T]{val: val, expires: now + ttl}
	return s.nextID, expired
}

// claim removes entry id and hands it to the caller, lapsed or not (the
// caller compares expires with its clock and owns the teardown). A second
// claim of the same id finds nothing until the first caller restores it.
func (s *ttlStore[T]) claim(id uint64) (val T, expires time.Duration, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ent, ok := s.entries[id]
	delete(s.entries, id)
	return ent.val, ent.expires, ok
}

// restore puts a claimed value back under its id and original expiry.
func (s *ttlStore[T]) restore(id uint64, val T, expires time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries[id] = ttlEntry[T]{val: val, expires: expires}
}

// sweep removes and returns every entry lapsed at now.
func (s *ttlStore[T]) sweep(now time.Duration) []T {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastSweep = now
	return s.takeLocked(now)
}

// drain empties the store and returns what it held.
func (s *ttlStore[T]) drain() []T {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.takeLocked(time.Duration(math.MaxInt64))
}

// takeLocked removes the entries lapsed at now and returns their values in
// id order, so teardown order never depends on map iteration.
func (s *ttlStore[T]) takeLocked(now time.Duration) []T {
	var ids []uint64
	for id, ent := range s.entries {
		if now >= ent.expires {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	vals := make([]T, len(ids))
	for i, id := range ids {
		vals[i] = s.entries[id].val
		delete(s.entries, id)
	}
	return vals
}

func (s *ttlStore[T]) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}
