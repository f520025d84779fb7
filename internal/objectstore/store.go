// Package objectstore reimplements the durable key-value store A1 uses for
// disaster recovery (paper §4): tables of Bond-schematized key-value pairs,
// 3-way durable replication (simulated as always-durable in-memory state
// that survives any A1 cluster event), a native timestamp-conditional
// upsert that applies updates in transaction-timestamp order in a single
// round trip, and the durability watermark tR.
//
// Every table has one layout: each key's versions, ascending by timestamp.
// The newest version is what best-effort recovery reads (Scan); the newest
// at or below tR is what consistent recovery reads (ScanAtOrBelow). An
// insert drops the versions of its key that neither can read again — those
// older than the newest version at or below tR — so once tR has passed a
// key's last write, the key holds one version, and while writes run ahead
// of tR it holds one more per write tR has not reached yet.
package objectstore

import (
	"errors"
	"slices"
	"sort"
	"sync"
)

// ErrUnavailable is injected by tests to exercise the asynchronous
// replication sweeper path.
var ErrUnavailable = errors.New("objectstore: temporarily unavailable")

// ErrNoTable is returned for operations on tables that do not exist.
var ErrNoTable = errors.New("objectstore: no such table")

// Row is one stored version of a key.
type Row struct {
	Key       []byte
	Value     []byte
	Ts        uint64
	Tombstone bool
}

// Store is a set of tables plus the durability watermark tR: every
// transaction with a timestamp at or below it is fully replicated.
type Store struct {
	mu          sync.Mutex
	tables      map[string]*Table
	watermark   uint64
	unavailable bool
}

// New creates an empty store.
func New() *Store {
	return &Store{tables: make(map[string]*Table)}
}

// SetUnavailable toggles fault injection: while set, every table operation
// fails with ErrUnavailable (the synchronous replication attempt fails and
// entries accumulate in A1's replication log).
func (s *Store) SetUnavailable(v bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.unavailable = v
}

// check fails while the store is unavailable and otherwise returns tR.
func (s *Store) check() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.unavailable {
		return 0, ErrUnavailable
	}
	return s.watermark, nil
}

// CreateTable creates (or returns) a table.
func (s *Store) CreateTable(name string) *Table {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tables[name]; ok {
		return t
	}
	t := &Table{store: s, versions: make(map[string][]Row)}
	s.tables[name] = t
	return t
}

// Table returns the named table.
func (s *Store) Table(name string) (*Table, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.unavailable {
		return nil, ErrUnavailable
	}
	t, ok := s.tables[name]
	if !ok {
		return nil, ErrNoTable
	}
	return t, nil
}

// PutWatermark durably records tR. It only advances: a lower value is
// ignored.
func (s *Store) PutWatermark(ts uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.unavailable {
		return ErrUnavailable
	}
	s.watermark = max(s.watermark, ts)
	return nil
}

// Watermark reads tR (0 before the first PutWatermark).
func (s *Store) Watermark() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.watermark
}

// Table is one key-value table.
type Table struct {
	store *Store

	mu       sync.Mutex
	versions map[string][]Row // ascending by Ts
}

// UpsertIfNewer stores value under key as the version at ts — the
// single-round-trip conditional API the paper describes: a version older
// than one recovery already reads in its place is discarded. The operation
// is idempotent: replaying a replication-log entry cannot change the
// outcome.
func (t *Table) UpsertIfNewer(key, value []byte, ts uint64) error {
	return t.insert(Row{Key: key, Value: value, Ts: ts})
}

// DeleteIfNewer records a deletion at ts as a tombstone version (removed
// later by GCTombstones). Idempotent like UpsertIfNewer.
func (t *Table) DeleteIfNewer(key []byte, ts uint64) error {
	return t.insert(Row{Key: key, Ts: ts, Tombstone: true})
}

func (t *Table) insert(row Row) error {
	tR, err := t.store.check()
	if err != nil {
		return err
	}
	row.Key = slices.Clone(row.Key)
	row.Value = slices.Clone(row.Value)
	t.mu.Lock()
	defer t.mu.Unlock()
	k := string(row.Key)
	vs := t.versions[k]
	i := sort.Search(len(vs), func(i int) bool { return vs[i].Ts >= row.Ts })
	if i < len(vs) && vs[i].Ts == row.Ts {
		return nil // idempotent replay
	}
	vs = slices.Insert(vs, i, row)
	// Keep the newest version at or below tR and every version above it.
	if j := atOrBelow(vs, tR); j > 0 {
		vs = slices.Delete(vs, 0, j)
	}
	t.versions[k] = vs
	return nil
}

// atOrBelow returns the index of the newest version with Ts <= ts, or -1.
func atOrBelow(vs []Row, ts uint64) int {
	return sort.Search(len(vs), func(i int) bool { return vs[i].Ts > ts }) - 1
}

// Versions returns every stored version of key, oldest first (the last is
// what best-effort recovery reads): what the insert-time trim left behind.
func (t *Table) Versions(key []byte) []Row {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.versions[string(key)])
}

// Scan visits the newest version of every key (tombstones included) in
// sorted key order: what best-effort recovery reads.
func (t *Table) Scan(fn func(Row) bool) error {
	return t.ScanAtOrBelow(^uint64(0), fn)
}

// ScanAtOrBelow visits, for every key, the newest version with Ts <= ts in
// sorted key order: at tR, what consistent recovery reads.
func (t *Table) ScanAtOrBelow(ts uint64, fn func(Row) bool) error {
	if _, err := t.store.check(); err != nil {
		return err
	}
	t.mu.Lock()
	var rows []Row
	for _, vs := range t.versions {
		if i := atOrBelow(vs, ts); i >= 0 {
			rows = append(rows, vs[i])
		}
	}
	t.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return string(rows[i].Key) < string(rows[j].Key) })
	for _, r := range rows {
		if !fn(r) {
			return nil
		}
	}
	return nil
}

// GCTombstones removes every key whose newest version is a tombstone older
// than before (the offline GC the paper runs weekly) and returns how many
// it removed. Only tombstones at or below tR go, so neither recovery mode
// reads anything different afterwards: above tR, consistent recovery still
// reads the version below the tombstone.
func (t *Table) GCTombstones(before uint64) int {
	tR := t.store.Watermark()
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for k, vs := range t.versions {
		last := vs[len(vs)-1]
		if last.Tombstone && last.Ts < before && last.Ts <= tR {
			delete(t.versions, k)
			n++
		}
	}
	return n
}
