package core

import (
	"errors"

	"a1/internal/farm"
)

// The catalog (paper §3.1) roots all A1 data structures: a key-value store
// mapping object names (tenants, graphs, types) to the metadata needed to
// access them — for a B-tree, the FaRM address of its descriptor. The
// catalog itself lives in FaRM, so materializing a handle costs remote
// reads; per-machine graph proxies with a TTL absorb that cost for the data
// plane (proxy.go).

// Catalog key prefixes. Keys are "<prefix>/<tenant>[/graph[/name]]".
const (
	catTenant     = "t/"
	catGraph      = "g/"
	catVertexType = "vt/"
	catEdgeType   = "et/"
)

// catPut writes a catalog entry inside tx; its graph's proxies drop at
// commit.
func (s *Store) catPut(tx *farm.Tx, key string, val []byte) error {
	s.dropProxyAtCommit(tx, key)
	return s.catalog().Put(tx, []byte(key), val)
}

// catGet reads a catalog entry inside tx (no cache).
func (s *Store) catGet(tx *farm.Tx, key string) ([]byte, bool, error) {
	return s.catalog().Get(tx, []byte(key))
}

// catDelete removes a catalog entry inside tx; its graph's proxies drop at
// commit.
func (s *Store) catDelete(tx *farm.Tx, key string) error {
	s.dropProxyAtCommit(tx, key)
	_, err := s.catalog().Delete(tx, []byte(key))
	return err
}

// catScanPrefix visits catalog entries under a key prefix.
func (s *Store) catScanPrefix(tx *farm.Tx, prefix string, fn func(key string, val []byte) bool) error {
	return s.catalog().Scan(tx, []byte(prefix), prefixEnd([]byte(prefix)), func(k, v []byte) bool {
		return fn(string(k), v)
	})
}

// prefixEnd returns the smallest key greater than every key with the given
// prefix (nil for an all-0xFF prefix).
func prefixEnd(prefix []byte) []byte {
	end := append([]byte(nil), prefix...)
	for i := len(end) - 1; i >= 0; i-- {
		if end[i] != 0xFF {
			end[i]++
			return end[:i+1]
		}
	}
	return nil
}

// ErrCatalogCorrupt reports undecodable catalog bytes.
var ErrCatalogCorrupt = errors.New("a1: corrupt catalog entry")
