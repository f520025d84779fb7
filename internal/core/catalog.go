package core

import (
	"errors"
	"sync"
	"time"

	"a1/internal/fabric"
	"a1/internal/farm"
)

// The catalog (paper §3.1) roots all A1 data structures: a key-value store
// mapping object names (tenants, graphs, types) to the metadata needed to
// access them — for a B-tree, the FaRM address of its descriptor. The
// catalog itself lives in FaRM, so materializing a handle costs remote
// reads; per-machine proxy caches with a TTL absorb that cost for the data
// plane. When a proxy's TTL expires the cache re-reads the entry: unchanged
// bytes extend the TTL, changed bytes refresh the proxy.

// Catalog key prefixes. Keys are "<prefix>/<tenant>[/graph[/name]]".
const (
	catTenant     = "t/"
	catGraph      = "g/"
	catVertexType = "vt/"
	catEdgeType   = "et/"
)

// proxyEntry is one cached catalog row plus its decoded proxy object.
type proxyEntry struct {
	raw     []byte
	decoded interface{}
	expires time.Duration
}

type proxyCache struct {
	mu      sync.Mutex
	entries map[string]*proxyEntry
}

func newProxyCache() *proxyCache {
	return &proxyCache{entries: make(map[string]*proxyEntry)}
}

// catPut writes a catalog entry inside tx.
func (s *Store) catPut(tx *farm.Tx, key string, val []byte) error {
	return s.catalog().Put(tx, []byte(key), val)
}

// catGet reads a catalog entry inside tx (no cache).
func (s *Store) catGet(tx *farm.Tx, key string) ([]byte, bool, error) {
	return s.catalog().Get(tx, []byte(key))
}

// catDelete removes a catalog entry inside tx.
func (s *Store) catDelete(tx *farm.Tx, key string) error {
	_, err := s.catalog().Delete(tx, []byte(key))
	s.invalidateProxy(key)
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

// proxyGet returns the decoded proxy for a catalog entry, reading through
// the per-machine cache. decode turns raw entry bytes into the cached
// proxy object.
func (s *Store) proxyGet(c *fabric.Ctx, key string, decode func([]byte) (interface{}, error)) (interface{}, error) {
	pc := s.proxies[c.M]
	now := c.Now()
	pc.mu.Lock()
	e, ok := pc.entries[key]
	pc.mu.Unlock()
	if ok && now < e.expires {
		return e.decoded, nil
	}
	// Miss or expired: read the authoritative entry.
	tx := s.farm.CreatePinnedReadTransaction(c)
	defer tx.Abort()
	raw, found, err := s.catGet(tx, key)
	if err != nil {
		return nil, err
	}
	if !found {
		s.invalidateProxy(key)
		return nil, ErrNotFound
	}
	if ok && string(raw) == string(e.raw) {
		// Unchanged: extend the TTL and keep using the proxy (§3.1).
		pc.mu.Lock()
		e.expires = now + s.cfg.ProxyTTL
		pc.mu.Unlock()
		return e.decoded, nil
	}
	decoded, err := decode(raw)
	if err != nil {
		return nil, err
	}
	pc.mu.Lock()
	pc.entries[key] = &proxyEntry{raw: raw, decoded: decoded, expires: now + s.cfg.ProxyTTL}
	pc.mu.Unlock()
	return decoded, nil
}

// invalidateProxy drops a key from every machine's proxy cache. Control
// plane operations call it after catalog mutations so the machine that
// performed the change observes it immediately; other machines converge
// within the TTL, exactly as in the paper.
func (s *Store) invalidateProxy(key string) {
	for _, pc := range s.proxies {
		pc.mu.Lock()
		delete(pc.entries, key)
		pc.mu.Unlock()
	}
}

// ErrCatalogCorrupt reports undecodable catalog bytes.
var ErrCatalogCorrupt = errors.New("a1: corrupt catalog entry")
