package core

import (
	"sync"
	"time"

	"a1/internal/fabric"
)

// typeDirectory is a per-machine TTL cache of a graph's full type map,
// keyed both by name and by numeric type id. Vertex headers and half-edges
// store numeric ids (compact, fixed-size), so the data plane constantly
// maps ids back to schemas; rebuilding that map from the catalog on every
// operation would be the "expensive proxy materialization" the paper's
// §3.1 cache exists to avoid.
type typeDirectory struct {
	vByID   map[uint32]*vertexTypeMeta
	vByName map[string]*vertexTypeMeta
	vNames  []string // vertex type names in catalog key order, i.e. sorted
	eByID   map[uint32]*edgeTypeMeta
	eByName map[string]*edgeTypeMeta
	expires time.Duration
}

type typeDirCache struct {
	mu   sync.Mutex
	dirs map[string]*typeDirectory // keyed tenant/graph
}

// typeDir returns the cached type directory for a graph, rebuilding it from
// the catalog when the TTL lapses.
func (s *Store) typeDir(c *fabric.Ctx, tenant, graph string) (*typeDirectory, error) {
	return s.typeDirByKey(c, tenant+"/"+graph, tenant, graph)
}

// typeDirByKey is typeDir with the cache key precomputed by the caller
// (Graph handles build theirs once), keeping the per-read lookup
// allocation-free.
func (s *Store) typeDirByKey(c *fabric.Ctx, cacheKey, tenant, graph string) (*typeDirectory, error) {
	cache := s.typeDirs[c.M]
	now := c.Now()
	cache.mu.Lock()
	dir, ok := cache.dirs[cacheKey]
	cache.mu.Unlock()
	if ok && now < dir.expires {
		return dir, nil
	}
	dir = &typeDirectory{
		vByID:   make(map[uint32]*vertexTypeMeta),
		vByName: make(map[string]*vertexTypeMeta),
		eByID:   make(map[uint32]*edgeTypeMeta),
		eByName: make(map[string]*edgeTypeMeta),
		expires: now + s.cfg.ProxyTTL,
	}
	tx := s.farm.CreatePinnedReadTransaction(c)
	defer tx.Abort()
	var decodeErr error
	err := s.catScanPrefix(tx, vtypePrefix(tenant, graph), func(_ string, raw []byte) bool {
		m, err := decodeVertexTypeMeta(raw)
		if err != nil {
			decodeErr = err
			return false
		}
		dir.vByID[m.ID] = m
		dir.vByName[m.Name] = m
		dir.vNames = append(dir.vNames, m.Name)
		return true
	})
	if err == nil {
		err = decodeErr
	}
	if err != nil {
		return nil, err
	}
	decodeErr = nil
	err = s.catScanPrefix(tx, etypePrefix(tenant, graph), func(_ string, raw []byte) bool {
		m, err := decodeEdgeTypeMeta(raw)
		if err != nil {
			decodeErr = err
			return false
		}
		dir.eByID[m.ID] = m
		dir.eByName[m.Name] = m
		return true
	})
	if err == nil {
		err = decodeErr
	}
	if err != nil {
		return nil, err
	}
	cache.mu.Lock()
	cache.dirs[cacheKey] = dir
	cache.mu.Unlock()
	return dir, nil
}

// invalidateTypeDir drops the directory on every machine after a type
// change (the owning machine sees it immediately; in production other
// machines would converge within the TTL).
func (s *Store) invalidateTypeDir(tenant, graph string) {
	cacheKey := tenant + "/" + graph
	for _, cache := range s.typeDirs {
		cache.mu.Lock()
		delete(cache.dirs, cacheKey)
		cache.mu.Unlock()
	}
}
