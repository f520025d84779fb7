package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"a1/internal/fabric"
	"a1/internal/farm"
)

// Catalog proxies (paper §3.1). The data plane reads the catalog through one
// per-machine map of graph proxies keyed tenant/graph. An entry has two
// halves, each filled on first use and each expiring ProxyTTL later on its
// own:
//   - the graph row, kept decoded beside its raw bytes: once it expires the
//     row is re-read, and unchanged bytes extend the TTL of the same decoded
//     proxy;
//   - the type directory, every vertex and edge type of the graph by name
//     and by id: vertex headers and half-edges store numeric type ids, so
//     the data plane maps ids to schemas on every read.
//
// Every committed catalog write drops its graph's entry on every machine
// (catPut, catDelete). Entries are filled in place and dropped, never put
// back: an entry is in the map before any fill reads the catalog, so a fill
// that races a commit lands in the entry the commit drops, and the next
// lookup starts a new one.
type graphProxy struct {
	meta  atomic.Pointer[metaProxy]
	types atomic.Pointer[typeDirectory]
}

// metaProxy is the graph-row half of a graphProxy.
type metaProxy struct {
	raw     []byte
	m       *graphMeta
	expires time.Duration
}

// typeDirectory is the type half of a graphProxy.
type typeDirectory struct {
	vByID   map[uint32]*vertexTypeMeta
	vByName map[string]*vertexTypeMeta
	vNames  []string // vertex type names in catalog key order, i.e. sorted
	eByID   map[uint32]*edgeTypeMeta
	eByName map[string]*edgeTypeMeta
	expires time.Duration
}

// proxyMap is one machine's graph proxies; it is dropped when the machine's
// process crashes or the machine fails (DropProxiesOn).
type proxyMap struct {
	mu     sync.Mutex
	graphs map[string]*graphProxy // keyed tenant/graph
}

// DropProxiesOn drops every graph proxy of machine m, as the loss of its
// process does: the next lookup there starts a new entry.
func (s *Store) DropProxiesOn(m fabric.MachineID) {
	pm := &s.proxies[m]
	pm.mu.Lock()
	clear(pm.graphs)
	pm.mu.Unlock()
}

// proxy returns machine c.M's entry for a graph, adding an empty one.
func (s *Store) proxy(c *fabric.Ctx, key string) *graphProxy {
	pm := &s.proxies[c.M]
	pm.mu.Lock()
	defer pm.mu.Unlock()
	p := pm.graphs[key]
	if p == nil {
		p = new(graphProxy)
		pm.graphs[key] = p
	}
	return p
}

// dropProxyAtCommit drops the graph entry of catalog key catKey on every
// machine once tx commits. Tenant rows have no entry.
func (s *Store) dropProxyAtCommit(tx *farm.Tx, catKey string) {
	// Keys are "<prefix>/<tenant>/<graph>[/name]", and tenant and graph
	// names hold no '/'.
	_, rest, _ := strings.Cut(catKey, "/")
	tenant, rest, ok := strings.Cut(rest, "/")
	if !ok {
		return
	}
	graph, _, _ := strings.Cut(rest, "/")
	key := tenant + "/" + graph
	tx.OnCommitted(func() {
		for i := range s.proxies {
			pm := &s.proxies[i]
			pm.mu.Lock()
			delete(pm.graphs, key)
			pm.mu.Unlock()
		}
	})
}

// meta returns the graph row, re-reading it once the half has expired.
func (g *Graph) meta(c *fabric.Ctx) (*graphMeta, error) {
	p := g.store.proxy(c, g.key)
	now := c.Now()
	old := p.meta.Load()
	if old != nil && now < old.expires {
		return old.m, nil
	}
	tx := g.store.farm.CreatePinnedReadTransaction(c)
	defer tx.Abort()
	raw, found, err := g.store.catGet(tx, g.gKey)
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, ErrNotFound
	}
	next := &metaProxy{raw: raw, expires: now + g.store.cfg.ProxyTTL}
	if old != nil && string(raw) == string(old.raw) {
		next.m = old.m // unchanged: extend the TTL, keep the proxy (§3.1)
	} else if next.m, err = decodeGraphMeta(raw); err != nil {
		return nil, err
	}
	p.meta.Store(next)
	return next.m, nil
}

// types returns the type directory, rebuilding it once the half has expired.
func (g *Graph) types(c *fabric.Ctx) (*typeDirectory, error) {
	p := g.store.proxy(c, g.key)
	if d := p.types.Load(); d != nil && c.Now() < d.expires {
		return d, nil
	}
	return g.loadTypes(c, p)
}

// WarmProxy fills the halves of the graph's catalog proxy on c's machine
// that a batch visit reads, where they are stale: the type directory, and
// with edges the graph row that edge enumeration reads. Visits started
// next on that machine, concurrently, then share one fill rather than each
// reading the catalog.
func (g *Graph) WarmProxy(c *fabric.Ctx, edges bool) error {
	if edges {
		if _, err := g.meta(c); err != nil {
			return err
		}
	}
	_, err := g.types(c)
	return err
}

// typesMissed rebuilds the type directory for a caller that missed a name
// in it: the name may be newer than the directory. It is the one miss path
// of every lookup by type name.
func (g *Graph) typesMissed(c *fabric.Ctx) (*typeDirectory, error) {
	return g.loadTypes(c, g.store.proxy(c, g.key))
}

// loadTypes reads the graph's type rows into a new directory for p.
func (g *Graph) loadTypes(c *fabric.Ctx, p *graphProxy) (*typeDirectory, error) {
	d := &typeDirectory{
		vByID:   make(map[uint32]*vertexTypeMeta),
		vByName: make(map[string]*vertexTypeMeta),
		eByID:   make(map[uint32]*edgeTypeMeta),
		eByName: make(map[string]*edgeTypeMeta),
		expires: c.Now() + g.store.cfg.ProxyTTL,
	}
	tx := g.store.farm.CreatePinnedReadTransaction(c)
	defer tx.Abort()
	var decodeErr error
	err := g.store.catScanPrefix(tx, vtypePrefix(g.tenant, g.name), func(_ string, raw []byte) bool {
		m, err := decodeVertexTypeMeta(raw)
		if err != nil {
			decodeErr = err
			return false
		}
		d.vByID[m.ID] = m
		d.vByName[m.Name] = m
		d.vNames = append(d.vNames, m.Name)
		return true
	})
	if err == nil {
		err = decodeErr
	}
	if err != nil {
		return nil, err
	}
	err = g.store.catScanPrefix(tx, etypePrefix(g.tenant, g.name), func(_ string, raw []byte) bool {
		m, err := decodeEdgeTypeMeta(raw)
		if err != nil {
			decodeErr = err
			return false
		}
		d.eByID[m.ID] = m
		d.eByName[m.Name] = m
		return true
	})
	if err == nil {
		err = decodeErr
	}
	if err != nil {
		return nil, err
	}
	p.types.Store(d)
	return d, nil
}

// typeByName finds a type by name, re-reading the directory once on a miss.
func typeByName[M any](g *Graph, c *fabric.Ctx, kind, name string, byName func(*typeDirectory) map[string]M) (M, error) {
	d, err := g.types(c)
	if err == nil {
		if m, ok := byName(d)[name]; ok {
			return m, nil
		}
		if d, err = g.typesMissed(c); err == nil {
			if m, ok := byName(d)[name]; ok {
				return m, nil
			}
			err = fmt.Errorf("%w: %s type %q", ErrNoSuchType, kind, name)
		}
	}
	var none M
	return none, err
}

// vertexType resolves a vertex type by name.
func (g *Graph) vertexType(c *fabric.Ctx, name string) (*vertexTypeMeta, error) {
	return typeByName(g, c, "vertex", name, func(d *typeDirectory) map[string]*vertexTypeMeta { return d.vByName })
}

// edgeType resolves an edge type by name.
func (g *Graph) edgeType(c *fabric.Ctx, name string) (*edgeTypeMeta, error) {
	return typeByName(g, c, "edge", name, func(d *typeDirectory) map[string]*edgeTypeMeta { return d.eByName })
}
