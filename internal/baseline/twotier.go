// Package baseline reimplements the architecture A1 replaced (paper §1,
// §5): a two-tier stack with a durable store fronted by a memcached-style
// key-value cache. The cache exposes a primitive get API, so all query
// logic lives in the client: each traversal hop is one or more client↔cache
// round trips over TCP, with bounded client-side parallelism and no
// server-side filtering. Comparing its end-to-end latency against A1's
// query-shipping engine reproduces the paper's "3.6x average latency
// improvement" claim for the knowledge serving system.
package baseline

import (
	"errors"
	"hash/fnv"
	"sync"
	"time"

	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/fabric"
)

// record is a cached vertex: its payload plus adjacency lists by edge type.
type record struct {
	payload []byte
	adj     map[string][]string
}

// TwoTier is the cache tier plus the client access logic.
type TwoTier struct {
	fab *fabric.Fabric
	// Parallelism bounds concurrent client gets per hop (the old stack's
	// client connection pool).
	Parallelism int
	// PerGetCPU is the cache server's CPU cost to serve one get.
	PerGetCPU int64 // nanoseconds

	mu     sync.RWMutex
	shards []map[string]*record
}

// New creates an empty cache tier sharded across the fabric's machines.
func New(fab *fabric.Fabric) *TwoTier {
	b := &TwoTier{fab: fab, Parallelism: 64, PerGetCPU: 2000}
	b.shards = make([]map[string]*record, fab.Machines())
	for i := range b.shards {
		b.shards[i] = make(map[string]*record)
	}
	return b
}

func (b *TwoTier) shardOf(key string) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32()) % len(b.shards)
}

// LoadFromGraph snapshots an A1 graph into the cache: one record per
// vertex, adjacency flattened by edge type (this is the nightly map-reduce
// rebuild of the old knowledge-graph stack).
func (b *TwoTier) LoadFromGraph(c *fabric.Ctx, g *core.Graph, vertexType string) (int, error) {
	tx := g.Store().Farm().CreatePinnedReadTransaction(c)
	defer tx.Abort()
	type vert struct {
		id string
		vp core.VertexPtr
	}
	var verts []vert
	err := g.ScanVerticesByType(tx, vertexType, func(pk bond.Value, vp core.VertexPtr) bool {
		verts = append(verts, vert{id: pk.AsString(), vp: vp})
		return true
	})
	if err != nil {
		return 0, err
	}
	// Map vertex pointers back to ids for adjacency flattening.
	byAddr := make(map[core.VertexPtr]string, len(verts))
	for _, v := range verts {
		byAddr[core.VertexPtr{Addr: v.vp.Addr, Size: v.vp.Size}] = v.id
	}
	idOf := func(vp core.VertexPtr) string {
		if id, ok := byAddr[vp]; ok {
			return id
		}
		// Size mismatch fallback: match by address.
		for k, id := range byAddr {
			if k.Addr == vp.Addr {
				return id
			}
		}
		return ""
	}
	etypes, err := g.EdgeTypeNames(c)
	if err != nil {
		return 0, err
	}
	for _, v := range verts {
		vx, err := g.ReadVertex(tx, v.vp)
		if err != nil {
			return 0, err
		}
		rec := &record{payload: bond.Marshal(vx.Data), adj: map[string][]string{}}
		for _, et := range etypes {
			err := g.EnumerateEdges(tx, v.vp, core.DirOut, et, func(he core.HalfEdge) bool {
				if id := idOf(he.Other); id != "" {
					rec.adj[et] = append(rec.adj[et], id)
				}
				return true
			})
			if err != nil {
				return 0, err
			}
		}
		b.mu.Lock()
		b.shards[b.shardOf(v.id)][v.id] = rec
		b.mu.Unlock()
	}
	return len(verts), nil
}

// ErrMiss reports a cache miss.
var ErrMiss = errors.New("baseline: cache miss")

// get fetches one record as the client: a TCP round trip to the owning
// cache server plus its per-get CPU.
func (b *TwoTier) get(c *fabric.Ctx, key string) (*record, error) {
	shard := b.shardOf(key)
	if b.fab.Config().Mode == fabric.Sim {
		lat := b.fab.Config().Latency.ClientOneWay
		c.Sleep(lat) // request
		c.At(fabric.MachineID(shard)).Work(time.Duration(b.PerGetCPU))
		c.Sleep(lat) // response
	}
	b.mu.RLock()
	rec := b.shards[shard][key]
	b.mu.RUnlock()
	if rec == nil {
		return nil, ErrMiss
	}
	return rec, nil
}

// Traverse runs a multi-hop traversal entirely client-side: per hop, fetch
// every frontier record (bounded parallelism), concatenate the requested
// adjacency lists, dedup, repeat; finally fetch the terminal entities (the
// serving system renders their payloads, just as A1 reads its terminal
// vertices). Returns the distinct final-frontier size — the client-side
// equivalent of the paper's count queries.
func (b *TwoTier) Traverse(c *fabric.Ctx, start string, hops []string) (int, error) {
	frontier := []string{start}
	for _, etype := range append(hops, "") {
		if etype == "" {
			// Terminal fetch round: materialize the final entities.
			b.fetchAll(c, frontier)
			break
		}
		seen := map[string]bool{}
		var next []string
		var mu sync.Mutex
		var firstErr error
		for base := 0; base < len(frontier); base += b.Parallelism {
			end := base + b.Parallelism
			if end > len(frontier) {
				end = len(frontier)
			}
			chunk := frontier[base:end]
			c.Parallel(len(chunk), func(i int, cc *fabric.Ctx) {
				rec, err := b.get(cc, chunk[i])
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					if firstErr == nil && !errors.Is(err, ErrMiss) {
						firstErr = err
					}
					return
				}
				for _, id := range rec.adj[etype] {
					if !seen[id] {
						seen[id] = true
						next = append(next, id)
					}
				}
			})
		}
		if firstErr != nil {
			return 0, firstErr
		}
		frontier = next
	}
	return len(frontier), nil
}

// fetchAll gets every id with bounded parallelism (payloads discarded).
func (b *TwoTier) fetchAll(c *fabric.Ctx, ids []string) {
	for base := 0; base < len(ids); base += b.Parallelism {
		end := base + b.Parallelism
		if end > len(ids) {
			end = len(ids)
		}
		chunk := ids[base:end]
		c.Parallel(len(chunk), func(i int, cc *fabric.Ctx) {
			_, _ = b.get(cc, chunk[i])
		})
	}
}
