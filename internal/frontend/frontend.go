// Package frontend models A1's stateless frontend tier (paper §2.2, Figure
// 4): clients reach the cluster over plain TCP through a software load
// balancer; frontends throttle, pick a random backend to coordinate each
// query, and route continuation-token fetches back to the coordinator that
// cached the results. Client↔cluster latency rides the traditional TCP
// stack and is therefore far higher than the intra-cluster RDMA fabric —
// but immaterial against multi-read query execution times.
package frontend

import (
	"errors"
	"sync"

	"a1/internal/core"
	"a1/internal/fabric"
	"a1/internal/query"
)

// ErrThrottled rejects requests beyond the configured rate.
var ErrThrottled = errors.New("a1: request throttled by frontend")

// Config tunes the frontend tier.
type Config struct {
	// Frontends is the number of stateless frontend machines behind the SLB.
	Frontends int
	// MaxInflight throttles concurrent requests per frontend (0 = off).
	MaxInflight int
}

// Tier is the SLB + frontend layer in front of a backend cluster.
type Tier struct {
	cfg    Config
	engine *query.Engine
	fab    *fabric.Fabric

	mu       sync.Mutex
	rr       int   // SLB round-robin cursor
	inflight []int // per frontend
	seed     uint64
}

// New creates the frontend tier.
func New(fab *fabric.Fabric, engine *query.Engine, cfg Config) *Tier {
	if cfg.Frontends < 1 {
		cfg.Frontends = 2
	}
	return &Tier{
		cfg:      cfg,
		engine:   engine,
		fab:      fab,
		inflight: make([]int, cfg.Frontends),
		seed:     0x9E3779B97F4A7C15,
	}
}

// pickFrontend is the SLB: round-robin across frontends.
func (t *Tier) pickFrontend() (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fe := t.rr % t.cfg.Frontends
	t.rr++
	if t.cfg.MaxInflight > 0 && t.inflight[fe] >= t.cfg.MaxInflight {
		return -1, ErrThrottled
	}
	t.inflight[fe]++
	return fe, nil
}

func (t *Tier) release(fe int) {
	t.mu.Lock()
	t.inflight[fe]--
	t.mu.Unlock()
}

// pickBackend routes a fresh query to a random backend, which becomes its
// coordinator.
func (t *Tier) pickBackend() fabric.MachineID {
	t.mu.Lock()
	defer t.mu.Unlock()
	// xorshift: deterministic without sharing the sim RNG across modes.
	t.seed ^= t.seed << 13
	t.seed ^= t.seed >> 7
	t.seed ^= t.seed << 17
	return fabric.MachineID(t.seed % uint64(t.fab.Machines()))
}

// clientWire charges one client↔cluster TCP leg.
func (t *Tier) clientWire(c *fabric.Ctx) {
	if t.fab.Config().Mode == fabric.Sim {
		c.Sleep(t.fab.Config().Latency.ClientOneWay)
	}
}

// Query executes an A1QL document end-to-end as an external client would:
// client → SLB → frontend → random backend coordinator → reply.
func (t *Tier) Query(c *fabric.Ctx, g *core.Graph, doc []byte) (*query.Result, error) {
	fe, err := t.pickFrontend()
	if err != nil {
		return nil, err
	}
	defer t.release(fe)
	t.clientWire(c) // client -> frontend
	backend := t.pickBackend()
	t.clientWire(c) // frontend -> backend (TCP, not RDMA)
	res, err := t.engine.Execute(c.At(backend), g, doc)
	t.clientWire(c) // reply path
	return res, err
}

// Prepare parses and validates a document once against the engine's plan
// cache; the returned statement executes through the tier with Exec.
func (t *Tier) Prepare(c *fabric.Ctx, g *core.Graph, doc []byte) (*query.Prepared, error) {
	return t.engine.Prepare(c, g, doc)
}

// Exec runs a prepared statement with fresh bind values through the
// frontend path: the statement binds against the cached AST (no parse) and
// a random backend coordinates, exactly like Query.
func (t *Tier) Exec(c *fabric.Ctx, p *query.Prepared, params query.Params) (*query.Result, error) {
	fe, err := t.pickFrontend()
	if err != nil {
		return nil, err
	}
	defer t.release(fe)
	t.clientWire(c)
	backend := t.pickBackend()
	t.clientWire(c)
	res, err := p.Exec(c.At(backend), params)
	t.clientWire(c)
	return res, err
}

// Fetch retrieves the next page for a continuation token, decoding the
// coordinator's identity from the token and forwarding there (§3.4).
func (t *Tier) Fetch(c *fabric.Ctx, token string) (*query.Result, error) {
	fe, err := t.pickFrontend()
	if err != nil {
		return nil, err
	}
	defer t.release(fe)
	coordinator, err := t.engine.Coordinator(token)
	if err != nil {
		return nil, err
	}
	t.clientWire(c)
	t.clientWire(c)
	res, err := t.engine.Fetch(c.At(coordinator), token)
	t.clientWire(c)
	return res, err
}

// Release frees the continuation state behind a token (cursor Close).
// Unlike Fetch it is not throttled: dropping server-side state should
// never be rejected under load.
func (t *Tier) Release(c *fabric.Ctx, token string) error {
	coordinator, err := t.engine.Coordinator(token)
	if err != nil {
		return err
	}
	t.clientWire(c)
	t.clientWire(c)
	err = t.engine.Release(c.At(coordinator), token)
	t.clientWire(c)
	return err
}

// tierFetcher drives a cursor's page fetches and release through the
// frontend tier (SLB + token routing), like an external client.
type tierFetcher struct{ t *Tier }

func (f tierFetcher) Fetch(c *fabric.Ctx, token string) (*query.Result, error) {
	return f.t.Fetch(c, token)
}

func (f tierFetcher) Release(c *fabric.Ctx, token string) error {
	return f.t.Release(c, token)
}

// QueryRows executes a document and returns a streaming cursor whose page
// fetches ride the frontend tier transparently.
func (t *Tier) QueryRows(c *fabric.Ctx, g *core.Graph, doc []byte) (*query.Rows, error) {
	res, err := t.Query(c, g, doc)
	if err != nil {
		return nil, err
	}
	return query.NewRows(res, tierFetcher{t}), nil
}

// ExecRows runs a prepared statement and returns a streaming cursor.
func (t *Tier) ExecRows(c *fabric.Ctx, p *query.Prepared, params query.Params) (*query.Rows, error) {
	res, err := t.Exec(c, p, params)
	if err != nil {
		return nil, err
	}
	return query.NewRows(res, tierFetcher{t}), nil
}

// RowsOf wraps an already-fetched first page in a tier-routed cursor.
func (t *Tier) RowsOf(res *query.Result) *query.Rows {
	return query.NewRows(res, tierFetcher{t})
}
