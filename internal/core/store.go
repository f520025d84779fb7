// Package core implements the A1 graph store — the paper's primary
// contribution (§3): the property-graph data model with enforced Bond
// schemas, the catalog with TTL-cached proxies, vertices stored as a
// header + data object pair, half-edge lists that spill from inline arrays
// into a global B-tree, primary and secondary indexes, and the CRUD data
// plane everything above (query engine, workflows, disaster recovery) is
// built on.
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"a1/internal/fabric"
	"a1/internal/farm"
	"a1/internal/stats"
)

// Errors surfaced by the graph layer.
var (
	ErrExists        = errors.New("a1: already exists")
	ErrNotFound      = errors.New("a1: not found")
	ErrBadSchema     = errors.New("a1: schema violation")
	ErrNoSuchType    = errors.New("a1: no such type")
	ErrGraphDeleting = errors.New("a1: graph is being deleted")
	ErrImmutablePK   = errors.New("a1: primary key is immutable")
)

// Config parameterizes the graph store.
type Config struct {
	// ProxyTTL is how long catalog proxies are used before re-validation
	// (paper §3.1).
	ProxyTTL time.Duration
	// EdgeSpillThreshold is the half-edge count above which a vertex's edge
	// list moves from an inline object to the global edge B-tree (the
	// paper's ~1000; §3.2).
	EdgeSpillThreshold int
	// RandomPlacement spreads new vertices across random machines (the
	// paper's production strategy, §3.2). When false, vertices are placed
	// near the coordinator — the locality ablation.
	RandomPlacement bool
	// Seed drives placement randomness deterministically.
	Seed int64
}

// DefaultConfig matches the paper's deployment choices.
func DefaultConfig() Config {
	return Config{
		ProxyTTL:           5 * time.Second,
		EdgeSpillThreshold: 1000,
		RandomPlacement:    true,
		Seed:               1,
	}
}

// Store is the A1 graph store over a FaRM cluster.
type Store struct {
	farm *farm.Farm
	cfg  Config

	catalogDesc farm.Ptr
	proxies     []proxyMap     // per machine catalog proxies (proxy.go)
	stats       *stats.Tracker // per machine live data-distribution stats

	randMu sync.Mutex
	rand   *rand.Rand

	logMu  sync.RWMutex
	logger UpdateLogger
}

// Open bootstraps (or reopens) the graph store on a FaRM cluster: the
// catalog B-tree is created on first open and found through its descriptor
// thereafter.
func Open(c *fabric.Ctx, f *farm.Farm, cfg Config) (*Store, error) {
	if cfg.ProxyTTL == 0 {
		cfg.ProxyTTL = DefaultConfig().ProxyTTL
	}
	if cfg.EdgeSpillThreshold == 0 {
		cfg.EdgeSpillThreshold = DefaultConfig().EdgeSpillThreshold
	}
	s := &Store{
		farm: f,
		cfg:  cfg,
		rand: rand.New(rand.NewSource(cfg.Seed)),
	}
	s.proxies = make([]proxyMap, f.Fabric().Machines())
	s.stats = stats.NewTracker(f.Fabric().Machines(), cfg.ProxyTTL)
	for i := range s.proxies {
		s.proxies[i].graphs = make(map[string]*graphProxy)
	}
	err := farm.RunTransaction(c, f, func(tx *farm.Tx) error {
		bt, err := farm.CreateBTree(tx, farm.NilAddr)
		if err != nil {
			return err
		}
		s.catalogDesc = bt.Desc()
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("a1: bootstrapping catalog: %w", err)
	}
	return s, nil
}

// Farm returns the underlying FaRM cluster.
func (s *Store) Farm() *farm.Farm { return s.farm }

// Config returns the store configuration.
func (s *Store) Config() Config { return s.cfg }

// SetLogger installs the disaster-recovery update logger. Pass nil to
// disable logging.
func (s *Store) SetLogger(l UpdateLogger) {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	s.logger = l
}

func (s *Store) updateLogger() UpdateLogger {
	s.logMu.RLock()
	defer s.logMu.RUnlock()
	return s.logger
}

// placementTarget picks the machine for a new vertex: random across the
// cluster in the paper's configuration.
func (s *Store) placementTarget(c *fabric.Ctx) fabric.MachineID {
	if !s.cfg.RandomPlacement {
		return c.M
	}
	n := s.farm.Fabric().Machines()
	if s.farm.Fabric().Config().Mode == fabric.Sim {
		return fabric.MachineID(s.farm.Fabric().Env().Rand().Intn(n))
	}
	s.randMu.Lock()
	defer s.randMu.Unlock()
	return fabric.MachineID(s.rand.Intn(n))
}

// catalog returns a handle on the catalog B-tree.
func (s *Store) catalog() *farm.BTree {
	return farm.OpenBTree(s.farm, s.catalogDesc)
}
