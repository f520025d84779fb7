// Package a1 is a from-scratch Go reproduction of "A1: A Distributed
// In-Memory Graph Database" (Buragohain et al., SIGMOD 2020): the graph
// database Bing uses for low-latency structured queries, built on the FaRM
// distributed in-memory transactional storage system and an RDMA fabric.
//
// The package is the public facade over the full stack:
//
//   - a discrete-event simulated RDMA fabric (internal/sim, internal/fabric)
//   - FaRM: regions, 3-way replication, strictly serializable transactions
//     with FaRMv2 multi-versioning and opacity, distributed B-trees, fast
//     restart (internal/farm)
//   - the A1 graph store: catalog, schema-enforced property graph, vertex
//     header/data objects, half-edge lists with B-tree spill, primary and
//     secondary indexes (internal/core)
//   - the A1QL query engine with distributed query shipping
//     (internal/query), asynchronous workflows (internal/task), disaster
//     recovery over a durable ObjectStore (internal/dr, internal/objectstore)
//   - the stateless frontend tier (internal/frontend)
//
// Open a database in Direct mode for real-concurrency use, or in Sim mode
// to measure microsecond-scale latencies on the virtual clock:
//
//	db, _ := a1.Open(a1.Options{Machines: 16})
//	db.Run(func(c *a1.Ctx) {
//	    db.CreateTenant(c, "bing")
//	    db.CreateGraph(c, "bing", "kg")
//	    g, _ := db.OpenGraph(c, "bing", "kg")
//	    ...
//	})
package a1

import (
	"errors"
	"time"

	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/dr"
	"a1/internal/fabric"
	"a1/internal/farm"
	"a1/internal/frontend"
	"a1/internal/objectstore"
	"a1/internal/query"
	"a1/internal/sim"
	"a1/internal/stats"
	"a1/internal/task"
)

// Aliases re-exporting the layered API through the facade.
type (
	// Ctx is an execution context: which machine code runs on and, in Sim
	// mode, the simulated process driving it.
	Ctx = fabric.Ctx
	// MachineID identifies a backend machine.
	MachineID = fabric.MachineID
	// Tx is a FaRM transaction.
	Tx = farm.Tx
	// Graph is a graph handle exposing the vertex/edge data plane.
	Graph = core.Graph
	// VertexPtr is a vertex's stable fat pointer.
	VertexPtr = core.VertexPtr
	// HalfEdge is one entry of a vertex's edge list.
	HalfEdge = core.HalfEdge
	// Value is a Bond value (vertex/edge attribute data).
	Value = bond.Value
	// Schema is a Bond struct schema.
	Schema = bond.Schema
	// Field declares one schema field.
	Field = bond.Field
	// Result is a query response page.
	Result = query.Result
	// GroupRow is one `_groupby` result group (key values + aggregates).
	GroupRow = query.GroupRow
	// QueryStats describes a query's execution.
	QueryStats = query.Stats
	// LevelStats is one traversal level's estimated-vs-actual accounting
	// (QueryStats.Levels).
	LevelStats = query.LevelStats
	// GraphStatistics is a graph's live cluster-wide statistics: per-type
	// vertex counts, per-indexed-field distinct/heavy-hitter estimates, and
	// per-edge-label mean out-degrees — the numbers the cost-based planner
	// runs on.
	GraphStatistics = stats.GraphSummary
	// Params carries bind values for a parameterized query ("$name"
	// placeholders in id, predicate constants, _limit and _skip).
	Params = query.Params
	// Rows is a streaming cursor over a query's full result set; it pages
	// through continuation tokens transparently.
	Rows = query.Rows
	// QueryError is a classified query failure (Code + message).
	QueryError = query.Error
	// PlanTree is a compiled query plan as a typed operator tree — the
	// structured form behind Explain, JSON-serializable for tooling.
	PlanTree = query.PlanTree
	// PlanNode is one operator of a PlanTree.
	PlanNode = query.PlanNode
	// RecoveryStats summarizes a disaster recovery run.
	RecoveryStats = dr.RecoveryStats
	// ObjectStore is the durable store disaster recovery replicates into.
	ObjectStore = objectstore.Store
)

// Direction re-exports.
const (
	DirOut = core.DirOut
	DirIn  = core.DirIn
)

// Recovery modes.
const (
	RecoverBestEffort = dr.BestEffort
	RecoverConsistent = dr.Consistent
)

// Query error codes (QueryError.Code) for transport-level mapping.
const (
	CodeInternal    = query.CodeInternal
	CodeParse       = query.CodeParse
	CodeBadParam    = query.CodeBadParam
	CodeNoStart     = query.CodeNoStart
	CodeBadToken    = query.CodeBadToken
	CodeWorkingSet  = query.CodeWorkingSet
	CodeRecurse     = query.CodeRecurse
	CodeUnavailable = query.CodeUnavailable
)

// Common query errors, surfaced for errors.Is.
var (
	// ErrNoStart means the root pattern matched no vertex.
	ErrNoStart = query.ErrNoStart
	// ErrBadToken rejects malformed or expired continuation tokens.
	ErrBadToken = query.ErrBadToken
	// ErrThrottled rejects requests beyond a frontend's MaxInflight.
	ErrThrottled = frontend.ErrThrottled
)

// Mode selects execution semantics.
type Mode int

const (
	// Direct runs with real goroutine concurrency and no latency model —
	// the right mode for applications and tests.
	Direct Mode = iota
	// Sim runs on a deterministic discrete-event virtual clock — the right
	// mode for latency experiments.
	Sim
)

// Options configures a database.
type Options struct {
	Machines    int  // backend machines (default 8)
	Racks       int  // fault domains (default: machines/16, min 3)
	Mode        Mode // Direct (default) or Sim
	Seed        int64
	RegionSize  uint32 // bytes per region (default 16MB)
	Replicas    int    // replication factor (default 3)
	Frontends   int    // stateless frontends (default 2)
	MaxInflight int    // concurrent requests per frontend before ErrThrottled (0 = off)
	TaskWorkers int    // background task workers per machine (0 = manual)

	// EdgeSpillThreshold overrides the inline→B-tree edge list spill point
	// (default 1000, the paper's production value).
	EdgeSpillThreshold int
	// RandomPlacement spreads vertices across random machines (default
	// true, §3.2); disable for the locality ablation.
	NoRandomPlacement bool
	// ProxyTTL overrides the catalog proxy cache TTL.
	ProxyTTL time.Duration

	// EnableDR attaches a replication log and durable ObjectStore; the
	// recovery guarantee is chosen later, per Recover call.
	EnableDR bool
	// QueryConfig overrides engine tuning (zero value = defaults).
	QueryConfig query.Config
}

// DB is an A1 database: a simulated cluster plus every service layered on
// it.
type DB struct {
	opts   Options
	env    *sim.Env
	fab    *fabric.Fabric
	farm   *farm.Farm
	store  *core.Store
	engine *query.Engine
	tier   *frontend.Tier
	tasks  *task.Runtime
	flows  *task.Workflows
	repl   *dr.Replicator
	os     *objectstore.Store
}

// Open builds a database.
func Open(opts Options) (*DB, error) {
	if opts.Machines <= 0 {
		opts.Machines = 8
	}
	if opts.Replicas == 0 {
		opts.Replicas = 3
	}
	if opts.RegionSize == 0 {
		opts.RegionSize = 16 << 20
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	db := &DB{opts: opts}
	fcfg := fabric.DefaultConfig(opts.Machines, fabric.Direct)
	if opts.Mode == Sim {
		db.env = sim.NewEnv(opts.Seed)
		fcfg.Mode = fabric.Sim
	}
	if opts.Racks > 0 {
		fcfg.Racks = opts.Racks
	}
	fcfg.Seed = opts.Seed
	db.fab = fabric.New(fcfg, db.env)
	db.farm = farm.Open(db.fab, farm.Config{
		RegionSize: opts.RegionSize,
		Replicas:   opts.Replicas,
	})

	ccfg := core.DefaultConfig()
	ccfg.Seed = opts.Seed
	if opts.EdgeSpillThreshold > 0 {
		ccfg.EdgeSpillThreshold = opts.EdgeSpillThreshold
	}
	ccfg.RandomPlacement = !opts.NoRandomPlacement
	if opts.ProxyTTL > 0 {
		ccfg.ProxyTTL = opts.ProxyTTL
	}

	var initErr error
	db.Run(func(c *Ctx) {
		db.store, initErr = core.Open(c, db.farm, ccfg)
		if initErr != nil {
			return
		}
		qcfg := opts.QueryConfig
		if qcfg.PageSize == 0 && qcfg.ShipThreshold == 0 {
			qcfg = query.DefaultConfig()
		}
		db.engine = query.NewEngine(db.store, qcfg)
		db.tier = frontend.New(db.fab, db.engine, frontend.Config{
			Frontends:   opts.Frontends,
			MaxInflight: opts.MaxInflight,
		})
		db.tasks, initErr = task.NewRuntime(c, db.farm)
		if initErr != nil {
			return
		}
		db.flows = task.RegisterWorkflows(db.tasks, db.store)
		if opts.EnableDR {
			db.os = objectstore.New()
			db.repl, initErr = dr.NewReplicator(c, db.farm, db.os)
			if initErr != nil {
				return
			}
			db.store.SetLogger(db.repl)
		}
		if opts.TaskWorkers > 0 {
			db.tasks.StartWorkers(c, opts.TaskWorkers)
		}
	})
	if initErr != nil {
		return nil, initErr
	}
	return db, nil
}

// Run executes fn with a context on machine 0. In Sim mode fn runs inside
// the discrete-event scheduler (and may spawn concurrent activities with
// c.Parallel / c.Go); in Direct mode it runs inline.
func (db *DB) Run(fn func(c *Ctx)) {
	if db.opts.Mode == Sim {
		db.env.Run(func(p *sim.Proc) {
			fn(db.fab.NewCtx(0, p))
		})
		return
	}
	fn(db.fab.NewCtx(0, nil))
}

// Close stops background workers.
func (db *DB) Close() {
	if db.tasks != nil {
		db.tasks.Stop()
	}
}

// Control plane.

// CreateTenant registers a tenant (the isolation container, §3).
func (db *DB) CreateTenant(c *Ctx, tenant string) error { return db.store.CreateTenant(c, tenant) }

// CreateGraph creates a graph under a tenant.
func (db *DB) CreateGraph(c *Ctx, tenant, graph string) error {
	return db.store.CreateGraph(c, tenant, graph)
}

// OpenGraph returns a data-plane handle.
func (db *DB) OpenGraph(c *Ctx, tenant, graph string) (*Graph, error) {
	return db.store.OpenGraph(c, tenant, graph)
}

// DeleteGraphAsync starts the asynchronous graph teardown workflow (§3.3).
// Drive it with RunPendingTasks (or background workers via
// Options.TaskWorkers).
func (db *DB) DeleteGraphAsync(c *Ctx, tenant, graph string) error {
	return db.flows.DeleteGraphAsync(c, tenant, graph)
}

// RunPendingTasks synchronously drains the background task queue.
func (db *DB) RunPendingTasks(c *Ctx) (int, error) { return db.tasks.RunPending(c) }

// Transactions.

// Transaction runs fn inside an optimistic read-write transaction with the
// canonical retry loop (paper Figure 3).
func (db *DB) Transaction(c *Ctx, fn func(tx *Tx) error) error {
	return farm.RunTransaction(c, db.farm, fn)
}

// ReadTransaction opens a read-only snapshot transaction; it never
// conflicts with updates (§5.2). Its snapshot is not pinned: it holds until
// the next GCVersions sweep, after which reads of versions overwritten
// since it opened may fail with farm.ErrTooOld.
func (db *DB) ReadTransaction(c *Ctx) *Tx { return db.farm.CreateReadTransaction(c) }

// Queries.

// Query executes an A1QL document end-to-end through the frontend tier
// (client → SLB → frontend → coordinator).
func (db *DB) Query(c *Ctx, g *Graph, doc string) (*Result, error) {
	return db.tier.Query(c, g, []byte(doc))
}

// QueryAt executes a query with the given machine as coordinator,
// bypassing the frontend (intra-cluster callers).
func (db *DB) QueryAt(c *Ctx, g *Graph, doc string) (*Result, error) {
	return db.engine.Execute(c, g, []byte(doc))
}

// QueryRows executes a document and returns a streaming cursor over the
// full result set: Next drives frontend Fetch transparently across pages,
// and Close releases coordinator continuation state when the stream is
// abandoned early.
//
//	rows, err := db.QueryRows(c, g, doc)
//	defer rows.Close(c)
//	for rows.Next(c) {
//	    r := rows.Row()
//	}
//	err = rows.Err()
func (db *DB) QueryRows(c *Ctx, g *Graph, doc string) (*Rows, error) {
	return db.tier.QueryRows(c, g, []byte(doc))
}

// RowsOf wraps an already-fetched result page in a streaming cursor.
func (db *DB) RowsOf(res *Result) *Rows { return db.tier.RowsOf(res) }

// Prepare parses and validates an A1QL document once against the engine's
// plan cache. The statement re-executes with fresh bind values and zero
// parses — the prepare → bind → execute loop production frontends use for
// repeated query shapes (§2.2).
//
//	pq, _ := db.Prepare(c, g, `{"id": "$who", "_out_edge": {...}}`)
//	res, _ := pq.Exec(c, a1.Params{"who": "steven.spielberg"})
func (db *DB) Prepare(c *Ctx, g *Graph, doc string) (*PreparedQuery, error) {
	p, err := db.tier.Prepare(c, g, []byte(doc))
	if err != nil {
		return nil, err
	}
	return &PreparedQuery{db: db, p: p}, nil
}

// PreparedQuery is a parsed, validated statement bound to a graph. Safe
// for concurrent use.
type PreparedQuery struct {
	db *DB
	p  *query.Prepared
}

// ParamNames lists the "$name" placeholders the statement references,
// sorted.
func (pq *PreparedQuery) ParamNames() []string { return pq.p.ParamNames() }

// Exec binds params and runs the statement through the frontend tier.
// Every execution is a plan-cache hit (Stats.PlanCacheHits = 1): the
// coordinator performs zero parses and, in Sim mode, pays no CostParse.
func (pq *PreparedQuery) Exec(c *Ctx, params Params) (*Result, error) {
	return pq.db.tier.Exec(c, pq.p, params)
}

// ExecRows binds params and returns a streaming cursor over the result.
func (pq *PreparedQuery) ExecRows(c *Ctx, params Params) (*Rows, error) {
	return pq.db.tier.ExecRows(c, pq.p, params)
}

// Explain renders the compiled operator tree for an A1QL document without
// executing it: the frontier source (IDLookup / IndexScan /
// OrderedIndexScan / IndexRangeScan / TypeScan — every index-using one
// implemented once in internal/query/access.go, where the root
// OrderedIndexScan and an OrderedTraverse terminal share one ordered index
// walk), per-level filters and index pushdown, traversals, and terminal
// shaping/grouping. Index-using operators are resolved against the graph's
// live catalog and ranked against live statistics, so the printed operator
// — annotated with its estimated cardinality (`est=N`) — is the one that
// will run. After execution, QueryStats.Levels carries the matching
// actuals.
func (db *DB) Explain(c *Ctx, g *Graph, doc string) (string, error) {
	return db.engine.Explain(c, g, []byte(doc))
}

// ExplainPlan returns the compiled plan as a typed operator tree — the
// structured form of Explain. Nodes carry the operator name, a
// human-readable detail string, estimated cardinality (Est, -1 when
// unknown), and children (a Recurse node's children are its per-iteration
// Iter entries). The tree marshals to JSON for tooling, and its String
// renders exactly what Explain prints. Optional params pre-bind "$name"
// placeholders so the plan shown is the one a bound execution would run;
// names the document does not reference are ignored.
func (db *DB) ExplainPlan(c *Ctx, g *Graph, doc string, params ...Params) (*PlanTree, error) {
	var p Params
	if len(params) > 0 {
		p = params[0]
	}
	return db.engine.ExplainPlan(c, g, []byte(doc), p)
}

// Stats returns a graph's live statistics as seen by the calling machine.
// The numbers are maintained incrementally on every committed mutation and
// aggregated across machines on demand; the coordinator caches the
// aggregate for the proxy TTL, so the view may be one TTL stale.
func (db *DB) Stats(c *Ctx, g *Graph) *GraphStatistics {
	return db.store.StatsSummary(c, g.Tenant(), g.Name())
}

// Analyze rebuilds a graph's statistics exactly from a full scan,
// repairing incremental-sketch drift, and returns the fresh summary.
func (db *DB) Analyze(c *Ctx, g *Graph) (*GraphStatistics, error) {
	return g.Analyze(c)
}

// Fetch retrieves the next page behind a continuation token.
func (db *DB) Fetch(c *Ctx, token string) (*Result, error) { return db.tier.Fetch(c, token) }

// Release frees the continuation state behind a token without fetching it
// (the cursor Close path).
func (db *DB) Release(c *Ctx, token string) error { return db.tier.Release(c, token) }

// Disaster recovery.

// ErrDRDisabled is returned when DR was not enabled in Options.
var ErrDRDisabled = errors.New("a1: disaster recovery not enabled")

// EnableReplication starts replicating a graph to the ObjectStore. Types
// created afterwards are added to the schema snapshot when their first
// change replicates.
func (db *DB) EnableReplication(c *Ctx, g *Graph) error {
	if db.repl == nil {
		return ErrDRDisabled
	}
	return db.repl.EnableGraph(c, g)
}

// FlushReplication drains the replication log (the sweeper).
func (db *DB) FlushReplication(c *Ctx) (int, error) {
	if db.repl == nil {
		return 0, ErrDRDisabled
	}
	return db.repl.FlushPending(c)
}

// DurableStore exposes the ObjectStore (shared with a recovered cluster).
func (db *DB) DurableStore() *ObjectStore { return db.os }

// Recover rebuilds a graph from another database's ObjectStore into this
// one (§4): RecoverConsistent at the durability watermark tR,
// RecoverBestEffort from every replicated row. Either mode reads any
// replicated graph.
func (db *DB) Recover(c *Ctx, from *ObjectStore, tenant, graph string, mode dr.Mode) (*RecoveryStats, error) {
	return dr.Recover(c, from, db.store, tenant, graph, mode)
}

// Failure injection (the drills behind §5.3 and §6).

// KillMachine power-fails one machine (driver memory lost).
func (db *DB) KillMachine(c *Ctx, m MachineID) {
	db.farm.KillMachine(c, m)
	db.dropProcessState(m)
}

// KillMachines power-fails several machines at once (correlated failure).
func (db *DB) KillMachines(c *Ctx, ms ...MachineID) {
	db.farm.KillMachines(c, ms...)
	db.dropProcessState(ms...)
}

// CrashProcess kills the A1/FaRM process on a machine; driver memory
// survives for fast restart.
func (db *DB) CrashProcess(c *Ctx, m MachineID) {
	db.farm.CrashProcess(c, m)
	db.dropProcessState(m)
}

// CrashProcesses crashes several processes at once (correlated software
// outage); driver memory survives for fast restart.
func (db *DB) CrashProcesses(c *Ctx, ms ...MachineID) {
	db.farm.CrashProcesses(c, ms...)
	db.dropProcessState(ms...)
}

// dropProcessState discards what the A1 process on each machine held in its
// own heap, which no restart brings back: the query engine's continuation
// cache and parked group-run tails (clients restart their queries), and the
// catalog proxies (the next lookup there re-reads the catalog).
func (db *DB) dropProcessState(ms ...MachineID) {
	for _, m := range ms {
		db.engine.DropResultsOn(m)
		db.store.DropProxiesOn(m)
	}
}

// RestartProcess fast-restarts a crashed process from driver memory (§5.3).
func (db *DB) RestartProcess(c *Ctx, m MachineID) { db.farm.RestartProcess(c, m) }

// Introspection.

// Store returns the graph store layer.
func (db *DB) Store() *core.Store { return db.store }

// Farm returns the storage layer.
func (db *DB) Farm() *farm.Farm { return db.farm }

// Fabric returns the communication layer.
func (db *DB) Fabric() *fabric.Fabric { return db.fab }

// Engine returns the query engine.
func (db *DB) Engine() *query.Engine { return db.engine }

// GCVersions reclaims cluster-wide what commits leave behind: deleted
// objects' tombstones and version records kept for snapshots since
// released.
func (db *DB) GCVersions(c *Ctx) int { return db.farm.GCVersions(c) }

// UsedBytes reports allocated primary-replica bytes.
func (db *DB) UsedBytes() uint64 { return db.farm.UsedBytes() }
