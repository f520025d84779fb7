// Package bench regenerates every table and figure of the paper's
// evaluation (§6) on the simulated cluster: the Table 2 queries, the
// latency/throughput curves of Figures 10, 12, 13 and 14, the RDMA read
// accounting of Figure 11, the Q4 stress numbers, the query-shipping
// locality measurement, the two-tier baseline comparison behind the "3.6x"
// claim (§5), the fast-restart drill (§5.3), and ablations of the paper's
// design choices: edge-list spill, query shipping vs RDMA pulls, and
// random placement.
package bench

import (
	"math"
	"strings"
	"sync"
	"time"

	"a1"
	"a1/internal/fabric"
	"a1/internal/query"
	"a1/internal/sim"
	"a1/internal/workload"
)

// The paper's Table 2 queries, verbatim.
const (
	Q1 = `{ "id" : "steven.spielberg",
  "_out_edge" : { "_type" : "director.film",
    "_vertex" : {
      "_out_edge" : { "_type" : "film.actor",
        "_vertex" : { "_select" : ["_count(*)"] }}}}}`

	Q2 = `{ "id" : "character.batman",
  "_out_edge" : { "_type" : "character.film",
    "_vertex" : {
      "_out_edge" : { "_type" : "film.performance",
        "_vertex" : {
          "str_str_map[character]" : "Batman",
          "_out_edge" : { "_type" : "performance.actor",
            "_vertex" : { "_select" : ["_count(*)"] }}}}}}}`

	Q3 = `{ "id" : "steven.spielberg",
  "_out_edge" : { "_type" : "director.film",
    "_vertex" : { "_type" : "entity",
      "_select" : ["name[0]"],
      "_match" : [
        { "_out_edge" : { "_type" : "film.actor",
            "_vertex" : { "id" : "tom.hanks" }}},
        { "_out_edge" : { "_type" : "film.genre",
            "_vertex" : { "id" : "war" }}}] }}}`

	Q4 = `{ "id" : "tom.hanks",
  "_out_edge" : { "_type" : "actor.film",
    "_vertex" : {
      "_out_edge" : { "_type" : "film.actor",
        "_vertex" : {
          "_out_edge" : { "_type" : "actor.film",
            "_vertex" : { "_select" : ["_count(*)"] }}}}}}}`
)

// Footprint twins of the count-terminal Table 2 queries. The engine answers
// a bare `_count(*)` terminal from the frontier's pointers without reading
// the counted vertices; the published A1 materializes them (§6: Q1 reads
// ~3,443 objects, 95 % local). A twin's terminal also asks for a
// data-dependent aggregate, so it performs the paper's reads and RPCs and
// still replies with scalars — the reports that regenerate the paper's
// read-machinery measurements run the twins.
var (
	Q1Footprint = footprintTwin(Q1)
	Q2Footprint = footprintTwin(Q2)
	Q4Footprint = footprintTwin(Q4)
)

func footprintTwin(doc string) string {
	const bare = `["_count(*)"]`
	if strings.Count(doc, bare) != 1 {
		panic("bench: footprintTwin wants exactly one bare _count(*) terminal")
	}
	return strings.Replace(doc, bare, `["_count(*)", "_max(popularity)"]`, 1)
}

// footprintNote is the line every report running a twin carries.
const footprintNote = "runs the footprint twin (terminal also asks _max(popularity)): the paper's A1 reads the vertices it counts, this engine's bare _count(*) does not"

// Result-shaping example queries (not from the paper's Table 2): top-K,
// aggregate and grouped pushdown over the same knowledge graph, printed by
// a1shell's :examples and run by examples/knowledgegraph.
const (
	// QTopFilms: Spielberg's five most popular films, newest-ordering
	// cousin of Q1 — _orderby + _limit push top-K pruning to the workers.
	QTopFilms = `{ "id" : "steven.spielberg",
  "_out_edge" : { "_type" : "director.film",
    "_vertex" : { "_select" : ["name[0]", "popularity"],
      "_orderby" : "-popularity", "_limit" : 5 }}}`

	// QFilmStats: terminal aggregates over Spielberg's filmography —
	// workers ship scalar partials instead of rows.
	QFilmStats = `{ "id" : "steven.spielberg",
  "_out_edge" : { "_type" : "director.film",
    "_vertex" : { "_select" : ["_count(*)", "_avg(popularity)",
      "_max(popularity)", "_min(str_str_map[year])"] }}}`

	// QTopFilmsParam: QTopFilms with "$director" and "$k" placeholders —
	// prepare once, re-execute with fresh bind values and zero parses.
	QTopFilmsParam = `{ "id" : "$director",
  "_out_edge" : { "_type" : "director.film",
    "_vertex" : { "_select" : ["name[0]", "popularity"],
      "_orderby" : "-popularity", "_limit" : "$k" }}}`

	// QActorFilmsParam: per-actor filmography count keyed by a "$who"
	// placeholder — one prepared shape re-executed per actor.
	QActorFilmsParam = `{ "id" : "$who",
  "_out_edge" : { "_type" : "actor.film",
    "_vertex" : { "_select" : ["_count(*)"] }}}`

	// QFilmsByYear: every film grouped by release year — workers ship
	// per-group partial states (count + avg partials per year), never rows.
	QFilmsByYear = `{ "_type" : "entity", "str_str_map[kind]" : "film",
  "_groupby" : "str_str_map[year]",
  "_select" : ["_count(*)", "_avg(popularity)"] }`

	// QFilmsByYearRows: the row-shipping twin of QFilmsByYear — the same
	// grouping computed client-side from shipped rows.
	QFilmsByYearRows = `{ "_type" : "entity", "str_str_map[kind]" : "film",
  "_select" : ["str_str_map[year]", "popularity"] }`
)

// Scale selects experiment sizing.
type Scale int

const (
	// ScaleTest: small clusters and datasets, seconds per experiment.
	ScaleTest Scale = iota
	// ScalePaper: the paper's 245-machine/15-rack testbed shape with
	// fan-outs calibrated to its reported query footprints.
	ScalePaper
)

// Spec parameterizes an experiment run.
type Spec struct {
	Scale         Scale
	Machines      int
	Racks         int
	Rates         []float64 // offered load points (queries/second)
	QueriesPerPt  int       // measured queries per load point
	Seed          int64
	KGParams      workload.Params
	QueryCfg      query.Config
	SpillOverride int
}

// DefaultSpec returns the sizing for a scale.
func DefaultSpec(s Scale) Spec {
	if s == ScalePaper {
		return Spec{
			Scale:        s,
			Machines:     245,
			Racks:        15,
			Rates:        []float64{2000, 5000, 10000, 20000},
			QueriesPerPt: 1500,
			Seed:         1,
			KGParams:     workload.PaperParams(),
			QueryCfg:     calibratedQueryConfig(),
		}
	}
	return Spec{
		Scale:        s,
		Machines:     32,
		Racks:        4,
		Rates:        []float64{500, 1000, 2000, 4000},
		QueriesPerPt: 250,
		Seed:         1,
		KGParams:     workload.TestParams(),
		QueryCfg:     calibratedQueryConfig(),
	}
}

// calibratedQueryConfig sets the CPU cost model so that aggregate numbers
// line up with the paper's reported rates: Q4 saturates near 15k
// queries/second on 245 machines, i.e. ~1.5M vertex reads/second/machine
// (§6), implying roughly 5us of worker CPU per vertex materialization.
func calibratedQueryConfig() query.Config {
	cfg := query.DefaultConfig()
	cfg.CostVertexRead = 5 * time.Microsecond
	cfg.CostEdgeEnum = 200 * time.Nanosecond
	cfg.CostPredEval = 300 * time.Nanosecond
	cfg.CostMerge = 100 * time.Nanosecond
	return cfg
}

// KGCluster is a simulated cluster loaded with the film knowledge graph.
type KGCluster struct {
	DB *a1.DB
	G  *a1.Graph
	KG *workload.FilmKG
}

// NewKGCluster builds and loads a Sim-mode cluster.
func NewKGCluster(spec Spec) (*KGCluster, error) {
	db, err := a1.Open(a1.Options{
		Machines:           spec.Machines,
		Racks:              spec.Racks,
		Mode:               a1.Sim,
		Seed:               spec.Seed,
		QueryConfig:        spec.QueryCfg,
		EdgeSpillThreshold: spec.SpillOverride,
	})
	if err != nil {
		return nil, err
	}
	k := &KGCluster{DB: db}
	var loadErr error
	db.Run(func(c *a1.Ctx) {
		if loadErr = db.CreateTenant(c, "bing"); loadErr != nil {
			return
		}
		if loadErr = db.CreateGraph(c, "bing", "kg"); loadErr != nil {
			return
		}
		k.G, loadErr = db.OpenGraph(c, "bing", "kg")
		if loadErr != nil {
			return
		}
		k.KG = workload.NewFilmKG(spec.KGParams)
		loadErr = k.KG.Load(c, k.G)
	})
	if loadErr != nil {
		return nil, loadErr
	}
	return k, nil
}

// RateResult is one load point's measurement.
type RateResult struct {
	RateQPS  float64
	Queries  int
	Errors   int
	Avg      time.Duration
	P50      time.Duration
	P99      time.Duration
	Max      time.Duration
	Duration time.Duration // virtual time spanned
	// Aggregates across measured queries.
	VerticesRead int64
	ObjectsRead  int64
	RemoteReads  int64
}

// MeasureRate offers doc as an open-loop Poisson stream at rate queries/s
// and reports latency order statistics from the virtual clock. docFn, when
// non-nil, generates a per-query document (random starts for Figure 14).
func MeasureRate(db *a1.DB, g *a1.Graph, doc string, docFn func(i int) string, rate float64, n int) RateResult {
	var mu sync.Mutex
	var hist sim.Histogram
	res := RateResult{RateQPS: rate, Queries: n}
	startAbs := db.Fabric().Now()
	db.Run(func(c *a1.Ctx) {
		rng := db.Fabric().Env().Rand()
		for i := 0; i < n; i++ {
			// Poisson interarrival.
			u := rng.Float64()
			if u >= 1 {
				u = 0.999999
			}
			gap := time.Duration(-math.Log(1-u) / rate * float64(time.Second))
			c.Sleep(gap)
			q := doc
			if docFn != nil {
				q = docFn(i)
			}
			c.Go("query", func(qc *a1.Ctx) {
				t0 := qc.Now()
				r, err := db.Query(qc, g, q)
				lat := qc.Now() - t0
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					res.Errors++
					return
				}
				hist.Add(lat)
				res.VerticesRead += r.Stats.VerticesRead
				res.ObjectsRead += r.Stats.ObjectsRead
				res.RemoteReads += r.Stats.RemoteReads
			})
		}
		// Run returns once every spawned query drains.
	})
	res.Duration = db.Fabric().Now() - startAbs
	if res.Duration <= 0 {
		res.Duration = time.Microsecond
	}
	res.Avg = hist.Mean()
	res.P50 = hist.Percentile(50)
	res.P99 = hist.Percentile(99)
	res.Max = hist.Max()
	return res
}

// warm runs a few queries to populate B-tree node caches and catalog
// proxies before measurement, as any production cluster would be.
func warm(db *a1.DB, g *a1.Graph, docs ...string) {
	db.Run(func(c *a1.Ctx) {
		c.Parallel(len(docs), func(i int, cc *a1.Ctx) {
			for j := 0; j < 3; j++ {
				_, _ = db.QueryAt(cc.At(fabric.MachineID(j%db.Fabric().Machines())), g, docs[i])
			}
		})
	})
}

// fmtMS renders a duration in milliseconds.
func fmtMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
