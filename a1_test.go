package a1

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"a1/internal/core"
	"a1/internal/dr"
	"a1/internal/workload"
)

// Integration tests driving the whole stack through the public facade.

func openTestDB(t *testing.T, opts Options) *DB {
	t.Helper()
	if opts.Machines == 0 {
		opts.Machines = 8
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	// Registered after Close, so it runs first: every snapshot pin,
	// continuation entry and parked group run a test leaves behind is a
	// leak.
	t.Cleanup(func() {
		if n := db.Farm().PinnedSnapshots(); n != 0 {
			t.Errorf("%d snapshot pins still held at the end of the test", n)
		}
		for m := range db.Fabric().Machines() {
			id := MachineID(m)
			if n := db.Engine().PendingResults(id); n != 0 {
				t.Errorf("machine %d: %d continuation entries still cached", m, n)
			}
			if n := db.Engine().PendingRuns(id); n != 0 {
				t.Errorf("machine %d: %d group runs still parked", m, n)
			}
		}
	})
	return db
}

var movieSchema = NewSchema("movie",
	Req(0, "title", TString),
	Opt(1, "year", TInt64),
	Opt(2, "tags", TListOf(TString)),
)

var personSchema = NewSchema("person",
	Req(0, "name", TString),
	Opt(1, "origin", TString),
)

var roleSchema = NewSchema("role",
	Opt(0, "character", TString),
)

func setupFilmGraph(t *testing.T, db *DB, c *Ctx) *Graph {
	t.Helper()
	if err := db.CreateTenant(c, "bing"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateGraph(c, "bing", "films"); err != nil {
		t.Fatal(err)
	}
	g, err := db.OpenGraph(c, "bing", "films")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CreateVertexType(c, "movie", movieSchema, "title", "year"); err != nil {
		t.Fatal(err)
	}
	if err := g.CreateVertexType(c, "person", personSchema, "name", "origin"); err != nil {
		t.Fatal(err)
	}
	if err := g.CreateEdgeType(c, "acted", roleSchema); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPublicAPILifecycle(t *testing.T) {
	db := openTestDB(t, Options{})
	db.Run(func(c *Ctx) {
		g := setupFilmGraph(t, db, c)
		var movie, actor VertexPtr
		err := db.Transaction(c, func(tx *Tx) error {
			var err error
			movie, err = g.CreateVertex(tx, "movie", Record(
				FV(0, Str("Big")), FV(1, I64(1988)), FV(2, ListOf(Str("comedy"))),
			))
			if err != nil {
				return err
			}
			actor, err = g.CreateVertex(tx, "person", Record(
				FV(0, Str("Tom Hanks")), FV(1, Str("usa")),
			))
			if err != nil {
				return err
			}
			return g.CreateEdge(tx, movie, "acted", actor, Record(FV(0, Str("Josh"))))
		})
		if err != nil {
			t.Fatal(err)
		}

		// Read through a snapshot transaction.
		rtx := db.ReadTransaction(c)
		v, err := g.ReadVertex(rtx, movie)
		if err != nil {
			t.Fatal(err)
		}
		if title, _ := v.Data.Field(0); title.AsString() != "Big" {
			t.Errorf("title = %v", title)
		}
		val, ok, err := g.GetEdge(rtx, movie, "acted", actor)
		if err != nil || !ok {
			t.Fatalf("edge: %v %v", ok, err)
		}
		if ch, _ := val.Field(0); ch.AsString() != "Josh" {
			t.Errorf("character = %v", ch)
		}

		// A1QL through the frontend.
		res, err := db.Query(c, g, `{"id": "Big",
			"_out_edge": {"_type": "acted", "_vertex": {"_select": ["name"]}}}`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0].Values["name"].AsString() != "Tom Hanks" {
			t.Errorf("rows = %+v", res.Rows)
		}
	})
}

func TestPublicAPIDeleteGraphWorkflow(t *testing.T) {
	db := openTestDB(t, Options{})
	db.Run(func(c *Ctx) {
		g := setupFilmGraph(t, db, c)
		err := db.Transaction(c, func(tx *Tx) error {
			for i := 0; i < 30; i++ {
				if _, err := g.CreateVertex(tx, "person", Record(
					FV(0, Str(fmt.Sprintf("p%02d", i))),
				)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.DeleteGraphAsync(c, "bing", "films"); err != nil {
			t.Fatal(err)
		}
		if _, err := db.RunPendingTasks(c); err != nil {
			t.Fatal(err)
		}
		if _, err := db.OpenGraph(c, "bing", "films"); !errors.Is(err, core.ErrNotFound) {
			t.Errorf("graph survives deletion: %v", err)
		}
	})
}

// replicateJaws builds a DR-enabled database with default options, commits
// one transaction (two vertices and an edge) to a replicated film graph,
// runs extra in the same context, and returns the durable store. flush
// runs the sweeper after the commit; without it only the synchronous
// flushes have run.
func replicateJaws(t *testing.T, flush bool, extra func(c *Ctx, db *DB, g *Graph)) *ObjectStore {
	t.Helper()
	db := openTestDB(t, Options{EnableDR: true})
	db.Run(func(c *Ctx) {
		g := setupFilmGraph(t, db, c)
		if err := db.EnableReplication(c, g); err != nil {
			t.Fatal(err)
		}
		err := db.Transaction(c, func(tx *Tx) error {
			m, err := g.CreateVertex(tx, "movie", Record(FV(0, Str("Jaws")), FV(1, I64(1975))))
			if err != nil {
				return err
			}
			p, err := g.CreateVertex(tx, "person", Record(FV(0, Str("Roy Scheider"))))
			if err != nil {
				return err
			}
			return g.CreateEdge(tx, m, "acted", p, Null)
		})
		if err != nil {
			t.Fatal(err)
		}
		if extra != nil {
			extra(c, db, g)
		}
		if flush {
			if _, err := db.FlushReplication(c); err != nil {
				t.Fatal(err)
			}
		}
	})
	return db.DurableStore()
}

// recoverFilms rebuilds the film graph from store into a brand-new
// database, as after a total datacenter loss, checks the recovered counts,
// and runs the Jaws traversal on the result.
func recoverFilms(t *testing.T, store *ObjectStore, mode dr.Mode, vertices, edges int) *RecoveryStats {
	t.Helper()
	db := openTestDB(t, Options{})
	var stats *RecoveryStats
	db.Run(func(c *Ctx) {
		var err error
		if stats, err = db.Recover(c, store, "bing", "films", mode); err != nil {
			t.Fatalf("%v recovery: %v", mode, err)
		}
		if stats.Vertices != vertices || stats.Edges != edges {
			t.Errorf("%v recovery: %d/%d, want %d/%d", mode, stats.Vertices, stats.Edges, vertices, edges)
		}
		g, err := db.OpenGraph(c, "bing", "films")
		if err != nil {
			t.Fatal(err)
		}
		res, err := db.Query(c, g, `{"id": "Jaws", "_out_edge": {"_type": "acted", "_vertex": {"_select": ["name"]}}}`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Errorf("%v recovery: post-recovery rows = %d, want 1", mode, len(res.Rows))
		}
	})
	return stats
}

func TestPublicAPIDisasterRecovery(t *testing.T) {
	recoverFilms(t, replicateJaws(t, true, nil), RecoverBestEffort, 2, 1)
}

// TestPublicAPIConsistentRecoveryDefaultOptions: the recovery mode is
// chosen at Recover alone, so a store replicated with default options
// recovers consistently.
func TestPublicAPIConsistentRecoveryDefaultOptions(t *testing.T) {
	recoverFilms(t, replicateJaws(t, true, nil), RecoverConsistent, 2, 1)
}

// TestPublicAPIConsistentRecoveryWithoutSweep: a synchronous flush
// advances tR too, so a committed, flushed transaction is in a consistent
// recovery before any sweep runs.
func TestPublicAPIConsistentRecoveryWithoutSweep(t *testing.T) {
	stats := recoverFilms(t, replicateJaws(t, false, nil), RecoverConsistent, 2, 1)
	if stats.Watermark == 0 {
		t.Error("tR = 0 after a synchronously flushed commit")
	}
}

// TestPublicAPIReplicatesTypeCreatedAfterEnable: a type created after
// EnableReplication joins the schema snapshot when its first change
// replicates, so both recovery modes rebuild it.
func TestPublicAPIReplicatesTypeCreatedAfterEnable(t *testing.T) {
	studio := NewSchema("studio", Req(0, "name", TString))
	store := replicateJaws(t, true, func(c *Ctx, db *DB, g *Graph) {
		if err := g.CreateVertexType(c, "studio", studio, "name"); err != nil {
			t.Fatal(err)
		}
		if err := g.CreateEdgeType(c, "distributed", nil); err != nil {
			t.Fatal(err)
		}
		err := db.Transaction(c, func(tx *Tx) error {
			u, err := g.CreateVertex(tx, "studio", Record(FV(0, Str("Universal"))))
			if err != nil {
				return err
			}
			m, _, err := g.LookupVertex(tx, "movie", Str("Jaws"))
			if err != nil {
				return err
			}
			return g.CreateEdge(tx, u, "distributed", m, Null)
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	for _, mode := range []dr.Mode{RecoverBestEffort, RecoverConsistent} {
		recoverFilms(t, store, mode, 3, 2)
	}
}

func TestPublicAPIFastRestartDrill(t *testing.T) {
	db := openTestDB(t, Options{Machines: 9, Mode: Sim})
	var vp VertexPtr
	var g *Graph
	db.Run(func(c *Ctx) {
		g = setupFilmGraph(t, db, c)
		err := db.Transaction(c, func(tx *Tx) error {
			var err error
			vp, err = g.CreateVertex(tx, "movie", Record(FV(0, Str("Duel"))))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	db.Run(func(c *Ctx) {
		primary, err := db.Farm().PrimaryOf(c, vp.Addr)
		if err != nil {
			t.Fatal(err)
		}
		db.CrashProcess(c, primary)
		db.RestartProcess(c, primary)
		rtx := db.ReadTransaction(c)
		if _, err := g.ReadVertex(rtx, vp); err != nil {
			t.Errorf("read after fast restart: %v", err)
		}
	})
}

func TestPublicAPISimModeKnowledgeGraph(t *testing.T) {
	db := openTestDB(t, Options{Machines: 12, Mode: Sim})
	db.Run(func(c *Ctx) {
		if err := db.CreateTenant(c, "bing"); err != nil {
			t.Fatal(err)
		}
		if err := db.CreateGraph(c, "bing", "kg"); err != nil {
			t.Fatal(err)
		}
		g, err := db.OpenGraph(c, "bing", "kg")
		if err != nil {
			t.Fatal(err)
		}
		kg := workload.NewFilmKG(workload.TestParams())
		if err := kg.Load(c, g); err != nil {
			t.Fatal(err)
		}
		res, err := db.Query(c, g, `{ "id" : "steven.spielberg",
			"_out_edge" : { "_type" : "director.film",
			  "_vertex" : {
			    "_out_edge" : { "_type" : "film.actor",
			      "_vertex" : { "_select" : ["_count(*)"] }}}}}`)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count == 0 {
			t.Error("zero actors")
		}
		if res.Stats.Elapsed <= 0 {
			t.Error("no virtual latency measured")
		}
		t.Logf("sim Q1: count=%d latency=%v local=%.1f%% objects=%d",
			res.Count, res.Stats.Elapsed, res.Stats.LocalFrac*100, res.Stats.ObjectsRead)
	})
}

func TestPublicAPIPreparedAndCursor(t *testing.T) {
	db := openTestDB(t, Options{Machines: 8})
	db.Run(func(c *Ctx) {
		if err := db.CreateTenant(c, "bing"); err != nil {
			t.Fatal(err)
		}
		if err := db.CreateGraph(c, "bing", "kg"); err != nil {
			t.Fatal(err)
		}
		g, err := db.OpenGraph(c, "bing", "kg")
		if err != nil {
			t.Fatal(err)
		}
		kg := workload.NewFilmKG(workload.TestParams())
		if err := kg.Load(c, g); err != nil {
			t.Fatal(err)
		}

		// Prepare once, execute with different bind values; each execution
		// is a plan-cache hit (zero parses) and matches the literal twin.
		pq, err := db.Prepare(c, g, `{"id": "$who", "_out_edge": {"_type": "actor.film",
			"_vertex": {"_select": ["_count(*)"]}}}`)
		if err != nil {
			t.Fatal(err)
		}
		for _, who := range []string{"tom.hanks", "actor.00000"} {
			res, err := pq.Exec(c, Params{"who": who})
			if err != nil {
				t.Fatalf("%s: %v", who, err)
			}
			if res.Stats.PlanCacheHits != 1 {
				t.Errorf("%s: PlanCacheHits = %d, want 1", who, res.Stats.PlanCacheHits)
			}
			literal, err := db.Query(c, g, fmt.Sprintf(`{"id": %q, "_out_edge": {"_type": "actor.film",
				"_vertex": {"_select": ["_count(*)"]}}}`, who))
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != literal.Count {
				t.Errorf("%s: prepared %d != literal %d", who, res.Count, literal.Count)
			}
		}

		// A cursor streams a multi-page result to exhaustion with no
		// manual Fetch calls.
		rows, err := db.QueryRows(c, g, `{"_hints": {"page_size": 10},
			"_type": "entity", "str_str_map[kind]": "actor", "_select": ["id"]}`)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for rows.Next(c) {
			n++
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		want := workload.TestParams().ActorPool + 1
		if n != want || rows.Pages() < 2 {
			t.Errorf("streamed %d rows over %d pages, want %d rows multi-page", n, rows.Pages(), want)
		}

		// Abandoning a stream releases coordinator continuation state.
		rows, err = pq.ExecRows(c, Params{"who": "tom.hanks"})
		if err != nil {
			t.Fatal(err)
		}
		if err := rows.Close(c); err != nil {
			t.Fatal(err)
		}
		for m := 0; m < db.Fabric().Machines(); m++ {
			if n := db.Engine().PendingResults(MachineID(m)); n != 0 {
				t.Errorf("machine %d holds %d continuation entries after Close", m, n)
			}
		}
	})
}

func TestPublicAPIThrottlingEndToEnd(t *testing.T) {
	// MaxInflight surfaces ErrThrottled through the whole stack. In Sim
	// mode the interleaving is deterministic: each query holds its
	// frontend slot across simulated client wire time, so concurrent
	// queries beyond the limit are rejected.
	db := openTestDB(t, Options{Machines: 8, Mode: Sim, Frontends: 1, MaxInflight: 1})
	db.Run(func(c *Ctx) {
		if err := db.CreateTenant(c, "bing"); err != nil {
			t.Fatal(err)
		}
		if err := db.CreateGraph(c, "bing", "kg"); err != nil {
			t.Fatal(err)
		}
		g, err := db.OpenGraph(c, "bing", "kg")
		if err != nil {
			t.Fatal(err)
		}
		kg := workload.NewFilmKG(workload.TestParams())
		if err := kg.Load(c, g); err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		throttled, succeeded := 0, 0
		c.Parallel(3, func(i int, cc *Ctx) {
			_, err := db.Query(cc, g, `{"id": "tom.hanks", "_select": ["id"]}`)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				succeeded++
			case errors.Is(err, ErrThrottled):
				throttled++
			default:
				t.Errorf("query %d: %v", i, err)
			}
		})
		if succeeded == 0 || throttled == 0 {
			t.Errorf("succeeded=%d throttled=%d, want both nonzero", succeeded, throttled)
		}
		// Once the burst drains, the frontend accepts requests again.
		if _, err := db.Query(c, g, `{"id": "tom.hanks", "_select": ["id"]}`); err != nil {
			t.Errorf("query after burst: %v", err)
		}
	})
}

func TestSchemaHelpers(t *testing.T) {
	s := NewSchema("x", Req(0, "k", TString), Opt(1, "n", TInt64), Opt(2, "m", TMapOf(TString, TString)))
	v := Record(FV(0, Str("a")), FV(1, I64(5)), FV(2, StrMap(map[string]string{"x": "y"})))
	if err := s.Validate(v); err != nil {
		t.Fatal(err)
	}
	bad := Record(FV(1, I64(5)))
	if err := s.Validate(bad); err == nil {
		t.Error("missing required key accepted")
	}
}

func TestPublicAPIExplainAndGroupBy(t *testing.T) {
	db := openTestDB(t, Options{})
	db.Run(func(c *Ctx) {
		g := setupFilmGraph(t, db, c)
		err := db.Transaction(c, func(tx *Tx) error {
			for i := 0; i < 12; i++ {
				_, err := g.CreateVertex(tx, "movie", Record(
					FV(0, Str(fmt.Sprintf("m%02d", i))),
					FV(1, I64(int64(1990+i%3))),
				))
				if err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}

		// Explain resolves index candidates against the live catalog: year
		// is secondary-indexed, so the ordered top-K compiles to an
		// OrderedIndexScan.
		plan, err := db.Explain(c, g, `{"_type": "movie", "_orderby": "-year", "_limit": 3, "_select": ["title"]}`)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "OrderedIndexScan(movie.year desc, stop after 3)") {
			t.Errorf("plan missing ordered scan:\n%s", plan)
		}

		// Grouped aggregates through the frontend tier.
		res, err := db.Query(c, g, `{"_type": "movie", "_groupby": "year", "_select": ["_count(*)"]}`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Groups) != 3 {
			t.Fatalf("groups = %d, want 3", len(res.Groups))
		}
		total := int64(0)
		for _, gr := range res.Groups {
			total += gr.Aggregates["_count(*)"].AsInt()
		}
		if total != 12 {
			t.Errorf("grouped counts sum = %d, want 12", total)
		}
		if res.Stats.RowsShipped != 0 {
			t.Errorf("RowsShipped = %d, want 0", res.Stats.RowsShipped)
		}

		// The ordered top-K reads O(limit) vertices, not the type.
		topK, err := db.Query(c, g, `{"_type": "movie", "_orderby": "-year", "_limit": 3, "_select": ["title", "year"]}`)
		if err != nil {
			t.Fatal(err)
		}
		if len(topK.Rows) != 3 || topK.Rows[0].Values["year"].AsInt() != 1992 {
			t.Fatalf("topK rows = %+v", topK.Rows)
		}
		// Reads = limit + the boundary tie-run overshoot (years repeat 4x,
		// so one extra 1992 movie is read for deterministic tie-breaking) —
		// still O(limit), not the type's 12.
		if topK.Stats.VerticesRead != 4 {
			t.Errorf("topK VerticesRead = %d, want 4 of 12", topK.Stats.VerticesRead)
		}
	})
}

func TestGraphStatisticsAndAnalyze(t *testing.T) {
	db := openTestDB(t, Options{})
	db.Run(func(c *Ctx) {
		g := setupFilmGraph(t, db, c)
		err := db.Transaction(c, func(tx *Tx) error {
			for i := 0; i < 20; i++ {
				origin := "usa"
				if i >= 15 {
					origin = "uk"
				}
				if _, err := g.CreateVertex(tx, "person", Record(
					FV(0, Str(fmt.Sprintf("p%02d", i))), FV(1, Str(origin)),
				)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := db.Analyze(c, g) // bypass the TTL cache for a fresh view
		if err != nil {
			t.Fatal(err)
		}
		if n, ok := sum.TypeCount("person"); !ok || n != 20 {
			t.Fatalf("person count = %d/%v, want 20", n, ok)
		}
		fs, ok := sum.FieldStats("person", "origin")
		if !ok || fs.Count != 20 {
			t.Fatalf("origin stats = %+v/%v, want 20 values", fs, ok)
		}
		if db.Stats(c, g) == nil {
			t.Fatal("Stats returned nil")
		}

		// Estimated-vs-actual per level surfaces in query stats, and the
		// cost-based planner annotates Explain with est=.
		res, err := db.Query(c, g, `{"_type": "person", "origin": "usa", "_select": ["_count(*)"]}`)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != 15 {
			t.Fatalf("count = %d, want 15", res.Count)
		}
		if len(res.Stats.Levels) != 1 || res.Stats.Levels[0].ActRows != 15 {
			t.Fatalf("Levels = %+v, want one level with act=15", res.Stats.Levels)
		}
		if res.Stats.Levels[0].EstRows < 1 {
			t.Fatalf("Levels[0].EstRows = %d, want an estimate", res.Stats.Levels[0].EstRows)
		}
		plan, err := db.Explain(c, g, `{"_type": "person", "origin": "usa", "_select": ["_count(*)"]}`)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "est=") {
			t.Errorf("Explain lacks est= annotation:\n%s", plan)
		}
	})
}

// TestLostRegionIsUnavailable: with one replica per region, killing every
// machine but the coordinator loses regions for good. A query that needs
// one fails as CodeUnavailable, a class the client can act on, rather than
// as an internal error.
func TestLostRegionIsUnavailable(t *testing.T) {
	db := openTestDB(t, Options{Machines: 6, Replicas: 1, Mode: Sim})
	db.Run(func(c *Ctx) {
		err := db.CreateTenant(c, "bing")
		if err == nil {
			err = db.CreateGraph(c, "bing", "films")
		}
		var g *Graph
		if err == nil {
			g, err = db.OpenGraph(c, "bing", "films")
		}
		if err == nil {
			err = g.CreateVertexType(c, "movie", movieSchema, "title", "year")
		}
		if err == nil {
			err = db.Transaction(c, func(tx *Tx) error {
				for i := 0; i < 60; i++ {
					if _, err := g.CreateVertex(tx, "movie", Record(FV(0, Str(fmt.Sprintf("m%02d", i))), FV(1, I64(int64(1990+i%5))))); err != nil {
						return err
					}
				}
				return nil
			})
		}
		if err != nil {
			t.Error(err)
			return
		}
		db.KillMachines(c, 1, 2, 3, 4, 5)
		for _, doc := range []string{
			`{"_type": "movie", "_select": ["title"]}`,
			`{"_type": "movie", "year": 1992, "_select": ["title"]}`,
			`{"_type": "movie", "_select": ["_sum(year)"]}`,
		} {
			_, err := db.QueryAt(c, g, doc)
			var qe *QueryError
			if !errors.As(err, &qe) || qe.Code != CodeUnavailable {
				t.Errorf("%s: err %v (%#v), want code unavailable", doc, err, qe)
			}
		}
	})
}

// TestPublicAPICrashDropsContinuations: a continuation lives in its
// coordinator's process memory, so a crash of that process ends it even
// after a fast restart: Fetch answers bad_token and the client restarts the
// query.
func TestPublicAPICrashDropsContinuations(t *testing.T) {
	db := openTestDB(t, Options{Machines: 6, Mode: Sim})
	db.Run(func(c *Ctx) {
		g := setupFilmGraph(t, db, c)
		err := db.Transaction(c, func(tx *Tx) error {
			for i := 0; i < 30; i++ {
				if _, err := g.CreateVertex(tx, "movie", Record(FV(0, Str(fmt.Sprintf("m%02d", i))))); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := db.Query(c, g, `{"_hints": {"page_size": 10}, "_type": "movie", "_select": ["title"]}`)
		if err != nil {
			t.Fatal(err)
		}
		if res.Continuation == "" {
			t.Fatal("expected a continuation (30 rows, page size 10)")
		}
		m, err := db.Engine().Coordinator(res.Continuation)
		if err != nil {
			t.Fatal(err)
		}
		if n := db.Engine().PendingResults(m); n != 1 {
			t.Fatalf("PendingResults(%v) = %d before the crash, want 1", m, n)
		}
		db.CrashProcess(c, m)
		db.RestartProcess(c, m)
		if n := db.Engine().PendingResults(m); n != 0 {
			t.Errorf("PendingResults(%v) = %d after the crash, want 0", m, n)
		}
		_, err = db.Fetch(c, res.Continuation)
		var qe *QueryError
		if !errors.As(err, &qe) || qe.Code != CodeBadToken {
			t.Errorf("Fetch after the coordinator crashed: err %v, want code bad_token", err)
		}
	})
}
