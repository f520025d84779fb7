package query

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/fabric"
	"a1/internal/farm"
	"a1/internal/workload"
)

// Q1-Q4 are the paper's Table 2 queries, verbatim (modulo whitespace).
const (
	q1 = `{ "id" : "steven.spielberg",
	  "_out_edge" : { "_type" : "director.film",
	    "_vertex" : {
	      "_out_edge" : { "_type" : "film.actor",
	        "_vertex" : {
	          "_select" : ["_count(*)"] }}}}}`

	q2 = `{ "id" : "character.batman",
	  "_out_edge" : { "_type" : "character.film",
	    "_vertex" : {
	      "_out_edge" : { "_type" : "film.performance",
	        "_vertex" : {
	          "str_str_map[character]" : "Batman",
	          "_out_edge" : { "_type" : "performance.actor",
	            "_vertex" : {
	              "_select" : ["_count(*)"] }}}}}}}`

	q3 = `{ "id" : "steven.spielberg",
	  "_out_edge" : { "_type" : "director.film",
	    "_vertex" : { "_type" : "entity",
	      "_select" : ["name[0]"],
	      "_match" : [{
	        "_out_edge" : { "_type" : "film.actor",
	          "_vertex" : {
	            "id" : "tom.hanks"
	          }}},
	        { "_out_edge" : { "_type" : "film.genre",
	          "_vertex" : {
	            "id" : "war"
	          }}}] }}}`

	q4 = `{ "id" : "tom.hanks",
	  "_out_edge" : { "_type" : "actor.film",
	    "_vertex" : {
	      "_out_edge" : { "_type" : "film.actor",
	        "_vertex" : {
	          "_out_edge" : { "_type" : "actor.film",
	            "_vertex" : {
	              "_select" : ["_count(*)"] }}}}}}}`
)

type testEnv struct {
	store  *core.Store
	graph  *core.Graph
	engine *Engine
	kg     *workload.FilmKG
	c      *fabric.Ctx
}

func newTestEnv(t *testing.T, machines int) *testEnv {
	t.Helper()
	fab := fabric.New(fabric.DefaultConfig(machines, fabric.Direct), nil)
	f := farm.Open(fab, farm.Config{RegionSize: 16 << 20, Replicas: 3})
	c := fab.NewCtx(0, nil)
	s, err := core.Open(c, f, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTenant(c, "bing"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateGraph(c, "bing", "kg"); err != nil {
		t.Fatal(err)
	}
	g, err := s.OpenGraph(c, "bing", "kg")
	if err != nil {
		t.Fatal(err)
	}
	kg := workload.NewFilmKG(workload.TestParams())
	if err := kg.Load(c, g); err != nil {
		t.Fatalf("loading KG: %v", err)
	}
	return &testEnv{
		store:  s,
		graph:  g,
		engine: NewEngine(s, DefaultConfig()),
		kg:     kg,
		c:      c,
	}
}

func TestParseQ1Structure(t *testing.T) {
	q, err := Parse([]byte(q1))
	if err != nil {
		t.Fatal(err)
	}
	if q.Root.ID != "steven.spielberg" {
		t.Errorf("root id = %q", q.Root.ID)
	}
	if d := len(patternChain(q.Root)); d != 3 {
		t.Errorf("depth = %d, want 3", d)
	}
	if q.Root.Edge == nil || q.Root.Edge.Type != "director.film" || !q.Root.Edge.Out {
		t.Errorf("first edge = %+v", q.Root.Edge)
	}
	term := terminalOf(q.Root)
	if !term.Count {
		t.Error("terminal should count")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`not json`,
		`{"_out_edge": {"_vertex": {}}}`, // edge without type
		`{"_out_edge": {"_type": "x"}, "_in_edge": {"_type": "y"}}`, // two chained edges
		`{"_select": "x"}`,          // select not a list
		`{"_match": [{"foo": {}}]}`, // bad match entry
		`{"f": {"_unknown": 3}}`,    // unknown operator
	}
	for _, doc := range bad {
		if _, err := Parse([]byte(doc)); err == nil {
			t.Errorf("Parse(%s) succeeded, want error", doc)
		}
	}
}

func TestQ1CountActorsWithSpielberg(t *testing.T) {
	env := newTestEnv(t, 9)
	res, err := env.engine.Execute(env.c, env.graph, []byte(q1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.HasCount || res.Count == 0 {
		t.Fatalf("Q1 count = %d (has=%v)", res.Count, res.HasCount)
	}
	// Oracle: walk the graph directly.
	want := oracleQ1(t, env)
	if res.Count != int64(want) {
		t.Errorf("Q1 count = %d, oracle = %d", res.Count, want)
	}
	if res.Stats.Hops != 3 {
		t.Errorf("hops = %d, want 3", res.Stats.Hops)
	}
	if res.Stats.VerticesRead == 0 || res.Stats.EdgesVisited == 0 {
		t.Errorf("stats empty: %+v", res.Stats)
	}
}

// oracleQ1 computes Q1's answer with plain traversal code.
func oracleQ1(t *testing.T, env *testEnv) int {
	tx := env.store.Farm().CreateReadTransaction(env.c)
	start, ok, err := env.graph.LookupVertex(tx, "entity", bond.String("steven.spielberg"))
	if err != nil || !ok {
		t.Fatalf("oracle lookup: %v %v", ok, err)
	}
	films := map[farm.Addr]core.VertexPtr{}
	err = env.graph.EnumerateEdges(tx, start, core.DirOut, "director.film", func(he core.HalfEdge) bool {
		films[he.Other.Addr] = he.Other
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	actors := map[farm.Addr]bool{}
	for _, f := range films {
		err = env.graph.EnumerateEdges(tx, f, core.DirOut, "film.actor", func(he core.HalfEdge) bool {
			actors[he.Other.Addr] = true
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return len(actors)
}

func TestQ2BatmanPerformanceFilter(t *testing.T) {
	env := newTestEnv(t, 9)
	res, err := env.engine.Execute(env.c, env.graph, []byte(q2))
	if err != nil {
		t.Fatal(err)
	}
	// Exactly one performance per Batman film plays "Batman", each mapping
	// to one (possibly shared) actor.
	if !res.HasCount || res.Count == 0 || res.Count > int64(env.kg.P.BatmanFilms) {
		t.Errorf("Q2 count = %d, want within (0, %d]", res.Count, env.kg.P.BatmanFilms)
	}
}

func TestQ3StarPattern(t *testing.T) {
	env := newTestEnv(t, 9)
	res, err := env.engine.Execute(env.c, env.graph, []byte(q3))
	if err != nil {
		t.Fatal(err)
	}
	// The generator gives Spielberg films 0-1 the "war" genre and films
	// 0-2 star Tom Hanks, so exactly films 0 and 1 satisfy the star.
	if len(res.Rows) != 2 {
		t.Fatalf("Q3 rows = %d, want 2: %+v", len(res.Rows), res.Rows)
	}
	for _, row := range res.Rows {
		name, ok := row.Values["name[0]"]
		if !ok {
			t.Errorf("row missing name[0] projection")
			continue
		}
		if name.AsString() == "" {
			t.Errorf("empty name projection")
		}
	}
}

func TestQ4ThreeHopExplosion(t *testing.T) {
	env := newTestEnv(t, 9)
	res, err := env.engine.Execute(env.c, env.graph, []byte(q4))
	if err != nil {
		t.Fatal(err)
	}
	if !res.HasCount || res.Count == 0 {
		t.Fatalf("Q4 count = %d", res.Count)
	}
	if res.Stats.VerticesRead < res.Count {
		t.Errorf("vertices read %d < final count %d", res.Stats.VerticesRead, res.Count)
	}
}

func TestUnknownStartFails(t *testing.T) {
	env := newTestEnv(t, 9)
	_, err := env.engine.Execute(env.c, env.graph, []byte(`{"id": "nobody"}`))
	if !errors.Is(err, ErrNoStart) {
		t.Errorf("err = %v, want ErrNoStart", err)
	}
}

func TestSnapshotConsistentDuringUpdates(t *testing.T) {
	// A query must observe a consistent snapshot even while edges churn.
	env := newTestEnv(t, 9)
	before, err := env.engine.Execute(env.c, env.graph, []byte(q1))
	if err != nil {
		t.Fatal(err)
	}
	// Delete one of Spielberg's films mid-flight (between queries here;
	// concurrent interleavings are exercised in Sim mode benches).
	tx := env.store.Farm().CreateReadTransaction(env.c)
	start, _, err := env.graph.LookupVertex(tx, "entity", bond.String("steven.spielberg"))
	if err != nil {
		t.Fatal(err)
	}
	var firstFilm core.VertexPtr
	env.graph.EnumerateEdges(tx, start, core.DirOut, "director.film", func(he core.HalfEdge) bool {
		firstFilm = he.Other
		return false
	})
	err = farm.RunTransaction(env.c, env.store.Farm(), func(tx *farm.Tx) error {
		return env.graph.DeleteVertex(tx, firstFilm)
	})
	if err != nil {
		t.Fatal(err)
	}
	after, err := env.engine.Execute(env.c, env.graph, []byte(q1))
	if err != nil {
		t.Fatal(err)
	}
	if after.Count >= before.Count {
		t.Errorf("count after film deletion = %d, want < %d", after.Count, before.Count)
	}
}

func TestSecondaryIndexStart(t *testing.T) {
	// Root pattern without id: full type scan with predicates.
	env := newTestEnv(t, 9)
	doc := []byte(`{"_type": "entity", "str_str_map[kind]": "genre", "_select": ["id"]}`)
	res, err := env.engine.Execute(env.c, env.graph, doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(env.kg.P.Genres) {
		t.Errorf("genre scan rows = %d, want %d", len(res.Rows), len(env.kg.P.Genres))
	}
}

func TestComparisonOperators(t *testing.T) {
	env := newTestEnv(t, 9)
	doc := []byte(`{"_type": "entity", "popularity": {"_ge": 0}, "id": "war", "_select": ["*"]}`)
	res, err := env.engine.Execute(env.c, env.graph, doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	doc = []byte(`{"id": "war", "popularity": {"_gt": 1e9}}`)
	res, err = env.engine.Execute(env.c, env.graph, doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("impossible predicate matched %d rows", len(res.Rows))
	}
	doc = []byte(`{"id": "war", "_select": ["id"], "str_str_map[kind]": {"_prefix": "gen"}}`)
	res, err = env.engine.Execute(env.c, env.graph, doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("prefix predicate rows = %d, want 1", len(res.Rows))
	}
}

func TestContinuationPaging(t *testing.T) {
	fabr := fabric.New(fabric.DefaultConfig(5, fabric.Direct), nil)
	f := farm.Open(fabr, farm.Config{RegionSize: 16 << 20})
	c := fabr.NewCtx(0, nil)
	s, err := core.Open(c, f, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.CreateTenant(c, "t")
	s.CreateGraph(c, "t", "g")
	g, err := s.OpenGraph(c, "t", "g")
	if err != nil {
		t.Fatal(err)
	}
	u := workload.NewUniformGraph(120, 0, 3)
	if err := u.Load(c, g); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.PageSize = 50
	e := NewEngine(s, cfg)
	res, err := e.Execute(c, g, []byte(`{"_type": "entity", "_select": ["id"]}`))
	if err != nil {
		t.Fatal(err)
	}
	total := len(res.Rows)
	if total != 50 {
		t.Fatalf("first page = %d rows, want 50", total)
	}
	if res.Continuation == "" {
		t.Fatal("missing continuation token")
	}
	for res.Continuation != "" {
		m, err := e.Coordinator(res.Continuation)
		if err != nil {
			t.Fatal(err)
		}
		if m != c.M {
			t.Fatalf("token coordinator = %v, want %v", m, c.M)
		}
		res, err = e.Fetch(c, res.Continuation)
		if err != nil {
			t.Fatal(err)
		}
		total += len(res.Rows)
	}
	if total != 120 {
		t.Errorf("paged rows = %d, want 120", total)
	}
	// Expired/unknown token.
	if _, err := e.Fetch(c, "garbage!"); !errors.Is(err, ErrBadToken) {
		t.Errorf("garbage token err = %v", err)
	}
}

func TestContinuationExpiry(t *testing.T) {
	env := newTestEnv(t, 5)
	cfg := DefaultConfig()
	cfg.PageSize = 5
	cfg.ResultTTL = 10 * time.Millisecond
	e := NewEngine(env.store, cfg)
	res, err := e.Execute(env.c, env.graph, []byte(`{"_type": "entity", "str_str_map[kind]": "actor", "_select": ["id"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Continuation == "" {
		t.Fatal("expected continuation")
	}
	time.Sleep(20 * time.Millisecond)
	if n := e.ExpireResults(env.c); n == 0 {
		t.Error("sweeper expired nothing")
	}
	if _, err := e.Fetch(env.c, res.Continuation); !errors.Is(err, ErrBadToken) {
		t.Errorf("expired fetch err = %v", err)
	}
}

func TestWorkingSetFastFail(t *testing.T) {
	env := newTestEnv(t, 9)
	cfg := DefaultConfig()
	cfg.MaxWorkingSet = 10
	e := NewEngine(env.store, cfg)
	_, err := e.Execute(env.c, env.graph, []byte(q4))
	if !errors.Is(err, ErrWorkingSet) {
		t.Errorf("err = %v, want ErrWorkingSet", err)
	}
}

func TestInEdgeTraversal(t *testing.T) {
	env := newTestEnv(t, 9)
	// Who directed films? Traverse director.film backwards from a film.
	doc := []byte(`{"id": "film.spielberg.000",
	  "_in_edge": {"_type": "director.film",
	    "_vertex": {"_select": ["id"]}}}`)
	res, err := env.engine.Execute(env.c, env.graph, doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	if id := res.Rows[0].Values["id"]; id.AsString() != "steven.spielberg" {
		t.Errorf("director = %v", id)
	}
}

func TestQueriesInSimMode(t *testing.T) {
	// End-to-end in the discrete-event simulator: results must match
	// Direct mode and produce meaningful latency accounting.
	env := newTestEnv(t, 9) // oracle values from direct mode
	wantQ1 := oracleQ1(t, env)

	// Q1's footprint twin: the terminal also asks for a data-dependent
	// aggregate, so the counted vertices are read near their owners — the
	// locality the paper reports. (Bare Q1 answers its terminal from the
	// frontier's pointers and reads only the two traversal levels.)
	q1Footprint := strings.Replace(q1, `["_count(*)"]`, `["_count(*)", "_max(popularity)"]`, 1)
	simEnv := simQueryEnv(t, 9)
	var count int64
	var elapsed time.Duration
	var localFrac float64
	simEnv.run(func(c *fabric.Ctx) {
		res, err := simEnv.engine.Execute(c, simEnv.graph, []byte(q1Footprint))
		if err != nil {
			t.Errorf("sim Q1: %v", err)
			return
		}
		count = res.Count
		elapsed = res.Stats.Elapsed
		localFrac = res.Stats.LocalFrac
	})
	if count != int64(wantQ1) {
		t.Errorf("sim Q1 count = %d, direct = %d", count, wantQ1)
	}
	if elapsed <= 0 {
		t.Error("no virtual latency recorded")
	}
	if localFrac < 0.5 {
		t.Errorf("local read fraction = %.2f, want > 0.5 with shipping", localFrac)
	}
}

// simQueryEnv builds the same KG inside the discrete-event simulator.
type simEnvT struct {
	engine *Engine
	graph  *core.Graph
	run    func(fn func(c *fabric.Ctx))
}

func simQueryEnv(t *testing.T, machines int) *simEnvT {
	t.Helper()
	se := &simEnvT{}
	env := newSimCluster(t, machines, func(c *fabric.Ctx, s *core.Store, g *core.Graph) {
		se.graph = g
		se.engine = NewEngine(s, DefaultConfig())
	})
	se.run = env
	return se
}

func newSimCluster(t *testing.T, machines int, setup func(c *fabric.Ctx, s *core.Store, g *core.Graph)) func(fn func(c *fabric.Ctx)) {
	t.Helper()
	simenv := simNew(t, machines)
	simenv.run(func(p simProc) {
		c := simenv.fab.NewCtx(0, p.p)
		s, err := core.Open(c, simenv.farm, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := s.CreateTenant(c, "bing"); err != nil {
			t.Fatal(err)
		}
		if err := s.CreateGraph(c, "bing", "kg"); err != nil {
			t.Fatal(err)
		}
		g, err := s.OpenGraph(c, "bing", "kg")
		if err != nil {
			t.Fatal(err)
		}
		kg := workload.NewFilmKG(workload.TestParams())
		if err := kg.Load(c, g); err != nil {
			t.Fatal(err)
		}
		setup(c, s, g)
	})
	return func(fn func(c *fabric.Ctx)) {
		simenv.run(func(p simProc) {
			fn(simenv.fab.NewCtx(0, p.p))
		})
	}
}

func TestHintsParsing(t *testing.T) {
	q, err := Parse([]byte(`{"_hints": {"no_shipping": true, "page_size": 7}, "id": "x"}`))
	if err != nil {
		t.Fatal(err)
	}
	if !q.Hints.NoShipping || q.Hints.PageSize != 7 {
		t.Errorf("hints = %+v", q.Hints)
	}
}

func TestHintsRejectMalformed(t *testing.T) {
	cases := []struct{ hints, want string }{
		{`{"page_size": 1.5}`, "page_size must be an integer"},
		{`{"page_size": -3}`, "page_size must be an integer"},
		{`{"page_size": 0}`, "page_size must be an integer"},
		{`{"page_size": 1073741825}`, "page_size must be an integer"},
		{`{"page_size": "7"}`, "page_size must be an integer"},
		{`{"no_shipping": "yes"}`, "no_shipping must be a boolean"},
		{`{"no_shipping": 1}`, "no_shipping must be a boolean"},
		{`{"pagesize": 7}`, `unknown _hints key "pagesize"`},
		{`[]`, "_hints must be an object"},
	}
	for _, c := range cases {
		doc := `{"_hints": ` + c.hints + `, "id": "x"}`
		_, err := Parse([]byte(doc))
		var qe *Error
		if !errors.As(err, &qe) || qe.Code != CodeParse || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%s) = %v, want CodeParse %q", doc, err, c.want)
		}
	}
	q, err := Parse([]byte(`{"_hints": {"page_size": 1073741824, "no_shipping": false}, "id": "x"}`))
	if err != nil || q.Hints.PageSize != maxShapeCount || q.Hints.NoShipping {
		t.Errorf("boundary hints = %+v, %v", q, err)
	}
}

func TestFieldPathParsing(t *testing.T) {
	cases := []struct {
		in      string
		field   string
		mapKey  string
		listIdx int
	}{
		{"origin", "origin", "", -1},
		{"name[0]", "name", "", 0},
		{"str_str_map[character]", "str_str_map", "character", -1},
	}
	for _, c := range cases {
		fp, err := parseFieldPath(c.in)
		if err != nil {
			t.Fatalf("%s: %v", c.in, err)
		}
		if fp.Field != c.field || fp.MapKey != c.mapKey || (fp.IsList && fp.ListIdx != c.listIdx) {
			t.Errorf("%s parsed to %+v", c.in, fp)
		}
	}
	if _, err := parseFieldPath("bad["); err == nil {
		t.Error("malformed path accepted")
	}
	fp, _ := parseFieldPath("*")
	if !fp.Wildcard {
		t.Error("* not wildcard")
	}
}

func TestStatsObjectAccounting(t *testing.T) {
	env := newTestEnv(t, 9)
	res, err := env.engine.Execute(env.c, env.graph, []byte(q1))
	if err != nil {
		t.Fatal(err)
	}
	// Objects read should exceed vertices read (headers + data + index +
	// edge lists).
	if res.Stats.ObjectsRead <= res.Stats.VerticesRead {
		t.Errorf("objects read %d <= vertices read %d", res.Stats.ObjectsRead, res.Stats.VerticesRead)
	}
	_ = fmt.Sprintf("%+v", res.Stats)
}
