package query

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"a1/internal/core"
	"a1/internal/fabric"
)

// Parameter parsing, binding, the plan cache, and structured errors.

func TestParseParams(t *testing.T) {
	q, err := Parse([]byte(`{"id": "$who", "popularity": {"_gt": "$min"}, "_limit": "$k", "_skip": "$s"}`))
	if err != nil {
		t.Fatal(err)
	}
	if q.Root.IDParam != "who" || q.Root.ID != "" {
		t.Errorf("id param = %q/%q", q.Root.IDParam, q.Root.ID)
	}
	if len(q.Root.Preds) != 1 || q.Root.Preds[0].Param != "min" {
		t.Errorf("preds = %+v", q.Root.Preds)
	}
	if q.Root.LimitParam != "k" || q.Root.SkipParam != "s" {
		t.Errorf("limit/skip params = %q/%q", q.Root.LimitParam, q.Root.SkipParam)
	}
	want := []string{"k", "min", "s", "who"}
	if len(q.ParamNames) != len(want) {
		t.Fatalf("ParamNames = %v, want %v", q.ParamNames, want)
	}
	for i := range want {
		if q.ParamNames[i] != want[i] {
			t.Fatalf("ParamNames = %v, want %v (sorted)", q.ParamNames, want)
		}
	}

	// "$$" escapes a literal dollar sign; plain strings are untouched.
	q, err = Parse([]byte(`{"id": "$$literal", "f": "$$x", "g": "plain"}`))
	if err != nil {
		t.Fatal(err)
	}
	if q.Root.ID != "$literal" || len(q.ParamNames) != 0 {
		t.Errorf("escaped id = %q, params = %v", q.Root.ID, q.ParamNames)
	}
	if q.Root.Preds[0].Param != "" || q.Root.Preds[1].Param != "" {
		t.Errorf("escaped predicate treated as param: %+v", q.Root.Preds)
	}

	// Params in edge and _match predicates are collected too.
	q, err = Parse([]byte(`{"id": "x",
		"_out_edge": {"_type": "e", "w": {"_ge": "$w"},
			"_vertex": {"_match": [{"_out_edge": {"_type": "m", "d": "$d", "_vertex": {}}}]}}}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(q.ParamNames) != 2 || q.ParamNames[0] != "d" || q.ParamNames[1] != "w" {
		t.Errorf("nested ParamNames = %v", q.ParamNames)
	}

	bad := []string{
		`{"id": "$"}`,          // empty name
		`{"id": "$9x"}`,        // digit-leading name
		`{"f": "$a-b"}`,        // bad character
		`{"_limit": "$"}`,      // empty count param
		`{"_limit": "$ bad "}`, // bad count param
	}
	for _, doc := range bad {
		if _, err := Parse([]byte(doc)); err == nil {
			t.Errorf("Parse(%s) accepted a malformed parameter", doc)
		}
	}
}

func TestBindErrors(t *testing.T) {
	q, err := Parse([]byte(`{"id": "$who", "_limit": "$k"}`))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		params Params
	}{
		{"missing", Params{"who": "x"}},
		{"unknown", Params{"who": "x", "k": 3, "extra": 1}},
		{"id not string", Params{"who": 42, "k": 3}},
		{"limit not int", Params{"who": "x", "k": "three"}},
		{"limit fractional", Params{"who": "x", "k": 2.5}},
		{"limit zero", Params{"who": "x", "k": 0}},
		{"limit huge", Params{"who": "x", "k": int64(1) << 40}},
	}
	for _, c := range cases {
		_, err := q.Bind(c.params)
		if err == nil {
			t.Errorf("%s: Bind accepted %v", c.name, c.params)
			continue
		}
		var qe *Error
		if !errors.As(err, &qe) || qe.Code != CodeBadParam {
			t.Errorf("%s: err = %v, want CodeBadParam", c.name, err)
		}
	}
	// Parameterless query rejects stray binds and returns itself otherwise.
	p, err := Parse([]byte(`{"id": "x"}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Bind(Params{"who": "x"}); err == nil {
		t.Error("stray bind values accepted")
	}
	if b, err := p.Bind(nil); err != nil || b != p {
		t.Errorf("parameterless bind = %v, %v", b, err)
	}
}

func TestBindDoesNotMutatePlan(t *testing.T) {
	q, err := Parse([]byte(`{"id": "$who", "popularity": {"_gt": "$min"}, "_limit": "$k"}`))
	if err != nil {
		t.Fatal(err)
	}
	b1, err := q.Bind(Params{"who": "a", "min": 1, "k": 5})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := q.Bind(Params{"who": "b", "min": 9, "k": 7})
	if err != nil {
		t.Fatal(err)
	}
	if q.Root.ID != "" || q.Root.Limit != 0 || !q.Root.Preds[0].Value.IsNull() {
		t.Errorf("cached AST mutated by binding: %+v", q.Root)
	}
	if b1.Root.ID != "a" || b1.Root.Limit != 5 || b1.Root.Preds[0].Value.AsInt() != 1 {
		t.Errorf("first bind = %+v", b1.Root)
	}
	if b2.Root.ID != "b" || b2.Root.Limit != 7 || b2.Root.Preds[0].Value.AsInt() != 9 {
		t.Errorf("second bind = %+v", b2.Root)
	}
}

func TestPreparedExecZeroParses(t *testing.T) {
	env := newTestEnv(t, 9)
	doc := []byte(`{"id": "$who", "_out_edge": {"_type": "actor.film",
		"_vertex": {"_select": ["_count(*)"]}}}`)
	p, err := env.engine.Prepare(env.c, env.graph, doc)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.ParamNames(); len(got) != 1 || got[0] != "who" {
		t.Fatalf("ParamNames = %v", got)
	}
	_, missesBefore := env.engine.PlanCacheStats()

	// Re-executing with new bind values performs zero parses.
	for i, who := range []string{"tom.hanks", "actor.00000", "actor.00001"} {
		res, err := p.Exec(env.c, Params{"who": who})
		if err != nil {
			t.Fatalf("exec %d: %v", i, err)
		}
		if !res.HasCount || res.Count == 0 {
			t.Errorf("exec %d (%s): count = %d", i, who, res.Count)
		}
		if res.Stats.PlanCacheHits != 1 {
			t.Errorf("exec %d: PlanCacheHits = %d, want 1", i, res.Stats.PlanCacheHits)
		}
		// Oracle: the literal document agrees.
		literal := fmt.Sprintf(`{"id": %q, "_out_edge": {"_type": "actor.film",
			"_vertex": {"_select": ["_count(*)"]}}}`, who)
		direct, err := env.engine.Execute(env.c, env.graph, []byte(literal))
		if err != nil {
			t.Fatal(err)
		}
		if direct.Count != res.Count {
			t.Errorf("%s: prepared count %d != literal %d", who, res.Count, direct.Count)
		}
	}
	_, missesAfter := env.engine.PlanCacheStats()
	// Only the first literal oracle parsed: the others share its shape, and
	// the prepared execs never parse.
	if parses := missesAfter - missesBefore; parses != 1 {
		t.Errorf("parses during exec loop = %d, want 1 (the first oracle only)", parses)
	}

	// An unbound execution of a parameterized document fails loudly.
	if _, err := env.engine.Execute(env.c, env.graph, doc); err == nil {
		t.Error("Execute accepted an unbound parameterized document")
	} else {
		var qe *Error
		if !errors.As(err, &qe) || qe.Code != CodeBadParam {
			t.Errorf("unbound exec err = %v, want CodeBadParam", err)
		}
	}
}

func TestExecutePlanCache(t *testing.T) {
	env := newTestEnv(t, 9)
	doc := []byte(q1)
	first, err := env.engine.Execute(env.c, env.graph, doc)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.PlanCacheHits != 0 {
		t.Errorf("first execution PlanCacheHits = %d, want 0", first.Stats.PlanCacheHits)
	}
	second, err := env.engine.Execute(env.c, env.graph, doc)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.PlanCacheHits != 1 {
		t.Errorf("second execution PlanCacheHits = %d, want 1", second.Stats.PlanCacheHits)
	}
	if second.Count != first.Count {
		t.Errorf("cached plan count %d != %d", second.Count, first.Count)
	}
	// The cache keys the canonicalized document: whitespace variants of the
	// same query hit the cached plan.
	variant := append([]byte(q1), ' ')
	third, err := env.engine.Execute(env.c, env.graph, variant)
	if err != nil {
		t.Fatal(err)
	}
	if third.Stats.PlanCacheHits != 1 {
		t.Errorf("whitespace variant PlanCacheHits = %d, want 1 (structural key)", third.Stats.PlanCacheHits)
	}
	// Structurally different documents still miss.
	other, err := env.engine.Execute(env.c, env.graph, []byte(
		`{"id": "steven.spielberg", "_out_edge": {"_type": "director.film", "_vertex": {"_select": ["id"]}}}`))
	if err != nil {
		t.Fatal(err)
	}
	if other.Stats.PlanCacheHits != 0 {
		t.Errorf("different document PlanCacheHits = %d, want 0", other.Stats.PlanCacheHits)
	}
}

func TestPlanCacheStructuralKey(t *testing.T) {
	// Whitespace and key-order variants of one query share a cache entry.
	env := newTestEnv(t, 9)
	base := `{"_type": "entity", "str_str_map[kind]": "film", "_select": ["id"], "_limit": 3}`
	if _, err := env.engine.Execute(env.c, env.graph, []byte(base)); err != nil {
		t.Fatal(err)
	}
	variants := []string{
		"  { \"_type\" : \"entity\",\n  \"str_str_map[kind]\" : \"film\",\n  \"_select\" : [\"id\"], \"_limit\" : 3 }\n",
		`{"_limit": 3, "_select": ["id"], "str_str_map[kind]": "film", "_type": "entity"}`,
	}
	for _, v := range variants {
		res, err := env.engine.Execute(env.c, env.graph, []byte(v))
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.PlanCacheHits != 1 {
			t.Errorf("variant %q PlanCacheHits = %d, want 1", v, res.Stats.PlanCacheHits)
		}
	}
	hits, misses := env.engine.PlanCacheStats()
	if hits != 2 || misses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 2/1", hits, misses)
	}
}

func TestSimPlanCacheSkipsCostParse(t *testing.T) {
	// In Sim mode a plan-cache hit's latency drops by CostParse versus a
	// forced miss executing the identical plan (its entry is evicted
	// between runs). CostParse is raised far above the fabric's
	// read-latency noise, and the tolerance covers the simulator's
	// deterministic +0..25% CPU-work jitter.
	costParse := 10 * time.Millisecond
	var eng *Engine
	var graph *core.Graph
	run := newSimCluster(t, 9, func(c *fabric.Ctx, s *core.Store, g *core.Graph) {
		cfg := DefaultConfig()
		cfg.CostParse = costParse
		graph = g
		eng = NewEngine(s, cfg)
	})
	simEnv := &simEnvT{engine: eng, graph: graph, run: run}
	doc := `{"id": "steven.spielberg", "_out_edge": {"_type": "director.film",
		"_vertex": {"_select": ["_count(*)"]}}}`
	var warmErr error
	simEnv.run(func(c *fabric.Ctx) {
		// Warm caches and install the plan.
		if _, err := simEnv.engine.Execute(c, simEnv.graph, []byte(doc)); err != nil {
			warmErr = err
		}
	})
	if warmErr != nil {
		t.Fatal(warmErr)
	}
	var hitElapsed, missElapsed time.Duration
	var hitHits int64
	simEnv.run(func(c *fabric.Ctx) {
		res, err := simEnv.engine.Execute(c, simEnv.graph, []byte(doc))
		if err != nil {
			warmErr = err
			return
		}
		hitElapsed = res.Stats.Elapsed
		hitHits = res.Stats.PlanCacheHits
	})
	if warmErr != nil {
		t.Fatal(warmErr)
	}
	// Evict the plan (by its plan key) so the same document misses.
	simEnv.engine.plans.mu.Lock()
	delete(simEnv.engine.plans.entries, string(testPlanKey(t, doc)))
	simEnv.engine.plans.mu.Unlock()
	simEnv.run(func(c *fabric.Ctx) {
		res, err := simEnv.engine.Execute(c, simEnv.graph, []byte(doc))
		if err != nil {
			warmErr = err
			return
		}
		missElapsed = res.Stats.Elapsed
	})
	if warmErr != nil {
		t.Fatal(warmErr)
	}
	if hitHits != 1 {
		t.Fatalf("hit execution PlanCacheHits = %d", hitHits)
	}
	diff := missElapsed - hitElapsed
	if diff < costParse*9/10 || diff > costParse*13/10 {
		t.Errorf("miss %v - hit %v = %v, want CostParse %v (+0..25%% work jitter)",
			missElapsed, hitElapsed, diff, costParse)
	}
}

func TestPlanCacheEviction(t *testing.T) {
	pc := newPlanCache()
	// Distinct shapes: the predicate field differs, not a literal.
	doc := func(i int) string { return fmt.Sprintf(`{"id": "v", "f%d": 1}`, i) }
	for i := 0; i < planCacheCap+10; i++ {
		q, err := Parse([]byte(doc(i)))
		if err != nil {
			t.Fatal(err)
		}
		pc.store(testPlanKey(t, doc(i)), q)
	}
	if len(pc.entries) != planCacheCap {
		t.Errorf("cache size = %d, want %d", len(pc.entries), planCacheCap)
	}
	// The oldest entries were evicted FIFO; the newest survive.
	if _, ok := pc.lookup(testPlanKey(t, doc(0))); ok {
		t.Error("oldest entry survived eviction")
	}
	if _, ok := pc.lookup(testPlanKey(t, doc(planCacheCap+9))); !ok {
		t.Error("newest entry evicted")
	}
}

func TestStructuredErrorCodes(t *testing.T) {
	env := newTestEnv(t, 5)
	_, err := Parse([]byte(`not json`))
	var qe *Error
	if !errors.As(err, &qe) || qe.Code != CodeParse {
		t.Errorf("parse err = %v, want CodeParse", err)
	}
	_, err = env.engine.Execute(env.c, env.graph, []byte(`{"id": "nobody"}`))
	if !errors.As(err, &qe) || qe.Code != CodeNoStart {
		t.Errorf("no-start err = %v, want CodeNoStart", err)
	}
	if !errors.Is(err, ErrNoStart) {
		t.Errorf("classified error lost ErrNoStart sentinel: %v", err)
	}
	_, err = env.engine.Fetch(env.c, "garbage!")
	if !errors.As(err, &qe) || qe.Code != CodeBadToken {
		t.Errorf("bad token err = %v, want CodeBadToken", err)
	}
	cfg := DefaultConfig()
	cfg.MaxWorkingSet = 10
	e := NewEngine(env.store, cfg)
	_, err = e.Execute(env.c, env.graph, []byte(q4))
	if !errors.As(err, &qe) || qe.Code != CodeWorkingSet {
		t.Errorf("working-set err = %v, want CodeWorkingSet", err)
	}
}
