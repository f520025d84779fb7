package frontend

import (
	"encoding/base64"
	"errors"
	"strings"
	"sync"
	"testing"

	"a1/internal/core"
	"a1/internal/fabric"
	"a1/internal/farm"
	"a1/internal/query"
	"a1/internal/workload"
)

func newTier(t *testing.T) (*Tier, *core.Graph, *fabric.Ctx) {
	t.Helper()
	tier, g, c, _ := newTierEngine(t)
	return tier, g, c
}

func newTierEngine(t *testing.T) (*Tier, *core.Graph, *fabric.Ctx, *query.Engine) {
	t.Helper()
	fab := fabric.New(fabric.DefaultConfig(8, fabric.Direct), nil)
	f := farm.Open(fab, farm.Config{RegionSize: 16 << 20})
	c := fab.NewCtx(0, nil)
	s, err := core.Open(c, f, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.CreateTenant(c, "bing")
	s.CreateGraph(c, "bing", "kg")
	g, err := s.OpenGraph(c, "bing", "kg")
	if err != nil {
		t.Fatal(err)
	}
	kg := workload.NewFilmKG(workload.TestParams())
	if err := kg.Load(c, g); err != nil {
		t.Fatal(err)
	}
	cfg := query.DefaultConfig()
	cfg.PageSize = 10
	engine := query.NewEngine(s, cfg)
	return New(fab, engine, Config{Frontends: 2}), g, c, engine
}

func TestEndToEndQueryThroughFrontend(t *testing.T) {
	tier, g, c := newTier(t)
	res, err := tier.Query(c, g, []byte(`{ "id" : "steven.spielberg",
	  "_out_edge" : { "_type" : "director.film",
	    "_vertex" : { "_select" : ["_count(*)"] }}}`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count == 0 {
		t.Error("zero films through frontend")
	}
}

func TestContinuationRoutedToCoordinator(t *testing.T) {
	tier, g, c := newTier(t)
	res, err := tier.Query(c, g, []byte(`{"_type": "entity", "str_str_map[kind]": "actor", "_select": ["id"]}`))
	if err != nil {
		t.Fatal(err)
	}
	total := len(res.Rows)
	pages := 1
	for res.Continuation != "" {
		res, err = tier.Fetch(c, res.Continuation)
		if err != nil {
			t.Fatalf("fetch page %d: %v", pages, err)
		}
		total += len(res.Rows)
		pages++
	}
	if pages < 2 {
		t.Fatalf("expected multiple pages, got %d", pages)
	}
	want := workload.TestParams().ActorPool + 1 // pool + tom hanks
	if total != want {
		t.Errorf("total rows = %d, want %d", total, want)
	}
}

func TestOrderedPagingThroughFrontend(t *testing.T) {
	// Ordered pages must stay sorted across Fetch calls even though every
	// fetch re-enters through the SLB and is routed back to the
	// coordinator by the token.
	tier, g, c := newTier(t)
	res, err := tier.Query(c, g, []byte(`{"_hints": {"page_size": 4}, "_type": "entity",
		"str_str_map[kind]": "actor", "_select": ["id", "popularity"], "_orderby": "-popularity"}`))
	if err != nil {
		t.Fatal(err)
	}
	var pops []float64
	pages := 0
	for {
		pages++
		if res.Continuation != "" && len(res.Rows) != 4 {
			t.Errorf("page %d has %d rows, want the hinted 4", pages, len(res.Rows))
		}
		for _, row := range res.Rows {
			pops = append(pops, row.Values["popularity"].AsFloat())
		}
		if res.Continuation == "" {
			break
		}
		res, err = tier.Fetch(c, res.Continuation)
		if err != nil {
			t.Fatalf("fetch page %d: %v", pages+1, err)
		}
	}
	want := workload.TestParams().ActorPool + 1
	if len(pops) != want {
		t.Fatalf("paged %d rows, want %d", len(pops), want)
	}
	for i := 1; i < len(pops); i++ {
		if pops[i] > pops[i-1] {
			t.Errorf("order broken across pages at row %d", i)
		}
	}
}

func TestOrderedTraverseThroughFrontend(t *testing.T) {
	// An OrderedTraverse terminal (per-machine index-order partial scans,
	// k-way merged at the coordinator) pages through the tier like every
	// other terminal: each fetch re-enters through the SLB and the token
	// routes it back to the merging coordinator. The Zipf workload's
	// skewed traversal makes the cost model pick the operator.
	fab := fabric.New(fabric.DefaultConfig(8, fabric.Direct), nil)
	f := farm.Open(fab, farm.Config{RegionSize: 16 << 20})
	c := fab.NewCtx(0, nil)
	s, err := core.Open(c, f, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.CreateTenant(c, "bing")
	s.CreateGraph(c, "bing", "zipf")
	g, err := s.OpenGraph(c, "bing", "zipf")
	if err != nil {
		t.Fatal(err)
	}
	z := workload.NewZipfGraph(2000, 12000, 1)
	if err := z.Load(c, g); err != nil {
		t.Fatal(err)
	}
	engine := query.NewEngine(s, query.DefaultConfig())
	tier := New(fab, engine, Config{Frontends: 2})

	doc := []byte(`{"_hints": {"page_size": 4}, "_type": "node", "category": "` + z.HotCategory() + `",
		"_out_edge": {"_type": "link", "_vertex": {"_type": "node",
		"_select": ["id", "score"], "_orderby": "-score", "_limit": 16}}}`)
	res, err := tier.Query(c, g, doc)
	if err != nil {
		t.Fatal(err)
	}
	lv := res.Stats.Levels
	if len(lv) == 0 || !strings.HasPrefix(lv[len(lv)-1].Source, "OrderedTraverse") {
		t.Fatalf("terminal source = %+v, want OrderedTraverse (tier coverage is vacuous)", lv)
	}
	var scores []int64
	for {
		for _, row := range res.Rows {
			scores = append(scores, row.Values["score"].AsInt())
		}
		if res.Continuation == "" {
			break
		}
		res, err = tier.Fetch(c, res.Continuation)
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(scores) != 16 {
		t.Fatalf("paged %d rows, want 16", len(scores))
	}
	for i := 1; i < len(scores); i++ {
		if scores[i] > scores[i-1] {
			t.Errorf("merged order broken across pages at row %d: %d > %d", i, scores[i], scores[i-1])
		}
	}

	// Abandoning a merged stream mid-way releases the coordinator state.
	rows, err := tier.QueryRows(c, g, doc)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next(c) {
		t.Fatal("no first row")
	}
	if err := rows.Close(c); err != nil {
		t.Fatal(err)
	}
	total := 0
	for m := 0; m < fab.Machines(); m++ {
		total += engine.PendingResults(fabric.MachineID(m))
	}
	if total != 0 {
		t.Errorf("%d continuation entries left after cursor Close", total)
	}
}

func TestAggregatesThroughFrontend(t *testing.T) {
	tier, g, c := newTier(t)
	res, err := tier.Query(c, g, []byte(`{"_type": "entity", "str_str_map[kind]": "actor",
		"_select": ["_count(*)", "_max(popularity)"]}`))
	if err != nil {
		t.Fatal(err)
	}
	want := int64(workload.TestParams().ActorPool + 1)
	if !res.HasCount || res.Count != want {
		t.Errorf("count = %d (has=%v), want %d", res.Count, res.HasCount, want)
	}
	if res.Rows != nil {
		t.Errorf("aggregate query returned %d rows", len(res.Rows))
	}
	if res.Aggregates["_max(popularity)"].AsFloat() <= 0 {
		t.Errorf("max popularity = %v", res.Aggregates["_max(popularity)"])
	}
}

func TestThrottling(t *testing.T) {
	fab := fabric.New(fabric.DefaultConfig(4, fabric.Direct), nil)
	f := farm.Open(fab, farm.Config{RegionSize: 8 << 20})
	c := fab.NewCtx(0, nil)
	s, _ := core.Open(c, f, core.DefaultConfig())
	engine := query.NewEngine(s, query.DefaultConfig())
	tier := New(fab, engine, Config{Frontends: 1, MaxInflight: 2})
	// Hold two slots, third request must throttle.
	fe1, err := tier.pickFrontend()
	if err != nil {
		t.Fatal(err)
	}
	fe2, err := tier.pickFrontend()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tier.pickFrontend(); !errors.Is(err, ErrThrottled) {
		t.Errorf("third concurrent request err = %v, want ErrThrottled", err)
	}
	tier.release(fe1)
	tier.release(fe2)
	if _, err := tier.pickFrontend(); err != nil {
		t.Errorf("after release err = %v", err)
	}
}

func TestPreparedExecThroughTier(t *testing.T) {
	tier, g, c := newTier(t)
	p, err := tier.Prepare(c, g, []byte(`{"id": "$who", "_out_edge": {"_type": "actor.film",
		"_vertex": {"_select": ["_count(*)"]}}}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, who := range []string{"tom.hanks", "actor.00000"} {
		res, err := tier.Exec(c, p, query.Params{"who": who})
		if err != nil {
			t.Fatalf("%s: %v", who, err)
		}
		if !res.HasCount || res.Count == 0 {
			t.Errorf("%s: count = %d", who, res.Count)
		}
		if res.Stats.PlanCacheHits != 1 {
			t.Errorf("%s: PlanCacheHits = %d, want 1", who, res.Stats.PlanCacheHits)
		}
	}
}

func TestCursorThroughTier(t *testing.T) {
	// A cursor drives frontend Fetch transparently: every page re-enters
	// through the SLB and routes back to the coordinator.
	tier, g, c := newTier(t)
	rows, err := tier.QueryRows(c, g, []byte(`{"_type": "entity", "str_str_map[kind]": "actor", "_select": ["id"]}`))
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
	want := workload.TestParams().ActorPool + 1 // pool + tom hanks
	if n != want {
		t.Errorf("streamed %d rows, want %d", n, want)
	}
	if rows.Pages() < 2 {
		t.Errorf("pages = %d, want multi-page", rows.Pages())
	}
}

func TestCursorCloseReleasesThroughTier(t *testing.T) {
	tier, g, c, engine := newTierEngine(t)
	rows, err := tier.QueryRows(c, g, []byte(`{"_type": "entity", "str_str_map[kind]": "actor", "_select": ["id"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next(c) {
		t.Fatal("no rows")
	}
	// The token names its coordinator; after Close, that machine must hold
	// no continuation state.
	coordinator, err := engine.Coordinator(rows.Result().Continuation)
	if err != nil {
		t.Fatal(err)
	}
	if n := engine.PendingResults(coordinator); n != 1 {
		t.Fatalf("pending before close = %d", n)
	}
	if err := rows.Close(c); err != nil {
		t.Fatal(err)
	}
	if n := engine.PendingResults(coordinator); n != 0 {
		t.Errorf("pending after close = %d, want 0", n)
	}
}

func TestThrottledExecAndFetch(t *testing.T) {
	// Exec and Fetch ride the same frontend slots as Query, so they
	// throttle identically; Release does not consume a slot.
	tier, g, c, engine := newTierEngine(t)
	tier.cfg.MaxInflight = 1
	tier.inflight = make([]int, tier.cfg.Frontends)
	p, err := tier.Prepare(c, g, []byte(`{"id": "tom.hanks", "_select": ["id"]}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := tier.Query(c, g, []byte(`{"_type": "entity", "str_str_map[kind]": "actor", "_select": ["id"]}`))
	if err != nil {
		t.Fatal(err)
	}
	// Occupy every frontend slot, then verify each entry point throttles.
	for fe := 0; fe < tier.cfg.Frontends; fe++ {
		if _, err := tier.pickFrontend(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tier.Exec(c, p, nil); !errors.Is(err, ErrThrottled) {
		t.Errorf("Exec under load err = %v, want ErrThrottled", err)
	}
	if _, err := tier.Fetch(c, res.Continuation); !errors.Is(err, ErrThrottled) {
		t.Errorf("Fetch under load err = %v, want ErrThrottled", err)
	}
	if err := tier.Release(c, res.Continuation); err != nil {
		t.Errorf("Release under load err = %v, want nil (not throttled)", err)
	}
	coordinator, _ := engine.Coordinator(res.Continuation)
	if n := engine.PendingResults(coordinator); n != 0 {
		t.Errorf("pending after release = %d", n)
	}
}

func TestCursorCloseReleasesAfterTransientError(t *testing.T) {
	// A cursor whose Next failed on a throttled Fetch still holds a live
	// token; Close must release the coordinator state rather than leak it
	// until TTL.
	tier, g, c, engine := newTierEngine(t)
	rows, err := tier.QueryRows(c, g, []byte(`{"_type": "entity", "str_str_map[kind]": "actor", "_select": ["id"]}`))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10 && rows.Next(c); i++ { // stay inside page one
	}
	// Saturate the frontends so the next page fetch throttles.
	tier.cfg.MaxInflight = 1
	for fe := 0; fe < tier.cfg.Frontends; fe++ {
		if _, err := tier.pickFrontend(); err != nil {
			t.Fatal(err)
		}
	}
	for rows.Next(c) {
	}
	if err := rows.Err(); !errors.Is(err, ErrThrottled) {
		t.Fatalf("Err = %v, want ErrThrottled", err)
	}
	coordinator, err := engine.Coordinator(rows.Result().Continuation)
	if err != nil {
		t.Fatal(err)
	}
	if n := engine.PendingResults(coordinator); n != 1 {
		t.Fatalf("pending before close = %d", n)
	}
	if err := rows.Close(c); err != nil {
		t.Fatal(err)
	}
	if n := engine.PendingResults(coordinator); n != 0 {
		t.Errorf("pending after close = %d, want 0 (state leaked)", n)
	}
}

func TestConcurrentClients(t *testing.T) {
	tier, g, c := newTier(t)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := tier.Query(c, g, []byte(`{"id": "tom.hanks", "_select": ["id"]}`))
			if err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent query: %v", err)
	}
}

func TestGroupedAggregatesThroughFrontend(t *testing.T) {
	// `_groupby` results flow through the tier like rows: workers ship
	// per-group partial states to a random backend coordinator, the merged
	// groups come back in the first page, and overflowing group lists page
	// through token-routed fetches.
	tier, g, c := newTier(t)
	doc := []byte(`{ "id" : "steven.spielberg",
	  "_out_edge" : { "_type" : "director.film",
	    "_vertex" : { "_groupby" : "str_str_map[year]",
	      "_select" : ["_count(*)", "_avg(popularity)"] }}}`)
	res, err := tier.Query(c, g, doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) == 0 {
		t.Fatal("no groups through frontend")
	}
	total := int64(0)
	prevYear := ""
	for _, gr := range res.Groups {
		year := gr.Keys["str_str_map[year]"].AsString()
		if year < prevYear {
			t.Errorf("groups out of key order: %q after %q", year, prevYear)
		}
		prevYear = year
		total += gr.Aggregates["_count(*)"].AsInt()
	}
	if want := int64(workload.TestParams().SpielbergFilms); total != want {
		t.Errorf("grouped counts sum to %d, want %d films", total, want)
	}
	if res.Stats.RowsShipped != 0 {
		t.Errorf("RowsShipped = %d, want 0 (group partials only)", res.Stats.RowsShipped)
	}

	// Small pages force the group list through the continuation path; the
	// tier routes each fetch back to the issuing coordinator.
	paged, err := tier.Query(c, g, []byte(`{ "id" : "steven.spielberg",
	  "_hints" : {"page_size": 2},
	  "_out_edge" : { "_type" : "director.film",
	    "_vertex" : { "_groupby" : "str_str_map[year]",
	      "_select" : ["_count(*)"] }}}`))
	if err != nil {
		t.Fatal(err)
	}
	got := len(paged.Groups)
	pages := 1
	for paged.Continuation != "" {
		paged, err = tier.Fetch(c, paged.Continuation)
		if err != nil {
			t.Fatalf("group fetch page %d: %v", pages, err)
		}
		got += len(paged.Groups)
		pages++
	}
	if pages < 2 {
		t.Fatalf("expected multiple group pages, got %d", pages)
	}
	if got != len(res.Groups) {
		t.Errorf("paged groups = %d, want %d", got, len(res.Groups))
	}
}

// TestForgedTokensRejected: a continuation token is unauthenticated client
// input, and the tier routes by the machine id it carries. Ids outside the
// cluster and page sizes the engine never issues must come back as
// bad_token from Fetch and Release, not index per-machine state.
func TestForgedTokensRejected(t *testing.T) {
	tier, _, c := newTier(t)
	for name, payload := range map[string]string{
		"machine past the cluster": `{"m":9999,"id":1}`,
		"negative machine":         `{"m":-1,"id":1}`,
		"negative page size":       `{"m":0,"id":1,"ps":-5}`,
	} {
		token := base64.URLEncoding.EncodeToString([]byte(payload))
		_, err := tier.Fetch(c, token)
		var qe *query.Error
		if !errors.As(err, &qe) || qe.Code != query.CodeBadToken {
			t.Errorf("Fetch(%s) = %v, want CodeBadToken", name, err)
		}
		if err := tier.Release(c, token); !errors.As(err, &qe) || qe.Code != query.CodeBadToken {
			t.Errorf("Release(%s) = %v, want CodeBadToken", name, err)
		}
	}
}
