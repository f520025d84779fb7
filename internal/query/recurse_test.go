package query

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/fabric"
	"a1/internal/farm"
)

// `_recurse` coverage: distance-window semantics against a BFS oracle on
// a cyclic fixture, traversal-pruning vs output-filtering, the dedup
// ablation, paged-vs-unpaged parity, and the continuation lifecycle of a
// mid-flight expansion.

const recurseN = 36

var pageSchema = bond.MustSchema("page",
	bond.FReq(0, "id", bond.TString),
	bond.F(1, "rank", bond.TInt64),
)

var refSchema = bond.MustSchema("ref",
	bond.F(0, "w", bond.TInt64),
)

func recurseID(i int) string { return fmt.Sprintf("p%02d", i) }

// recurseEdges is the cyclic fixture's deterministic edge list: one big
// ring (every vertex on a cycle), skip edges that create multiple paths
// of different lengths, and back edges closing short cycles. Edge weight
// w = (src+dst) % 3 supports edge-predicate pruning tests.
func recurseEdges() [][2]int {
	seen := map[[2]int]bool{}
	var out [][2]int
	add := func(a, b int) {
		a, b = a%recurseN, b%recurseN
		if a == b || seen[[2]int{a, b}] {
			return
		}
		seen[[2]int{a, b}] = true
		out = append(out, [2]int{a, b})
	}
	for i := 0; i < recurseN; i++ {
		add(i, i+1)
		add(i, i+2) // diamond: i+2 reachable directly and via i+1
	}
	for i := 0; i < recurseN; i += 3 {
		add(i, i*5+7)
	}
	for i := 0; i < recurseN; i += 4 {
		add(i+13, i)
	}
	return out
}

// bfsDist computes hop distances from src over the given edges,
// optionally reversed (the `_dir: "in"` oracle) and optionally keeping
// only edges whose weight passes `w >= minW` (the edge-pruning oracle;
// minW < 0 keeps all).
func bfsDist(edges [][2]int, src int, reverse bool, minW int) []int {
	adj := make([][]int, recurseN)
	for _, e := range edges {
		a, b := e[0], e[1]
		if minW >= 0 && (a+b)%3 < minW {
			continue
		}
		if reverse {
			a, b = b, a
		}
		adj[a] = append(adj[a], b)
	}
	dist := make([]int, recurseN)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range adj[v] {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// oracleSet is the expected result: vertices whose BFS distance lies in
// [min, max].
func oracleSet(dist []int, min, max int) map[string]int {
	out := map[string]int{}
	for i, d := range dist {
		if d >= min && d <= max {
			out[recurseID(i)] = d
		}
	}
	return out
}

func newRecurseEnv(t *testing.T, cfg Config) (*Engine, *core.Graph, *fabric.Ctx) {
	t.Helper()
	fab := fabric.New(fabric.DefaultConfig(6, fabric.Direct), nil)
	f := farm.Open(fab, farm.Config{RegionSize: 16 << 20})
	c := fab.NewCtx(0, nil)
	s, g, err := loadRecurse(c, f)
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(s, cfg), g, c
}

// loadRecurse loads newRecurseEnv's pages and refs into a fresh store on
// f. It fails by error, not t.Fatal, so a Sim process can load it too.
func loadRecurse(c *fabric.Ctx, f *farm.Farm) (*core.Store, *core.Graph, error) {
	s, g, err := openTestGraph(c, f)
	if err == nil {
		err = g.CreateVertexType(c, "page", pageSchema, "id")
	}
	if err == nil {
		err = g.CreateEdgeType(c, "ref", refSchema)
	}
	if err != nil {
		return nil, nil, err
	}
	ptrs := make([]core.VertexPtr, recurseN)
	err = farm.RunTransaction(c, f, func(tx *farm.Tx) error {
		for i := 0; i < recurseN; i++ {
			vp, err := g.CreateVertex(tx, "page", bond.Struct(
				bond.FV(0, bond.String(recurseID(i))),
				bond.FV(1, bond.Int64(int64(i))),
			))
			if err != nil {
				return err
			}
			ptrs[i] = vp
		}
		for _, e := range recurseEdges() {
			w := bond.Struct(bond.FV(0, bond.Int64(int64((e[0]+e[1])%3))))
			if err := g.CreateEdge(tx, ptrs[e[0]], "ref", ptrs[e[1]], w); err != nil {
				return err
			}
		}
		return nil
	})
	return s, g, err
}

// collectRecurse drains a query (first page + continuations) into an
// id → hops map; hops is -1 when `_shortest` was off.
func collectRecurse(t *testing.T, e *Engine, g *core.Graph, c *fabric.Ctx, doc string) map[string]int {
	t.Helper()
	out := map[string]int{}
	res, err := e.Execute(c, g, []byte(doc))
	if err != nil {
		t.Fatalf("Execute(%s): %v", doc, err)
	}
	for {
		for _, row := range res.Rows {
			id := row.Values["id"].AsString()
			if _, dup := out[id]; dup {
				t.Fatalf("duplicate row for %s", id)
			}
			hops := -1
			if hv, ok := row.Values[HopsColumn]; ok {
				hops = int(hv.AsInt())
			}
			out[id] = hops
		}
		if res.Continuation == "" {
			return out
		}
		if res, err = e.Fetch(c, res.Continuation); err != nil {
			t.Fatalf("Fetch: %v", err)
		}
	}
}

func recurseDoc(root string, min, max int, extra string) string {
	minClause := ""
	if min > 1 {
		minClause = fmt.Sprintf(`"_min": %d, `, min)
	}
	return fmt.Sprintf(`{"id": %q, "_recurse": {"_type": "ref", %s"_max": %d%s, "_vertex": {"_select": ["id"]}}}`,
		root, minClause, max, extra)
}

func TestRecurseDistanceWindow(t *testing.T) {
	e, g, c := newRecurseEnv(t, DefaultConfig())
	dist := bfsDist(recurseEdges(), 0, false, -1)
	for _, w := range [][2]int{{1, 1}, {1, 2}, {1, 4}, {2, 4}, {3, 3}, {1, 16}} {
		min, max := w[0], w[1]
		got := collectRecurse(t, e, g, c, recurseDoc(recurseID(0), min, max, ""))
		want := oracleSet(dist, min, max)
		if len(got) != len(want) {
			t.Fatalf("[%d..%d]: %d rows, oracle %d", min, max, len(got), len(want))
		}
		for id := range want {
			if _, ok := got[id]; !ok {
				t.Errorf("[%d..%d]: missing %s", min, max, id)
			}
		}
	}
}

func TestRecurseShortestReportsBFSDistance(t *testing.T) {
	e, g, c := newRecurseEnv(t, DefaultConfig())
	dist := bfsDist(recurseEdges(), 0, false, -1)
	got := collectRecurse(t, e, g, c, recurseDoc(recurseID(0), 1, 5, `, "_shortest": true`))
	want := oracleSet(dist, 1, 5)
	if len(got) != len(want) {
		t.Fatalf("%d rows, oracle %d", len(got), len(want))
	}
	for id, d := range want {
		if got[id] != d {
			t.Errorf("%s: _hops = %d, BFS distance = %d", id, got[id], d)
		}
	}
}

func TestRecurseDirIn(t *testing.T) {
	e, g, c := newRecurseEnv(t, DefaultConfig())
	dist := bfsDist(recurseEdges(), 5, true, -1)
	got := collectRecurse(t, e, g, c, recurseDoc(recurseID(5), 1, 3, `, "_dir": "in"`))
	want := oracleSet(dist, 1, 3)
	if len(got) != len(want) {
		t.Fatalf("%d rows, oracle %d (in-direction)", len(got), len(want))
	}
	for id := range want {
		if _, ok := got[id]; !ok {
			t.Errorf("missing %s", id)
		}
	}
}

func TestRecurseEdgePredicatePrunesTraversal(t *testing.T) {
	e, g, c := newRecurseEnv(t, DefaultConfig())
	// Only edges with w >= 1 are walkable: the reachable set shrinks to
	// the BFS closure of the filtered graph, not a filtered closure.
	dist := bfsDist(recurseEdges(), 0, false, 1)
	doc := fmt.Sprintf(`{"id": %q, "_recurse": {"_type": "ref", "w": {"_ge": 1}, "_max": 4, "_vertex": {"_select": ["id"]}}}`, recurseID(0))
	got := collectRecurse(t, e, g, c, doc)
	want := oracleSet(dist, 1, 4)
	if len(got) != len(want) {
		t.Fatalf("%d rows, pruned oracle %d", len(got), len(want))
	}
	for id := range want {
		if _, ok := got[id]; !ok {
			t.Errorf("missing %s", id)
		}
	}
}

func TestRecurseTerminalPredicateFiltersOutputOnly(t *testing.T) {
	e, g, c := newRecurseEnv(t, DefaultConfig())
	dist := bfsDist(recurseEdges(), 0, false, -1)
	// rank >= 20 on the terminal: high-rank vertices stay in the result
	// even when every path to them runs through low-rank vertices.
	doc := fmt.Sprintf(`{"id": %q, "_recurse": {"_type": "ref", "_max": 4, "_vertex": {"rank": {"_ge": 20}, "_select": ["id"]}}}`, recurseID(0))
	got := collectRecurse(t, e, g, c, doc)
	want := map[string]bool{}
	for i, d := range dist {
		if d >= 1 && d <= 4 && i >= 20 {
			want[recurseID(i)] = true
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d rows, oracle %d", len(got), len(want))
	}
	for id := range want {
		if _, ok := got[id]; !ok {
			t.Errorf("missing %s (terminal filter must not prune expansion)", id)
		}
	}
}

func TestRecurseCountAggregate(t *testing.T) {
	e, g, c := newRecurseEnv(t, DefaultConfig())
	dist := bfsDist(recurseEdges(), 0, false, -1)
	doc := fmt.Sprintf(`{"id": %q, "_recurse": {"_type": "ref", "_max": 3, "_vertex": {"_select": ["_count(*)"]}}}`, recurseID(0))
	res, err := e.Execute(c, g, []byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	want := int64(len(oracleSet(dist, 1, 3)))
	if !res.HasCount || res.Count != want {
		t.Fatalf("count = %d (has=%v), oracle %d", res.Count, res.HasCount, want)
	}
}

func TestRecursePagedParity(t *testing.T) {
	whole, g, c := newRecurseEnv(t, DefaultConfig())
	pagedCfg := DefaultConfig()
	pagedCfg.PageSize = 3
	paged := NewEngine(whole.Store(), pagedCfg)
	doc := recurseDoc(recurseID(0), 1, 5, `, "_shortest": true`)
	want := collectRecurse(t, whole, g, c, doc)
	res, err := paged.Execute(c, g, []byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if res.Continuation == "" || len(res.Rows) != 3 {
		t.Fatalf("paged run: %d rows, continuation=%q — expected a mid-expansion page", len(res.Rows), res.Continuation)
	}
	if err := paged.Release(c, res.Continuation); err != nil {
		t.Fatal(err)
	}
	got := collectRecurse(t, paged, g, c, doc)
	if len(got) != len(want) {
		t.Fatalf("paged %d rows, unpaged %d", len(got), len(want))
	}
	for id, d := range want {
		pd, ok := got[id]
		if !ok || pd != d {
			t.Errorf("%s: paged hops=%d ok=%v, unpaged %d", id, pd, ok, d)
		}
	}
	if n := paged.PendingResults(0); n != 0 {
		t.Fatalf("PendingResults after drain = %d, want 0", n)
	}
}

func TestRecurseReleaseMidExpansion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PageSize = 3
	e, g, c := newRecurseEnv(t, cfg)
	res, err := e.Execute(c, g, []byte(recurseDoc(recurseID(0), 1, 5, "")))
	if err != nil {
		t.Fatal(err)
	}
	if res.Continuation == "" {
		t.Fatal("expected a mid-expansion continuation")
	}
	if n := e.PendingResults(0); n != 1 {
		t.Fatalf("PendingResults = %d, want 1", n)
	}
	if err := e.Release(c, res.Continuation); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if n := e.PendingResults(0); n != 0 {
		t.Fatalf("PendingResults after Release = %d, want 0", n)
	}
	if _, err := e.Fetch(c, res.Continuation); !errors.Is(err, ErrBadToken) {
		t.Fatalf("Fetch(released) = %v, want ErrBadToken", err)
	}
	// Releasing again is a no-op, not an error.
	if err := e.Release(c, res.Continuation); err != nil {
		t.Fatalf("Release(again) = %v", err)
	}
}

func TestRecurseExpiredPagerSwept(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PageSize = 3
	cfg.ResultTTL = 20 * time.Millisecond
	e, g, c := newRecurseEnv(t, cfg)
	res, err := e.Execute(c, g, []byte(recurseDoc(recurseID(0), 1, 5, "")))
	if err != nil {
		t.Fatal(err)
	}
	if res.Continuation == "" {
		t.Fatal("expected a mid-expansion continuation")
	}
	time.Sleep(30 * time.Millisecond)
	if n := e.ExpireResults(c); n != 1 {
		t.Fatalf("ExpireResults swept %d, want 1", n)
	}
	if _, err := e.Fetch(c, res.Continuation); !errors.Is(err, ErrBadToken) {
		t.Fatalf("Fetch(swept) = %v, want ErrBadToken", err)
	}
}

func TestRecurseWorkingSetCap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxWorkingSet = 5
	e, g, c := newRecurseEnv(t, cfg)
	_, err := e.Execute(c, g, []byte(recurseDoc(recurseID(0), 1, 6, "")))
	if !errors.Is(err, ErrWorkingSet) {
		t.Fatalf("err = %v, want ErrWorkingSet", err)
	}
	var qe *Error
	if !errors.As(err, &qe) || qe.Code != CodeWorkingSet {
		t.Fatalf("code = %v, want CodeWorkingSet", err)
	}
}

func TestRecurseValidationErrors(t *testing.T) {
	bad := []string{
		`{"id": "p00", "_recurse": {"_type": "ref", "_min": 3, "_max": 2, "_vertex": {}}}`,
		`{"id": "p00", "_recurse": {"_type": "ref", "_vertex": {}}}`,                                                                      // missing _max
		`{"id": "p00", "_recurse": {"_type": "ref", "_max": 99, "_vertex": {}}}`,                                                          // over the depth cap
		`{"id": "p00", "_recurse": {"_type": "ref", "_max": 0, "_vertex": {}}}`,                                                           // _max < 1
		`{"id": "p00", "_recurse": {"_type": "ref", "_min": 0, "_max": 2, "_vertex": {}}}`,                                                // _min < 1
		`{"id": "p00", "_recurse": {"_type": "ref", "_max": 2, "_dir": "sideways", "_vertex": {}}}`,                                       // bad _dir
		`{"id": "p00", "_recurse": {"_type": "ref", "_max": 2, "_shortest": "yes", "_vertex": {}}}`,                                       // _shortest not bool
		`{"id": "p00", "_recurse": {"_type": "ref", "_max": 2}, "_out_edge": {"_type": "ref"}}`,                                           // recurse + edge on one level
		`{"id": "p00", "_select": ["id"], "_recurse": {"_type": "ref", "_max": 2, "_vertex": {}}}`,                                        // shaped host
		`{"id": "p00", "_recurse": {"_type": "ref", "_max": 2, "_vertex": {"id": "p01"}}}`,                                                // id on the terminal
		`{"id": "p00", "_recurse": {"_type": "ref", "_max": 2, "_vertex": {"_out_edge": {"_type": "ref", "_vertex": {}}}}}`,               // non-terminal _vertex
		`{"id": "p00", "_recurse": {"_type": "ref", "_max": 2, "_vertex": {"_recurse": {"_type": "ref", "_max": 2, "_vertex": {}}}}}`,     // nested recursion
		`{"id": "p00", "_recurse": {"_type": "ref", "_max": 2, "_vertex": {"_groupby": "rank"}}}`,                                         // grouped terminal
		`{"id": "p00", "_recurse": {"_type": "ref", "_max": 2, "_vertex": {"_match": [{"_out_edge": {"_type": "ref"}}]}}}`,                // _match on terminal
		`{"id": "p00", "_recurse": {"_type": "ref", "_max": 2, "_shortest": true, "_vertex": {"_select": ["_count(*)"]}}}`,                // shortest + aggregate
		`{"id": "p00", "_match": [{"_out_edge": {"_type": "ref", "_vertex": {"_recurse": {"_type": "ref", "_max": 2, "_vertex": {}}}}}]}`, // recursion inside _match
	}
	for _, doc := range bad {
		_, err := Parse([]byte(doc))
		if err == nil {
			t.Errorf("Parse(%s) succeeded, want CodeRecurse", doc)
			continue
		}
		var qe *Error
		if !errors.As(err, &qe) || qe.Code != CodeRecurse {
			t.Errorf("Parse(%s) = %v, want CodeRecurse", doc, err)
		}
	}
}

func TestRecurseParamBounds(t *testing.T) {
	e, g, c := newRecurseEnv(t, DefaultConfig())
	doc := fmt.Sprintf(`{"id": %q, "_recurse": {"_type": "ref", "_min": "$lo", "_max": "$hi", "_vertex": {"_select": ["id"]}}}`, recurseID(0))
	p, err := e.Prepare(c, g, []byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	dist := bfsDist(recurseEdges(), 0, false, -1)
	res, err := p.Exec(c, Params{"lo": 2, "hi": 3})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(oracleSet(dist, 2, 3)); len(res.Rows) != want {
		t.Fatalf("bound [2..3]: %d rows, oracle %d", len(res.Rows), want)
	}
	for _, bad := range []Params{
		{"lo": 3, "hi": 2},  // min > max at bind time
		{"lo": 0, "hi": 2},  // min < 1
		{"lo": 1, "hi": 99}, // over the depth cap
	} {
		_, err := p.Exec(c, bad)
		var qe *Error
		if err == nil || !errors.As(err, &qe) || qe.Code != CodeRecurse {
			t.Errorf("Exec(%v) = %v, want CodeRecurse", bad, err)
		}
	}
}

func TestRecurseLevelStats(t *testing.T) {
	e, g, c := newRecurseEnv(t, DefaultConfig())
	res, err := e.Execute(c, g, []byte(recurseDoc(recurseID(0), 1, 3, "")))
	if err != nil {
		t.Fatal(err)
	}
	var iters []LevelStats
	for _, ls := range res.Stats.Levels {
		if strings.HasPrefix(ls.Source, "Iter ") {
			iters = append(iters, ls)
		}
	}
	if len(iters) != 3 {
		t.Fatalf("iteration level stats = %d, want 3 (%+v)", len(iters), res.Stats.Levels)
	}
	if iters[0].Source != "Iter 1/3" || iters[0].ActRows == 0 {
		t.Fatalf("first iteration = %+v, want Iter 1/3 with act > 0", iters[0])
	}
}

func TestExplainPlanRecurseTree(t *testing.T) {
	e, g, c := newRecurseEnv(t, DefaultConfig())
	doc := []byte(recurseDoc(recurseID(0), 1, 3, `, "_shortest": true`))
	tree, err := e.ExplainPlan(c, g, doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	rendered := tree.String()
	direct, err := e.Explain(c, g, doc)
	if err != nil {
		t.Fatal(err)
	}
	if rendered != direct {
		t.Fatalf("string Explain diverged from tree render:\n%s\n---\n%s", direct, rendered)
	}
	if !strings.Contains(rendered, "Recurse(out ref, 1..3, shortest") {
		t.Fatalf("missing Recurse operator:\n%s", rendered)
	}
	var recurse *PlanNode
	var walk func(ns []*PlanNode)
	walk = func(ns []*PlanNode) {
		for _, n := range ns {
			if n.Op == "Recurse" {
				recurse = n
			}
			walk(n.Children)
		}
	}
	walk(tree.Levels)
	if recurse == nil {
		t.Fatalf("no Recurse node in tree:\n%s", rendered)
	}
	if len(recurse.Children) != 3 {
		t.Fatalf("Recurse iterations = %d, want 3", len(recurse.Children))
	}
	for k, it := range recurse.Children {
		if it.Op != "Iter" || it.Detail != fmt.Sprintf("%d/3", k+1) {
			t.Fatalf("iteration %d = %+v", k, it)
		}
	}
	// JSON round trip: the wire form a1server serves must rebuild the
	// identical tree (est/act included — they are not omitted when -1).
	blob, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	var back PlanTree
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.String() != rendered {
		t.Fatalf("JSON round trip diverged:\n%s\n---\n%s", rendered, back.String())
	}
}

func TestExplainPlanLooseParams(t *testing.T) {
	e, g, c := newRecurseEnv(t, DefaultConfig())
	doc := []byte(fmt.Sprintf(`{"id": %q, "_recurse": {"_type": "ref", "_max": "$d", "_vertex": {"_select": ["id"]}}}`, recurseID(0)))
	unbound, err := e.ExplainPlan(c, g, doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(unbound.String(), "1..$d") {
		t.Fatalf("unbound plan should render the placeholder:\n%s", unbound)
	}
	bound, err := e.ExplainPlan(c, g, doc, Params{"d": 4})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(bound.String(), "1..4") {
		t.Fatalf("bound plan should render the bound depth:\n%s", bound)
	}
	// Unknown names are ignored on the Explain path, not rejected.
	if _, err := e.ExplainPlan(c, g, doc, Params{"d": 4, "zz": 1}); err != nil {
		t.Fatalf("ExplainPlan with unknown param: %v", err)
	}
	// Bound values substitute into the rendering everywhere a placeholder
	// can appear — the root id and predicate constants, not just bounds.
	pdoc := []byte(`{"id": "$root", "_recurse": {"_type": "ref", "_max": 2, "_vertex": {"rank": {"_ge": "$lo"}, "_select": ["id"]}}}`)
	pt, err := e.ExplainPlan(c, g, pdoc, Params{"root": recurseID(0), "lo": 7})
	if err != nil {
		t.Fatal(err)
	}
	if s := pt.String(); !strings.Contains(s, `id="p00"`) || !strings.Contains(s, "rank >= 7") {
		t.Fatalf("bound id/predicate should render their values:\n%s", s)
	}
}

// TestRecurseReadsTrackReachableSet: the owners' visited sets drop a
// re-entered vertex before it is read, so a graph full of cycles and
// diamonds costs one vertex read per reachable vertex (plus the root, whose
// header the seed reads for its edge list), not one per path.
func TestRecurseReadsTrackReachableSet(t *testing.T) {
	e, g, c := newRecurseEnv(t, DefaultConfig())
	res, err := e.Execute(c, g, []byte(recurseDoc(recurseID(0), 1, 5, "")))
	if err != nil {
		t.Fatal(err)
	}
	reachable := len(oracleSet(bfsDist(recurseEdges(), 0, false, -1), 1, 5))
	if len(res.Rows) != reachable || res.Stats.VerticesRead != int64(reachable)+1 {
		t.Fatalf("%d rows for %d vertex reads, oracle reaches %d", len(res.Rows), res.Stats.VerticesRead, reachable)
	}
	if res.Stats.EdgesVisited <= int64(reachable) {
		t.Fatalf("edges visited = %d: the fixture has no re-entries to dedup", res.Stats.EdgesVisited)
	}
}
