package query

import (
	"errors"
	"strings"
	"testing"
	"time"

	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/fabric"
	"a1/internal/farm"
)

// OrderedTraverse: `_orderby`+`_limit` at a traversal terminal served by
// per-machine index-order partial scans merged at the coordinator, with
// exact row parity against the materialize-and-sort fallback.

const (
	topNodes = 1000
	topSrcs  = 10
)

// topNodeSchema: score is secondary-indexed (the order field) and heavy
// with ties (score = i % 7); parity is mod 2 for residual predicates.
var topNodeSchema = bond.MustSchema("node",
	bond.FReq(0, "id", bond.TString),
	bond.F(1, "score", bond.TInt64),
	bond.F(2, "parity", bond.TString),
)

var topSrcSchema = bond.MustSchema("src",
	bond.FReq(0, "id", bond.TString),
)

// newTopOrderEnv loads the top-order graph (loadTopOrder) into a Direct
// cluster and returns one store with two engines over it: cost-based
// (OrderedTraverse eligible) and structural (planning without statistics:
// always the sort fallback) — same data, same addresses, so results must
// be byte-identical.
func newTopOrderEnv(t *testing.T, machines int) (cost, structural *Engine, g *core.Graph, c *fabric.Ctx) {
	t.Helper()
	fab := fabric.New(fabric.DefaultConfig(machines, fabric.Direct), nil)
	f := farm.Open(fab, farm.Config{RegionSize: 16 << 20})
	c = fab.NewCtx(0, nil)
	s, g, err := loadTopOrder(c, f)
	if err != nil {
		t.Fatal(err)
	}
	structural = NewEngine(s, DefaultConfig())
	structural.noStats = true
	return NewEngine(s, DefaultConfig()), structural, g, c
}

// loadTopOrder loads 1000 "node" vertices with tie-heavy indexed scores
// and 10 "src" roots, each linked to a disjoint block of 100 nodes. Every
// 13th node has no score at all (keyless: missing from the index).
func loadTopOrder(c *fabric.Ctx, f *farm.Farm) (*core.Store, *core.Graph, error) {
	s, err := core.Open(c, f, core.DefaultConfig())
	if err == nil {
		err = s.CreateTenant(c, "t")
	}
	if err == nil {
		err = s.CreateGraph(c, "t", "g")
	}
	var g *core.Graph
	if err == nil {
		g, err = s.OpenGraph(c, "t", "g")
	}
	if err == nil {
		err = g.CreateVertexType(c, "node", topNodeSchema, "id", "score")
	}
	if err == nil {
		err = g.CreateVertexType(c, "src", topSrcSchema, "id")
	}
	if err == nil {
		err = g.CreateEdgeType(c, "link", nil)
	}
	if err != nil {
		return nil, nil, err
	}
	nodes := make([]core.VertexPtr, topNodes)
	const batch = 128
	for lo := 0; lo < topNodes; lo += batch {
		hi := min(lo+batch, topNodes)
		err = farm.RunTransaction(c, f, func(tx *farm.Tx) error {
			for i := lo; i < hi; i++ {
				parity := "even"
				if i%2 == 1 {
					parity = "odd"
				}
				fields := []bond.FieldValue{
					bond.FV(0, bond.String(nodeID(i))),
					bond.FV(2, bond.String(parity)),
				}
				if i%13 != 0 {
					fields = append(fields, bond.FV(1, bond.Int64(int64(i%7))))
				}
				vp, err := g.CreateVertex(tx, "node", bond.Struct(fields...))
				if err != nil {
					return err
				}
				nodes[i] = vp
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
	}
	for sIdx := 0; sIdx < topSrcs; sIdx++ {
		err = farm.RunTransaction(c, f, func(tx *farm.Tx) error {
			sp, err := g.CreateVertex(tx, "src", bond.Struct(
				bond.FV(0, bond.String(srcID(sIdx)))))
			if err != nil {
				return err
			}
			for i := sIdx * 100; i < (sIdx+1)*100; i++ {
				if err := g.CreateEdge(tx, sp, "link", nodes[i], bond.Null); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
	}
	return s, g, nil
}

func nodeID(i int) string {
	return "n" + string(rune('a'+i/100%10)) + string(rune('a'+i/10%10)) + string(rune('a'+i%10))
}
func srcID(i int) string { return "s" + string(rune('a'+i)) }

// sameRows asserts two result row slices agree exactly: order, vertex
// addresses, and every projected value.
func sameRows(t *testing.T, label string, got, want []Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, fallback has %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Vertex.Addr != want[i].Vertex.Addr {
			t.Fatalf("%s: row %d vertex %v, fallback has %v", label, i, got[i].Vertex.Addr, want[i].Vertex.Addr)
		}
		if len(got[i].Values) != len(want[i].Values) {
			t.Fatalf("%s: row %d has %d values, fallback %d", label, i, len(got[i].Values), len(want[i].Values))
		}
		for k, v := range want[i].Values {
			gv, ok := got[i].Values[k]
			if !ok || !gv.Equal(v) {
				t.Fatalf("%s: row %d %s = %v, fallback %v", label, i, k, gv, v)
			}
		}
	}
}

// terminalSource returns the reported access path of the last level.
func terminalSource(res *Result) string {
	if len(res.Stats.Levels) == 0 {
		return ""
	}
	return res.Stats.Levels[len(res.Stats.Levels)-1].Source
}

func TestOrderedTraverseParityWithSortFallback(t *testing.T) {
	cost, structural, g, c := newTopOrderEnv(t, 8)
	docs := []string{
		// Descending, tie-heavy: every page boundary lands inside a tie-run.
		`{"_type": "src", "_out_edge": {"_type": "link", "_vertex": {
			"_type": "node", "_select": ["id", "score"], "_orderby": "-score", "_limit": 25}}}`,
		// Ascending.
		`{"_type": "src", "_out_edge": {"_type": "link", "_vertex": {
			"_type": "node", "_select": ["id", "score"], "_orderby": "score", "_limit": 25}}}`,
		// Skip across tie boundaries.
		`{"_type": "src", "_out_edge": {"_type": "link", "_vertex": {
			"_type": "node", "_select": ["id"], "_orderby": "-score", "_limit": 10, "_skip": 17}}}`,
		// Residual predicate: the walk reads past non-matching members.
		`{"_type": "src", "_out_edge": {"_type": "link", "_vertex": {
			"_type": "node", "parity": "odd", "_select": ["id", "score"], "_orderby": "-score", "_limit": 12}}}`,
		// Range predicate on the order field bounds the walk itself.
		`{"_type": "src", "_out_edge": {"_type": "link", "_vertex": {
			"_type": "node", "score": {"_ge": 2, "_lt": 6}, "_select": ["id", "score"], "_orderby": "score", "_limit": 9}}}`,
		// Order key shaped out by _select: ordering must not change.
		`{"_type": "src", "_out_edge": {"_type": "link", "_vertex": {
			"_type": "node", "_select": ["id"], "_orderby": "-score", "_limit": 25}}}`,
	}
	usedOrdered := false
	for _, doc := range docs {
		fast, err := cost.Execute(c, g, []byte(doc))
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		slow, err := structural.Execute(c, g, []byte(doc))
		if err != nil {
			t.Fatalf("%s (structural): %v", doc, err)
		}
		sameRows(t, doc, fast.Rows, slow.Rows)
		if strings.HasPrefix(terminalSource(fast), "OrderedTraverse") {
			usedOrdered = true
			if fast.Stats.VerticesRead >= slow.Stats.VerticesRead {
				t.Errorf("%s: OrderedTraverse read %d vertices, fallback %d — no saving",
					doc, fast.Stats.VerticesRead, slow.Stats.VerticesRead)
			}
		}
		if src := terminalSource(slow); strings.HasPrefix(src, "OrderedTraverse") {
			t.Errorf("structural planner ran %s", src)
		}
	}
	if !usedOrdered {
		t.Error("no query ran OrderedTraverse; parity coverage is vacuous")
	}
}

func TestOrderedTraverseKeylessTopUp(t *testing.T) {
	// Limit deep enough that keyless nodes (missing score, absent from the
	// index) must surface at the tail: rows must still match the fallback,
	// which sorts missing-key rows after every keyed row.
	cost, structural, g, c := newTopOrderEnv(t, 8)
	// One src block has 100 nodes of which ~8 are keyless; ask for 97 of
	// them so both keyed and keyless rows appear.
	doc := `{"id": "` + srcID(3) + `", "_out_edge": {"_type": "link", "_vertex": {
		"_type": "node", "_select": ["id", "score"], "_orderby": "score", "_limit": 97}}}`
	fast, err := cost.Execute(c, g, []byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	slow, err := structural.Execute(c, g, []byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "keyless top-up", fast.Rows, slow.Rows)
	keyless := 0
	for _, row := range fast.Rows {
		if _, ok := row.Values["score"]; !ok {
			keyless++
		}
	}
	if keyless == 0 {
		t.Error("no keyless rows surfaced; top-up coverage is vacuous")
	}
}

func TestOrderedTraverseSimCharges(t *testing.T) {
	// Each owner walks the score index restricted to its frontier slice:
	// only members are read, and every entry walked — member or not — is
	// charged as enumeration work. Both show on the Sim clock and the read
	// count, pinned here for 8 machines, sim seed 13. Elapsed also carries
	// the root type scan's and the owners' index walks' leaf reads, which
	// overlap in windows (farm.BTree.Scan), so it moves with that schedule.
	cases := []struct {
		doc     string
		elapsed time.Duration
		read    int64
	}{
		{`{"_type": "src", "_out_edge": {"_type": "link", "_vertex": {
			"_type": "node", "_select": ["id", "score"], "_orderby": "-score", "_limit": 25}}}`, 451854 * time.Nanosecond, 273},
		{`{"_type": "src", "_out_edge": {"_type": "link", "_vertex": {
			"_type": "node", "_select": ["id"], "_orderby": "score", "_limit": 10, "_skip": 17}}}`, 397929 * time.Nanosecond, 274},
		{`{"_type": "src", "_out_edge": {"_type": "link", "_vertex": {
			"_type": "node", "parity": "odd", "_select": ["id"], "_orderby": "-score", "_limit": 5}}}`, 321134 * time.Nanosecond, 141},
		{`{"_type": "src", "_out_edge": {"_type": "link", "_vertex": {
			"_type": "node", "score": {"_ge": 2, "_lt": 6}, "_select": ["id", "score"], "_orderby": "score", "_limit": 9}}}`, 328798 * time.Nanosecond, 142},
	}
	sc := simNew(t, 8)
	sc.run(func(p simProc) {
		c := sc.fab.NewCtx(0, p.p)
		s, g, err := loadTopOrder(c, sc.farm)
		if err != nil {
			t.Error(err)
			return
		}
		e := NewEngine(s, DefaultConfig())
		for _, tc := range cases {
			res, err := e.Execute(c, g, []byte(tc.doc))
			if err != nil {
				t.Errorf("%s: %v", tc.doc, err)
				continue
			}
			if src := terminalSource(res); !strings.HasPrefix(src, "OrderedTraverse") {
				t.Errorf("%s: terminal source %q, want OrderedTraverse", tc.doc, src)
			}
			if res.Stats.Elapsed != tc.elapsed || res.Stats.VerticesRead != tc.read {
				t.Errorf("%s: Elapsed %v, VerticesRead %d; want %v, %d",
					tc.doc, res.Stats.Elapsed, res.Stats.VerticesRead, tc.elapsed, tc.read)
			}
		}
	})
}

func TestOrderedTraverseExplain(t *testing.T) {
	cost, structural, g, c := newTopOrderEnv(t, 8)
	doc := []byte(`{"_type": "src", "_out_edge": {"_type": "link", "_vertex": {
		"_type": "node", "_select": ["id"], "_orderby": "-score", "_limit": 10}}}`)
	plan, err := cost.Explain(c, g, doc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "OrderedTraverse(node.score desc, stop after 10)") {
		t.Errorf("Explain missing OrderedTraverse:\n%s", plan)
	}
	if !strings.Contains(plan, "est=") {
		t.Errorf("Explain missing estimates:\n%s", plan)
	}
	// The structural planner never prints the operator.
	plan, err = structural.Explain(c, g, doc)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan, "OrderedTraverse") {
		t.Errorf("structural Explain shows OrderedTraverse:\n%s", plan)
	}
	// After execution the terminal level reports the operator with actuals.
	res, err := cost.Execute(c, g, doc)
	if err != nil {
		t.Fatal(err)
	}
	if src := terminalSource(res); !strings.HasPrefix(src, "OrderedTraverse") {
		t.Errorf("Stats.Levels terminal source = %q, want OrderedTraverse", src)
	}
}

func TestOrderedTraverseSmallFrontierFallsBack(t *testing.T) {
	// A one-src frontier (100 vertices) with a limit close to it: the cost
	// model must keep the sort fallback (walking the whole index per
	// machine would read more than the frontier).
	cost, _, g, c := newTopOrderEnv(t, 8)
	doc := []byte(`{"id": "` + srcID(0) + `", "_out_edge": {"_type": "link", "_vertex": {
		"_type": "node", "_select": ["id"], "_orderby": "-score", "_limit": 90}}}`)
	res, err := cost.Execute(c, g, []byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 90 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if src := terminalSource(res); strings.HasPrefix(src, "OrderedTraverse") {
		t.Errorf("near-frontier-sized limit still ran %s", src)
	}
}

// Continuation coverage for the ordered traversal terminal (mirrors
// continuation_test.go): resume mid-merge, expired-token Release, and
// sweep racing concurrent Fetch streams.

const topOrderPagedDoc = `{"_hints": {"page_size": 10},
	"_type": "src", "_out_edge": {"_type": "link", "_vertex": {
	"_type": "node", "_select": ["id", "score"], "_orderby": "-score", "_limit": 64}}}`

func TestOrderedTraverseContinuationResume(t *testing.T) {
	cost, structural, g, c := newTopOrderEnv(t, 8)
	res, err := cost.Execute(c, g, []byte(topOrderPagedDoc))
	if err != nil {
		t.Fatal(err)
	}
	if src := terminalSource(res); !strings.HasPrefix(src, "OrderedTraverse") {
		t.Fatalf("terminal source = %q, want OrderedTraverse (paging coverage is vacuous)", src)
	}
	if len(res.Rows) != 10 || res.Continuation == "" {
		t.Fatalf("first page = %d rows, token %q", len(res.Rows), res.Continuation)
	}
	got := append([]Row(nil), res.Rows...)
	for res.Continuation != "" {
		res, err = cost.Fetch(c, res.Continuation)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) > 10 {
			t.Fatalf("page of %d rows exceeds the hinted 10", len(res.Rows))
		}
		got = append(got, res.Rows...)
	}
	slow, err := structural.Execute(c, g, []byte(
		`{"_type": "src", "_out_edge": {"_type": "link", "_vertex": {
		"_type": "node", "_select": ["id", "score"], "_orderby": "-score", "_limit": 64}}}`))
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "paged merge", got, slow.Rows)
}

func TestOrderedTraverseExpiredTokenRelease(t *testing.T) {
	cost, _, g, c := newTopOrderEnv(t, 8)
	cost.cfg.ResultTTL = 20 * time.Millisecond
	res, err := cost.Execute(c, g, []byte(topOrderPagedDoc))
	if err != nil {
		t.Fatal(err)
	}
	if res.Continuation == "" {
		t.Fatal("expected a continuation")
	}
	if n := cost.PendingResults(0); n != 1 {
		t.Fatalf("PendingResults = %d, want 1", n)
	}
	time.Sleep(30 * time.Millisecond)
	if n := cost.ExpireResults(c); n != 1 {
		t.Fatalf("ExpireResults swept %d entries, want 1", n)
	}
	if err := cost.Release(c, res.Continuation); err != nil {
		t.Fatalf("Release(expired) = %v, want nil", err)
	}
	if _, err := cost.Fetch(c, res.Continuation); !errors.Is(err, ErrBadToken) {
		t.Fatalf("Fetch(expired) = %v, want ErrBadToken", err)
	}
}
