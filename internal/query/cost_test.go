package query

import (
	"fmt"
	"strings"
	"testing"

	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/fabric"
	"a1/internal/farm"
)

// Cost-based planner tests: on skewed data the ranked candidate order
// diverges from the structural preference order — an equality predicate on
// a heavy-hitter value loses to an ordered index scan — and the per-level
// estimated-vs-actual accounting surfaces in Stats and Explain.

var skewSchema = bond.MustSchema("product",
	bond.FReq(0, "id", bond.TString),
	bond.F(1, "category", bond.TString),
	bond.F(2, "score", bond.TInt64),
)

const skewItems = 200

// newSkewEnv loads a type where the "hot" category covers 60% of vertices
// (the rest unique tail values) and score is unique, both secondary
// indexed. Returns a cost-based engine and a structural-planner engine (no
// statistics: the preference-order fallback) over the same store.
func newSkewEnv(t *testing.T) (*Engine, *Engine, *core.Graph, *fabric.Ctx) {
	t.Helper()
	fab := fabric.New(fabric.DefaultConfig(6, fabric.Direct), nil)
	f := farm.Open(fab, farm.Config{RegionSize: 16 << 20})
	c := fab.NewCtx(0, nil)
	s, g, err := loadSkew(c, f)
	if err != nil {
		t.Fatal(err)
	}
	structural := NewEngine(s, DefaultConfig())
	structural.noStats = true
	return NewEngine(s, DefaultConfig()), structural, g, c
}

// loadSkew loads newSkewEnv's products into a fresh store on f. It fails
// by error, not t.Fatal, so a Sim process can load it too.
func loadSkew(c *fabric.Ctx, f *farm.Farm) (*core.Store, *core.Graph, error) {
	s, g, err := openTestGraph(c, f)
	if err == nil {
		err = g.CreateVertexType(c, "product", skewSchema, "id", "category", "score")
	}
	if err != nil {
		return nil, nil, err
	}
	err = farm.RunTransaction(c, f, func(tx *farm.Tx) error {
		for i := 0; i < skewItems; i++ {
			cat := "hot"
			if i%5 >= 3 {
				cat = fmt.Sprintf("tail%03d", i)
			}
			_, err := g.CreateVertex(tx, "product", bond.Struct(
				bond.FV(0, bond.String(fmt.Sprintf("p%03d", i))),
				bond.FV(1, bond.String(cat)),
				bond.FV(2, bond.Int64(int64(i))),
			))
			if err != nil {
				return err
			}
		}
		return nil
	})
	return s, g, err
}

// openTestGraph opens a store on f with tenant "t" and graph "g".
func openTestGraph(c *fabric.Ctx, f *farm.Farm) (*core.Store, *core.Graph, error) {
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
	return s, g, err
}

func TestCostBasedAccessPathOnSkew(t *testing.T) {
	eCost, eStruct, g, c := newSkewEnv(t)
	// Hot category + ordered top-K: the fixed preference order always takes
	// the equality index (120 vertex reads); the cost-based ranking sees
	// the heavy hitter and takes the ordered score walk instead.
	doc := []byte(`{"_type": "product", "category": "hot", "_orderby": "-score", "_limit": 5, "_select": ["id", "score"]}`)
	rs, err := eStruct.Execute(c, g, doc)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := eCost.Execute(c, g, doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rc.Rows) != 5 || len(rs.Rows) != 5 {
		t.Fatalf("rows = %d (cost) / %d (structural), want 5", len(rc.Rows), len(rs.Rows))
	}
	for i := range rc.Rows {
		a, b := rc.Rows[i].Values["score"], rs.Rows[i].Values["score"]
		if !a.Equal(b) {
			t.Fatalf("row %d differs: cost=%v structural=%v", i, a, b)
		}
	}
	if len(rs.Stats.Levels) == 0 || !strings.Contains(rs.Stats.Levels[0].Source, "IndexScan(") {
		t.Fatalf("structural source = %+v, want IndexScan", rs.Stats.Levels)
	}
	if len(rc.Stats.Levels) == 0 || !strings.Contains(rc.Stats.Levels[0].Source, "OrderedIndexScan(") {
		t.Fatalf("cost-based source = %+v, want OrderedIndexScan", rc.Stats.Levels)
	}
	if rc.Stats.VerticesRead*2 > rs.Stats.VerticesRead {
		t.Fatalf("cost-based reads %d vs structural %d, want ≥2x fewer",
			rc.Stats.VerticesRead, rs.Stats.VerticesRead)
	}

	// Tail category: the equality index is genuinely selective; both
	// planners take it.
	tail := []byte(`{"_type": "product", "category": "tail003", "_orderby": "-score", "_limit": 5, "_select": ["id"]}`)
	rt, err := eCost.Execute(c, g, tail)
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Stats.Levels) == 0 || !strings.Contains(rt.Stats.Levels[0].Source, "IndexScan(") {
		t.Fatalf("tail source = %+v, want IndexScan", rt.Stats.Levels)
	}
	if len(rt.Rows) != 1 {
		t.Fatalf("tail rows = %d, want 1", len(rt.Rows))
	}
}

func TestLevelStatsEstimatedVsActual(t *testing.T) {
	eCost, _, g, c := newSkewEnv(t)
	res, err := eCost.Execute(c, g, []byte(`{"_type": "product", "category": "hot", "_select": ["_count(*)"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.Levels) != 1 {
		t.Fatalf("levels = %+v, want 1", res.Stats.Levels)
	}
	lv := res.Stats.Levels[0]
	if lv.ActRows != 120 {
		t.Fatalf("ActRows = %d, want 120", lv.ActRows)
	}
	if lv.EstRows < 60 || lv.EstRows > 240 {
		t.Fatalf("EstRows = %d, want ≈120", lv.EstRows)
	}
	if res.Count != 120 {
		t.Fatalf("count = %d, want 120", res.Count)
	}
}

func TestExplainEstimates(t *testing.T) {
	eCost, eStruct, g, c := newSkewEnv(t)
	got, err := eCost.Explain(c, g, []byte(`{"_type": "product", "category": "hot", "_orderby": "-score", "_limit": 5, "_select": ["id"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "OrderedIndexScan(product.score desc, stop after 5)") {
		t.Errorf("cost-based Explain lacks OrderedIndexScan:\n%s", got)
	}
	if !strings.Contains(got, "est=") {
		t.Errorf("Explain lacks est= annotation:\n%s", got)
	}
	// The structural engine keeps the preference order and prints no
	// estimates.
	got, err = eStruct.Explain(c, g, []byte(`{"_type": "product", "category": "hot", "_orderby": "-score", "_limit": 5, "_select": ["id"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "IndexScan(product.category") {
		t.Errorf("structural Explain lacks IndexScan:\n%s", got)
	}
	if strings.Contains(got, "est=") {
		t.Errorf("structural Explain should not print estimates:\n%s", got)
	}
}

func TestMemberFilterBudgetFromSelectivity(t *testing.T) {
	eCost, _, g, c := newSkewEnv(t)
	// A hub with a handful of neighbors, filtered on the hot category: the
	// indexed side (120) dwarfs the frontier, so statistics skip the
	// membership filter entirely and read the frontier directly.
	if err := g.CreateEdgeType(c, "rel", nil); err != nil {
		t.Fatal(err)
	}
	err := farm.RunTransaction(c, g.Store().Farm(), func(tx *farm.Tx) error {
		hub, err := g.CreateVertex(tx, "product", bond.Struct(
			bond.FV(0, bond.String("hub")),
			bond.FV(1, bond.String("hubcat")),
			bond.FV(2, bond.Int64(1000)),
		))
		if err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			dst, ok, err := g.LookupVertex(tx, "product", bond.String(fmt.Sprintf("p%03d", i)))
			if err != nil || !ok {
				return fmt.Errorf("lookup p%03d: %v %v", i, ok, err)
			}
			if err := g.CreateEdge(tx, hub, "rel", dst, bond.Null); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eCost.Execute(c, g, []byte(`{"id": "hub", "_out_edge": {"_type": "rel",
	  "_vertex": {"_type": "product", "category": "hot", "_select": ["id"]}}}`))
	if err != nil {
		t.Fatal(err)
	}
	// p000..p002 are all hot (i%5 < 3).
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	if res.Stats.IndexFiltered != 0 {
		t.Errorf("IndexFiltered = %d, want 0 (filter skipped: index side ≫ frontier)", res.Stats.IndexFiltered)
	}
}
