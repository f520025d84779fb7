package query

import (
	"reflect"
	"testing"

	"a1/internal/core"
	"a1/internal/fabric"
)

// explainEsts lists an Explain tree's level estimates, then the estimates
// of its `_recurse` iterations in order: the order Stats.Levels reports
// them in.
func explainEsts(pt *PlanTree) []int64 {
	var ests, iters []int64
	for _, lv := range pt.Levels {
		ests = append(ests, lv.Est)
		for _, op := range lv.Children {
			if op.Op == "Recurse" {
				for _, it := range op.Children {
					iters = append(iters, it.Est)
				}
			}
		}
	}
	return append(ests, iters...)
}

// TestExplainAgreesWithLevelStats: Explain and an execution's Stats.Levels
// render one estimate walk, so for every document the estimates Explain
// prints are the ones the executed levels report.
func TestExplainAgreesWithLevelStats(t *testing.T) {
	check := func(e *Engine, g *core.Graph, c *fabric.Ctx, doc string, want []int64) {
		t.Helper()
		pt, err := e.ExplainPlan(c, g, []byte(doc), nil)
		if err != nil {
			t.Errorf("ExplainPlan(%s): %v", doc, err)
			return
		}
		res, err := e.Execute(c, g, []byte(doc))
		if err != nil {
			t.Errorf("Execute(%s): %v", doc, err)
			return
		}
		var got []int64
		for _, l := range res.Stats.Levels {
			got = append(got, l.EstRows)
		}
		if ex := explainEsts(pt); !reflect.DeepEqual(ex, got) || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Explain est %v, Stats.Levels est %v; want both %v", doc, ex, got, want)
		}
	}

	e, g, c := newRecurseEnv(t, DefaultConfig())
	check(e, g, c, recurseDoc(recurseID(0), 1, 3, ""), []int64{1, 26, 3, 7, 17})
	check(e, g, c, recurseDoc(recurseID(0), 2, 4, `, "_shortest": true`), []int64{1, 68, 3, 7, 17, 45})

	e, _, g, c = newSkewEnv(t)
	check(e, g, c, `{"_type": "product", "category": "hot", "_select": ["_count(*)"]}`, []int64{120})
	check(e, g, c, `{"_type": "product", "category": "hot", "_orderby": "-score", "_limit": 5, "_select": ["id", "score"]}`, []int64{5})

	fan := newFaninEnv(t)
	fan.run(func(c *fabric.Ctx) {
		doc := `{"id": "hub", "_out_edge": {"_type": "link", "_vertex": {"_out_edge": {"_type": "link", "_vertex": {"_select": ["_count(*)"]}}}}}`
		check(fan.e, fan.g, c, doc, []int64{1, 163, 26715})
	})
}
