package query

import (
	"strings"
	"testing"
)

// `_orderby` with `_groupby`: ordering groups by an aggregate column with
// top-K pruning at the coordinator merge.

func TestGroupByOrderByAggregate(t *testing.T) {
	e, _, g, c := newSkewEnv(t)
	// 81 groups: "hot" with 120 members, 80 singleton tails. Top-3 by
	// count: hot first, then singleton ties in ascending key order.
	res, err := e.Execute(c, g, []byte(`{"_type": "product", "_groupby": "category",
	  "_select": ["_count(*)"], "_orderby": "-_count(*)", "_limit": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(res.Groups))
	}
	if k := res.Groups[0].Keys["category"].AsString(); k != "hot" {
		t.Fatalf("top group = %q, want hot", k)
	}
	if n := res.Groups[0].Aggregates["_count(*)"].AsInt(); n != 120 {
		t.Fatalf("top group count = %d, want 120", n)
	}
	// Ties (count 1) keep ascending key order: the encoded group key breaks
	// aggregate ties.
	k1 := res.Groups[1].Keys["category"].AsString()
	k2 := res.Groups[2].Keys["category"].AsString()
	if k1 >= k2 {
		t.Fatalf("tie order: %q then %q, want ascending keys", k1, k2)
	}

	// Bare-function shorthand and ascending order: singletons first.
	res, err = e.Execute(c, g, []byte(`{"_type": "product", "_groupby": "category",
	  "_select": ["_count(*)"], "_orderby": "_count", "_limit": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(res.Groups))
	}
	for i, gr := range res.Groups {
		if n := gr.Aggregates["_count(*)"].AsInt(); n != 1 {
			t.Fatalf("asc group %d count = %d, want 1", i, n)
		}
	}

	// Secondary aggregate sort key: order by count desc, then max score
	// desc breaks the singleton ties.
	res, err = e.Execute(c, g, []byte(`{"_type": "product", "_groupby": "category",
	  "_select": ["_count(*)", "_max(score)"], "_orderby": ["-_count(*)", "-_max(score)"], "_limit": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	if k := res.Groups[0].Keys["category"].AsString(); k != "hot" {
		t.Fatalf("top group = %q, want hot", k)
	}
	// The highest-scoring tail item is p199 (score 199, category tail199).
	if k := res.Groups[1].Keys["category"].AsString(); k != "tail199" {
		t.Fatalf("second group = %q, want tail199", k)
	}
}

func TestGroupOrderValidation(t *testing.T) {
	e, _, g, c := newSkewEnv(t)
	cases := []struct {
		doc  string
		want string
	}{
		// Plain-field ordering of groups is still undefined.
		{`{"_type": "product", "_groupby": "category", "_select": ["_count(*)"], "_orderby": "category"}`,
			"must name a _select aggregate"},
		// Aggregate ordering without grouping has nothing to order.
		{`{"_type": "product", "_orderby": "-_count(*)", "_select": ["id"]}`,
			"requires _groupby"},
		// Bare-function shorthand must be unambiguous.
		{`{"_type": "product", "_groupby": "category", "_select": ["_max(score)", "_max(id)"], "_orderby": "-_max"}`,
			"ambiguous"},
		// The named aggregate must be selected.
		{`{"_type": "product", "_groupby": "category", "_select": ["_count(*)"], "_orderby": "-_max(score)"}`,
			"must name a _select aggregate"},
	}
	for _, tc := range cases {
		_, err := e.Execute(c, g, []byte(tc.doc))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Execute(%s) err = %v, want containing %q", tc.doc, err, tc.want)
		}
	}
}

func TestGroupOrderPaging(t *testing.T) {
	e, _, g, c := newSkewEnv(t)
	// Force paging: 81 groups, page size 10, ordered by count descending.
	e.cfg.PageSize = 10
	res, err := e.Execute(c, g, []byte(`{"_type": "product", "_groupby": "category",
	  "_select": ["_count(*)"], "_orderby": "-_count(*)"}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 10 || res.Continuation == "" {
		t.Fatalf("page 1: %d groups, cont=%q", len(res.Groups), res.Continuation)
	}
	if k := res.Groups[0].Keys["category"].AsString(); k != "hot" {
		t.Fatalf("page 1 top group = %q, want hot", k)
	}
	total := len(res.Groups)
	token := res.Continuation
	for token != "" {
		page, err := e.Fetch(c, token)
		if err != nil {
			t.Fatal(err)
		}
		total += len(page.Groups)
		token = page.Continuation
	}
	if total != 81 {
		t.Fatalf("total groups across pages = %d, want 81", total)
	}
}
