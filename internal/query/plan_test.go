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

// Planner/operator tests: ordered index scans (ascending and descending)
// with top-K early termination, multi-key `_orderby` fallback, `_groupby`
// grouped-aggregate pushdown, traversal-level index filtering, and the
// Explain operator-tree rendering.

func TestOrderedIndexScanEarlyTermination(t *testing.T) {
	e, g, c := newRangeEnv(t)
	// Descending top-5 on the indexed score: the reverse index walk stops
	// after limit rows — O(limit) vertex reads, not the type's cardinality.
	res := runRange(t, e, g, c,
		`{"_type": "item", "_orderby": "-score", "_limit": 5, "_select": ["id", "score"]}`)
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	for i, want := range []int64{99, 98, 97, 96, 95} {
		if got := res.Rows[i].Values["score"].AsInt(); got != want {
			t.Errorf("row %d score = %d, want %d", i, got, want)
		}
	}
	if res.Stats.VerticesRead != 5 {
		t.Errorf("VerticesRead = %d, want 5 (ordered scan early termination, type has %d)",
			res.Stats.VerticesRead, rangeItems)
	}

	// Ascending with skip: reads limit+skip, returns the window.
	res = runRange(t, e, g, c,
		`{"_type": "item", "_orderby": "score", "_limit": 3, "_skip": 2, "_select": ["score"]}`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	for i, want := range []int64{2, 3, 4} {
		if got := res.Rows[i].Values["score"].AsInt(); got != want {
			t.Errorf("row %d score = %d, want %d", i, got, want)
		}
	}
	if res.Stats.VerticesRead != 5 {
		t.Errorf("VerticesRead = %d, want 5 (limit+skip)", res.Stats.VerticesRead)
	}
}

func TestOrderedIndexScanResidualPredicates(t *testing.T) {
	e, g, c := newRangeEnv(t)
	// Predicates on other fields filter during the walk; the scan keeps
	// going until limit survivors exist. Here every top item passes, so
	// the walk still stops after a handful of reads.
	res := runRange(t, e, g, c,
		`{"_type": "item", "rating": {"_ge": 0}, "_orderby": "-score", "_limit": 3,
		  "label": {"_prefix": "label.09"}, "_select": ["score"]}`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	for i, want := range []int64{99, 98, 97} {
		if got := res.Rows[i].Values["score"].AsInt(); got != want {
			t.Errorf("row %d score = %d, want %d", i, got, want)
		}
	}
	if res.Stats.VerticesRead >= rangeItems {
		t.Errorf("VerticesRead = %d, want < %d", res.Stats.VerticesRead, rangeItems)
	}

	// A range predicate on the order field bounds the walk itself.
	res = runRange(t, e, g, c,
		`{"_type": "item", "score": {"_lt": 50}, "_orderby": "-score", "_limit": 4, "_select": ["score"]}`)
	if len(res.Rows) != 4 || res.Rows[0].Values["score"].AsInt() != 49 {
		t.Fatalf("bounded ordered scan rows = %+v", res.Rows)
	}
	if res.Stats.VerticesRead != 4 {
		t.Errorf("VerticesRead = %d, want 4 (range-bounded ordered scan)", res.Stats.VerticesRead)
	}
}

func TestOrderedScanMatchesSortFallback(t *testing.T) {
	// The ordered scan and the sort-based path agree row for row (the
	// unindexed twin exercises sort: `bulk` mirrors `score` but has no
	// index).
	e, g, c := newRangeEnv(t)
	indexed := runRange(t, e, g, c,
		`{"_type": "item", "_orderby": "-score", "_limit": 7, "_select": ["id"]}`)
	sorted := runRange(t, e, g, c,
		`{"_type": "item", "_orderby": "-bulk", "_limit": 7, "_select": ["id"]}`)
	if len(indexed.Rows) != 7 || len(sorted.Rows) != 7 {
		t.Fatalf("rows = %d/%d, want 7/7", len(indexed.Rows), len(sorted.Rows))
	}
	for i := range indexed.Rows {
		a := indexed.Rows[i].Values["id"].AsString()
		b := sorted.Rows[i].Values["id"].AsString()
		if a != b {
			t.Errorf("row %d: ordered scan %q != sort path %q", i, a, b)
		}
	}
	if sorted.Stats.VerticesRead != rangeItems {
		t.Errorf("sort path VerticesRead = %d, want %d (full scan)", sorted.Stats.VerticesRead, rangeItems)
	}
	if indexed.Stats.VerticesRead >= sorted.Stats.VerticesRead {
		t.Errorf("ordered scan read %d vertices, sort path %d — no early termination win",
			indexed.Stats.VerticesRead, sorted.Stats.VerticesRead)
	}
}

func TestOrderedScanDescTieParity(t *testing.T) {
	// A descending index walk yields order-key ties address-descending;
	// the sort path breaks ties address-ascending. The ordered scan must
	// collect the boundary tie-run and re-sort so both paths return the
	// same rows in the same order, index or not.
	e, g, c := newRangeEnv(t)
	err := farm.RunTransaction(c, e.store.Farm(), func(tx *farm.Tx) error {
		for i := 0; i < 5; i++ {
			_, err := g.CreateVertex(tx, "item", bond.Struct(
				bond.FV(0, bond.String(fmt.Sprintf("tie.%d", i))),
				bond.FV(1, bond.Int64(200)), // score: 5-way tie at the top
				bond.FV(2, bond.Double(0)),
				bond.FV(3, bond.String(fmt.Sprintf("tie.%d", i))),
				bond.FV(4, bond.Int64(200)), // bulk mirrors score, unindexed
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
	for _, dir := range []string{"-", ""} {
		indexed := runRange(t, e, g, c, fmt.Sprintf(
			`{"_type": "item", "_orderby": "%sscore", "_limit": 3, "_select": ["id"]}`, dir))
		sorted := runRange(t, e, g, c, fmt.Sprintf(
			`{"_type": "item", "_orderby": "%sbulk", "_limit": 3, "_select": ["id"]}`, dir))
		if indexed.Stats.VerticesRead >= sorted.Stats.VerticesRead {
			t.Errorf("dir %q: ordered scan read %d vertices, sort path %d",
				dir, indexed.Stats.VerticesRead, sorted.Stats.VerticesRead)
		}
		for i := range indexed.Rows {
			a := indexed.Rows[i].Values["id"].AsString()
			b := sorted.Rows[i].Values["id"].AsString()
			if a != b {
				t.Errorf("dir %q row %d: ordered scan %q != sort path %q", dir, i, a, b)
			}
		}
	}
}

func TestOrderedScanSkipsKeylessTailUnderOrderFieldPredicate(t *testing.T) {
	// A predicate on the order field excludes keyless vertices outright,
	// so an under-filled walk must not fall back to a full type scan.
	e, g, c := newRangeEnv(t)
	res := runRange(t, e, g, c,
		`{"_type": "item", "score": {"_ge": 95}, "_orderby": "-score", "_limit": 50, "_select": ["id"]}`)
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	if res.Stats.VerticesRead != 5 {
		t.Errorf("VerticesRead = %d, want 5 (no keyless top-up scan)", res.Stats.VerticesRead)
	}
}

func TestOrderedScanKeylessTail(t *testing.T) {
	// Vertices whose order field is unset are absent from the index; they
	// must still appear (after every keyed row) when the limit reaches
	// them.
	e, g, c := newRangeEnv(t)
	err := farm.RunTransaction(c, e.store.Farm(), func(tx *farm.Tx) error {
		for i := 0; i < 3; i++ {
			_, err := g.CreateVertex(tx, "item", bond.Struct(
				bond.FV(0, bond.String(fmt.Sprintf("nokey.%d", i))),
				bond.FV(2, bond.Double(1)),
				bond.FV(3, bond.String("nokey")),
				bond.FV(4, bond.Int64(0)),
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
	res := runRange(t, e, g, c,
		`{"_type": "item", "_orderby": "score", "_skip": 98, "_limit": 5, "_select": ["id"]}`)
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 (2 keyed + 3 keyless)", len(res.Rows))
	}
	ids := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		ids[i] = r.Values["id"].AsString()
	}
	if ids[0] != "item.098" || ids[1] != "item.099" {
		t.Errorf("keyed prefix = %v", ids[:2])
	}
	for _, id := range ids[2:] {
		if !strings.HasPrefix(id, "nokey.") {
			t.Errorf("keyless tail contains %q", id)
		}
	}
	// The walk read every keyed item; the top-up reads only the vertices
	// it did not see — the three keyless ones — not the whole type again.
	if res.Stats.VerticesRead != rangeItems+3 {
		t.Errorf("VerticesRead = %d, want %d (index hits + keyless top-up)", res.Stats.VerticesRead, rangeItems+3)
	}
}

func TestMultiKeyOrderBy(t *testing.T) {
	// Multi-key `_orderby` parses as a key list and falls back to the
	// sort path (no single-key ordered index scan applies).
	e, g, c := newRangeEnv(t)
	q, err := Parse([]byte(`{"_type": "item", "_orderby": ["label", "-score"], "_limit": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Root.Orders) != 2 || q.Root.Orders[0].Desc || !q.Root.Orders[1].Desc {
		t.Fatalf("orders = %+v", q.Root.Orders)
	}
	// All labels are distinct, so the first key decides; the query must
	// still execute through the generic sort (no single-key index path).
	res := runRange(t, e, g, c,
		`{"_type": "item", "_orderby": [{"field": "rating", "dir": "desc"}, "score"], "_limit": 4, "_select": ["score"]}`)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	for i, want := range []int64{99, 98, 97, 96} {
		if got := res.Rows[i].Values["score"].AsInt(); got != want {
			t.Errorf("row %d score = %d, want %d", i, got, want)
		}
	}

	// Malformed multi-key forms are rejected (tie-breaking across keys is
	// exercised by TestMultiKeyOrderByTieBreaking).
	bad := []string{
		`{"_type": "item", "_orderby": []}`,
		`{"_type": "item", "_orderby": [3]}`,
		`{"_type": "item", "_orderby": [["score"]]}`,
	}
	for _, doc := range bad {
		if _, err := Parse([]byte(doc)); err == nil {
			t.Errorf("Parse(%s) succeeded, want error", doc)
		}
	}
}

func TestMultiKeyOrderByTieBreaking(t *testing.T) {
	// A dedicated environment with deliberate ties on the first key.
	e, g, c := newGroupEnv(t)
	res, err := e.Execute(c, g, []byte(
		`{"_type": "reading", "_orderby": ["sensor", "-value"], "_select": ["sensor", "value"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != groupReadings {
		t.Fatalf("rows = %d, want %d", len(res.Rows), groupReadings)
	}
	prevSensor := ""
	prevValue := int64(0)
	for i, r := range res.Rows {
		sensor := r.Values["sensor"].AsString()
		value := r.Values["value"].AsInt()
		if sensor < prevSensor {
			t.Fatalf("row %d: sensor %q after %q", i, sensor, prevSensor)
		}
		if sensor == prevSensor && value > prevValue {
			t.Fatalf("row %d: value %d after %d within sensor %q", i, value, prevValue, sensor)
		}
		prevSensor, prevValue = sensor, value
	}
}

// Grouped aggregates: a small multi-machine environment with a known group
// structure — sensors × readings.

const groupReadings = 60

var readingSchema = bond.MustSchema("reading",
	bond.FReq(0, "id", bond.TString),
	bond.F(1, "sensor", bond.TString),
	bond.F(2, "value", bond.TInt64),
)

func newGroupEnv(t *testing.T) (*Engine, *core.Graph, *fabric.Ctx) {
	t.Helper()
	fab := fabric.New(fabric.DefaultConfig(8, fabric.Direct), nil)
	f := farm.Open(fab, farm.Config{RegionSize: 16 << 20})
	c := fab.NewCtx(0, nil)
	s, err := core.Open(c, f, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTenant(c, "t"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateGraph(c, "t", "g"); err != nil {
		t.Fatal(err)
	}
	g, err := s.OpenGraph(c, "t", "g")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CreateVertexType(c, "reading", readingSchema, "id"); err != nil {
		t.Fatal(err)
	}
	err = farm.RunTransaction(c, f, func(tx *farm.Tx) error {
		for i := 0; i < groupReadings; i++ {
			_, err := g.CreateVertex(tx, "reading", bond.Struct(
				bond.FV(0, bond.String(fmt.Sprintf("r.%03d", i))),
				bond.FV(1, bond.String(fmt.Sprintf("sensor.%d", i%4))),
				bond.FV(2, bond.Int64(int64(i))),
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
	return NewEngine(s, DefaultConfig()), g, c
}

func TestGroupByAggregates(t *testing.T) {
	e, g, c := newGroupEnv(t)
	res, err := e.Execute(c, g, []byte(
		`{"_type": "reading", "_groupby": "sensor",
		  "_select": ["_count(*)", "_sum(value)", "_min(value)", "_max(value)", "_avg(value)"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("grouped query returned %d rows, want 0", len(res.Rows))
	}
	if len(res.Groups) != 4 {
		t.Fatalf("groups = %d, want 4", len(res.Groups))
	}
	// Groups come back sorted by key.
	for i, gr := range res.Groups {
		wantKey := fmt.Sprintf("sensor.%d", i)
		if got := gr.Keys["sensor"].AsString(); got != wantKey {
			t.Errorf("group %d key = %q, want %q", i, got, wantKey)
		}
		// sensor.k holds values k, k+4, ..., k+56: count 15.
		if got := gr.Aggregates["_count(*)"].AsInt(); got != 15 {
			t.Errorf("group %d count = %d, want 15", i, got)
		}
		wantSum := int64(0)
		for v := i; v < groupReadings; v += 4 {
			wantSum += int64(v)
		}
		if got := gr.Aggregates["_sum(value)"].AsInt(); got != wantSum {
			t.Errorf("group %d sum = %d, want %d", i, got, wantSum)
		}
		if got := gr.Aggregates["_min(value)"].AsInt(); got != int64(i) {
			t.Errorf("group %d min = %d, want %d", i, got, i)
		}
		if got := gr.Aggregates["_max(value)"].AsInt(); got != int64(56+i) {
			t.Errorf("group %d max = %d, want %d", i, got, 56+i)
		}
		wantAvg := float64(wantSum) / 15
		if got := gr.Aggregates["_avg(value)"].AsFloat(); got != wantAvg {
			t.Errorf("group %d avg = %v, want %v", i, got, wantAvg)
		}
	}
	// Grouped pushdown ships partial states, never rows.
	if res.Stats.RowsShipped != 0 {
		t.Errorf("RowsShipped = %d, want 0 (group partials only)", res.Stats.RowsShipped)
	}
}

func TestGroupByShipsPartialsNotRows(t *testing.T) {
	// The row-shipping twin of the same grouping moves every row across
	// the fabric; `_groupby` moves only per-group partial states.
	e, g, c := newGroupEnv(t)
	grouped, err := e.Execute(c, g, []byte(
		`{"_type": "reading", "_groupby": "sensor", "_select": ["_count(*)", "_avg(value)"]}`))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := e.Execute(c, g, []byte(
		`{"_type": "reading", "_select": ["sensor", "value"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if rows.Stats.RowsShipped == 0 {
		t.Skip("dataset too local: no batches shipped") // paranoia; 8 machines always ship some
	}
	if grouped.Stats.RowsShipped != 0 {
		t.Errorf("grouped RowsShipped = %d, want 0", grouped.Stats.RowsShipped)
	}
	if grouped.Stats.BytesShipped >= rows.Stats.BytesShipped {
		t.Errorf("grouped BytesShipped = %d, want < row-shipping %d",
			grouped.Stats.BytesShipped, rows.Stats.BytesShipped)
	}
	// Grouping the shipped rows client-side finds the same groups.
	sensors := map[string]bool{}
	for _, r := range rows.Rows {
		sensors[r.Values["sensor"].AsString()] = true
	}
	if len(sensors) != len(grouped.Groups) || len(sensors) <= 1 {
		t.Errorf("row twin holds %d sensors, grouped query %d groups", len(sensors), len(grouped.Groups))
	}
}

func TestGroupByLimitSkipAndPaging(t *testing.T) {
	e, g, c := newGroupEnv(t)
	// _skip/_limit shape the sorted group list.
	res, err := e.Execute(c, g, []byte(
		`{"_type": "reading", "_groupby": "sensor", "_select": ["_count(*)"], "_skip": 1, "_limit": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 2 || res.Groups[0].Keys["sensor"].AsString() != "sensor.1" {
		t.Fatalf("shaped groups = %+v", res.Groups)
	}
	// Overflowing group lists page through continuation tokens.
	res, err = e.Execute(c, g, []byte(
		`{"_type": "reading", "_groupby": "sensor", "_select": ["_count(*)"],
		  "_hints": {"page_size": 3}}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 3 || res.Continuation == "" {
		t.Fatalf("page 1: %d groups, cont=%q", len(res.Groups), res.Continuation)
	}
	page2, err := e.Fetch(c, res.Continuation)
	if err != nil {
		t.Fatal(err)
	}
	if len(page2.Groups) != 1 || page2.Continuation != "" {
		t.Fatalf("page 2: %d groups, cont=%q", len(page2.Groups), page2.Continuation)
	}
	if got := page2.Groups[0].Keys["sensor"].AsString(); got != "sensor.3" {
		t.Errorf("page 2 group = %q, want sensor.3", got)
	}
}

func TestGroupByMultiKeyAndMissing(t *testing.T) {
	e, g, c := newGroupEnv(t)
	// Two-key grouping: (sensor, value%2 via a map-free predicate is not
	// expressible, so group on sensor + value) — every (sensor, value)
	// pair is unique, so groups == readings.
	res, err := e.Execute(c, g, []byte(
		`{"_type": "reading", "_groupby": ["sensor", "value"], "_select": ["_count(*)"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != groupReadings {
		t.Fatalf("two-key groups = %d, want %d", len(res.Groups), groupReadings)
	}
	for _, gr := range res.Groups {
		if gr.Aggregates["_count(*)"].AsInt() != 1 {
			t.Fatalf("two-key group count = %v", gr.Aggregates["_count(*)"])
		}
	}
	// A vertex missing the group field lands in the Null group.
	err = farm.RunTransaction(c, e.store.Farm(), func(tx *farm.Tx) error {
		_, err := g.CreateVertex(tx, "reading", bond.Struct(
			bond.FV(0, bond.String("r.nosensor")),
			bond.FV(2, bond.Int64(1000)),
		))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err = e.Execute(c, g, []byte(
		`{"_type": "reading", "_groupby": "sensor", "_select": ["_count(*)"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 5 {
		t.Fatalf("groups = %d, want 4 sensors + null", len(res.Groups))
	}
	nullFirst := res.Groups[0]
	if !nullFirst.Keys["sensor"].IsNull() || nullFirst.Aggregates["_count(*)"].AsInt() != 1 {
		t.Errorf("null group = %+v", nullFirst)
	}
}

func TestGroupByValidation(t *testing.T) {
	bad := []string{
		`{"_type": "r", "_groupby": "sensor"}`,                                                                  // no aggregates
		`{"_type": "r", "_groupby": "sensor", "_select": ["id", "_count(*)"]}`,                                  // plain select
		`{"_type": "r", "_groupby": "sensor", "_select": ["_count(*)"], "_orderby": "sensor"}`,                  // orderby
		`{"_type": "r", "_groupby": [], "_select": ["_count(*)"]}`,                                              // empty list
		`{"_type": "r", "_groupby": "*", "_select": ["_count(*)"]}`,                                             // wildcard
		`{"_type": "r", "_groupby": [3], "_select": ["_count(*)"]}`,                                             // non-string
		`{"_type": "r", "_out_edge": {"_type": "x", "_vertex": {}}, "_groupby": "s", "_select": ["_count(*)"]}`, // non-terminal
	}
	for _, doc := range bad {
		if _, err := Parse([]byte(doc)); err == nil {
			t.Errorf("Parse(%s) succeeded, want error", doc)
		}
	}
	// Valid forms parse.
	q, err := Parse([]byte(`{"_type": "r", "_groupby": ["a", "b[k]"], "_select": ["_count(*)", "_sum(v)"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Root.GroupBy) != 2 || !q.Root.GroupBy[1].IsMap {
		t.Errorf("groupby paths = %+v", q.Root.GroupBy)
	}
}

func TestTraversalIndexFilter(t *testing.T) {
	// A traversal level with an indexed predicate filters the frontier by
	// index membership instead of reading every neighbor: a hub links to
	// every item, the level keeps score ∈ [10, 20).
	e, g, c := newRangeEnv(t)
	if err := g.CreateEdgeType(c, "link", nil); err != nil {
		t.Fatal(err)
	}
	err := farm.RunTransaction(c, e.store.Farm(), func(tx *farm.Tx) error {
		hub, err := g.CreateVertex(tx, "item", bond.Struct(
			bond.FV(0, bond.String("hub")),
			bond.FV(1, bond.Int64(-1)),
			bond.FV(2, bond.Double(-1)),
			bond.FV(3, bond.String("hub")),
			bond.FV(4, bond.Int64(-1)),
		))
		if err != nil {
			return err
		}
		var innerErr error
		err = g.ScanVerticesByType(tx, "item", func(pk bond.Value, vp core.VertexPtr) bool {
			if pk.AsString() == "hub" {
				return true
			}
			if err := g.CreateEdge(tx, hub, "link", vp, bond.Null); err != nil {
				innerErr = err
				return false
			}
			return true
		})
		if err == nil {
			err = innerErr
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	res := runRange(t, e, g, c,
		`{"id": "hub", "_out_edge": {"_type": "link",
		   "_vertex": {"_type": "item", "score": {"_ge": 10, "_lt": 20}, "_select": ["id"]}}}`)
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(res.Rows))
	}
	if res.Stats.IndexFiltered == 0 {
		t.Error("IndexFiltered = 0, want > 0 (membership filter applied)")
	}
	// Vertex reads: the hub (frontier level 0) + the 10 members. Allow the
	// boundary slack of index over-approximation but never the full
	// neighborhood.
	if res.Stats.VerticesRead > 15 {
		t.Errorf("VerticesRead = %d, want ~11 (frontier filtered through the index, not read)",
			res.Stats.VerticesRead)
	}
	// Equality membership filtering too.
	res = runRange(t, e, g, c,
		`{"id": "hub", "_out_edge": {"_type": "link",
		   "_vertex": {"_type": "item", "label": "label.042", "_select": ["id"]}}}`)
	if len(res.Rows) != 1 || res.Stats.IndexFiltered == 0 {
		t.Errorf("eq filter: rows = %d, IndexFiltered = %d", len(res.Rows), res.Stats.IndexFiltered)
	}
	// An unindexed predicate still works — every neighbor is read.
	res = runRange(t, e, g, c,
		`{"id": "hub", "_out_edge": {"_type": "link",
		   "_vertex": {"_type": "item", "bulk": {"_ge": 10, "_lt": 20}, "_select": ["id"]}}}`)
	if len(res.Rows) != 10 {
		t.Fatalf("unindexed rows = %d, want 10", len(res.Rows))
	}
	if res.Stats.IndexFiltered != 0 {
		t.Errorf("unindexed IndexFiltered = %d, want 0", res.Stats.IndexFiltered)
	}
}

func TestExplainOperatorTree(t *testing.T) {
	e, g, c := newRangeEnv(t)
	cases := []struct {
		doc  string
		want []string
	}{
		{`{"_type": "item", "_orderby": "-score", "_limit": 5}`,
			[]string{"OrderedIndexScan(item.score desc, stop after 5)", "Shape(orderby -score; limit 5)", "Read(fields{score})"}},
		{`{"_type": "item", "score": 3}`,
			[]string{"IndexScan(item.score = 3)", "Read(fields{score})"}},
		{`{"_type": "item", "bulk": 3}`,
			[]string{"TypeScan(item)", "Filter(_type=item, bulk = 3)"}},
		{`{"_type": "item", "score": {"_ge": 1}, "_select": ["id"]}`,
			[]string{"IndexRangeScan(item.score)", "Read(fields{id, score})"}},
		// The root's access path proves its `_type`: nothing left to read.
		{`{"_type": "item", "_limit": 2}`,
			[]string{"TypeScan(item, capped)", "Read(none)"}},
		{`{"id": "hub", "_out_edge": {"_type": "link",
		    "_vertex": {"_type": "item", "score": {"_ge": 10, "_lt": 20},
		      "_groupby": "label", "_select": ["_count(*)"]}}}`,
			[]string{`IDLookup(id="hub")`, "Traverse(out link)", "IndexFilter(item.score range)",
				"GroupAgg(by label: _count(*))", "L0 IDLookup(id=\"hub\") est=1\n  Read(none)", "Read(fields{label, score})"}},
		// Away from the root `_type` costs the header; `_count(*)` nothing.
		{`{"id": "hub", "_out_edge": {"_type": "link",
		    "_vertex": {"_type": "item", "_out_edge": {"_type": "link",
		      "_vertex": {"_select": ["_count(*)"]}}}}}`,
			[]string{"Read(header)\n    Traverse(out link)", "Read(none)\n      Aggregate(_count(*))"}},
		{`{"id": "hub", "_out_edge": {"_type": "link", "_vertex": {"_select": ["*"]}}}`,
			[]string{"Read(fields{*})"}},
	}
	for _, tc := range cases {
		got, err := e.Explain(c, g, []byte(tc.doc))
		if err != nil {
			t.Fatalf("%s: %v", tc.doc, err)
		}
		for _, want := range tc.want {
			if !strings.Contains(got, want) {
				t.Errorf("Explain(%s) missing %q:\n%s", tc.doc, want, got)
			}
		}
	}
	// Unbound parameters print as placeholders.
	got, err := e.Explain(c, g, []byte(`{"id": "$who", "_select": ["id"], "_limit": "$k"}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`IDLookup(id="$who")`, "limit $k"} {
		if !strings.Contains(got, want) {
			t.Errorf("param Explain missing %q:\n%s", want, got)
		}
	}
}
