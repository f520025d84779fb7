package query

import (
	"encoding/base64"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/fabric"
	"a1/internal/farm"
)

// Result shaping: _limit / _skip / _orderby / aggregates, and their
// distributed pushdown (partial aggregates shipped as scalars, top-K
// pruning, unordered-limit short-circuit).

func TestParseResultShaping(t *testing.T) {
	q, err := Parse([]byte(`{"_type": "entity", "_select": ["id", "_count(*)", "_sum(popularity)"],
		"_orderby": "-popularity", "_limit": 5, "_skip": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	vp := q.Root
	if vp.Limit != 5 || vp.Skip != 2 {
		t.Errorf("limit/skip = %d/%d", vp.Limit, vp.Skip)
	}
	if len(vp.Orders) != 1 || !vp.Orders[0].Desc || vp.Orders[0].Path.Field != "popularity" {
		t.Errorf("order = %+v", vp.Orders)
	}
	if len(vp.Aggs) != 2 || vp.Aggs[0].Kind != AggCount || vp.Aggs[1].Kind != AggSum {
		t.Errorf("aggs = %+v", vp.Aggs)
	}
	if !vp.Count {
		t.Error("Count not set by _count(*)")
	}
	if len(vp.Selects) != 1 || vp.Selects[0].Field != "id" {
		t.Errorf("selects = %+v", vp.Selects)
	}

	// Object-form orderby, ascending default.
	q, err = Parse([]byte(`{"_type": "entity", "_orderby": {"field": "name[0]", "dir": "asc"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Root.Orders) != 1 || q.Root.Orders[0].Desc || !q.Root.Orders[0].Path.IsList {
		t.Errorf("object orderby = %+v", q.Root.Orders)
	}

	bad := []string{
		`{"_type": "e", "_limit": 0}`,                                                         // limit must be >= 1
		`{"_type": "e", "_limit": "five"}`,                                                    // limit must be a number
		`{"_type": "e", "_skip": -1}`,                                                         // negative skip
		`{"_type": "e", "_orderby": 3}`,                                                       // orderby wrong type
		`{"_type": "e", "_orderby": {"dir": "desc"}}`,                                         // orderby without field
		`{"_type": "e", "_orderby": {"field": "f", "dir": "sideways"}}`,                       // bad dir
		`{"_type": "e", "_select": ["_median(x)"]}`,                                           // unknown aggregate
		`{"_type": "e", "_select": ["_sum(*)"]}`,                                              // sum needs a field
		`{"_type": "e", "_select": ["_count(x)"]}`,                                            // count takes (*)
		`{"_type": "e", "_limit": 3, "_out_edge": {"_type": "x", "_vertex": {}}}`,             // shaping on non-terminal
		`{"_type": "e", "_match": [{"_out_edge": {"_type": "x", "_vertex": {"_limit": 1}}}]}`, // shaping in match
	}
	for _, doc := range bad {
		if _, err := Parse([]byte(doc)); err == nil {
			t.Errorf("Parse(%s) succeeded, want error", doc)
		}
	}

	// _limit/_skip are bounded so Limit+Skip can never overflow.
	huge := `{"_type": "e", "_limit": 9223372036854775807}`
	if _, err := Parse([]byte(huge)); err == nil {
		t.Error("huge _limit accepted")
	}
	// A chained edge without _vertex normalizes to an empty terminal
	// pattern instead of leaving a nil level.
	q, err = Parse([]byte(`{"_type": "e", "_out_edge": {"_type": "x"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if q.Root.Edge.Vertex == nil {
		t.Fatal("edge without _vertex left nil")
	}
}

func TestEdgeWithoutVertexExecutes(t *testing.T) {
	// Regression: `{"id": ..., "_out_edge": {"_type": ...}}` used to panic
	// in terminalOf; it now returns the unconstrained endpoints.
	env := newTestEnv(t, 9)
	res, err := env.engine.Execute(env.c, env.graph, []byte(
		`{"id": "steven.spielberg", "_out_edge": {"_type": "director.film"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != env.kg.P.SpielbergFilms {
		t.Errorf("rows = %d, want %d films", len(res.Rows), env.kg.P.SpielbergFilms)
	}
}

// scanEntities reads every entity of the given kind directly, the oracle
// for shaping tests.
func scanEntities(t *testing.T, env *testEnv, kind string) (ids []string, pops []float64) {
	t.Helper()
	tx := env.store.Farm().CreateReadTransaction(env.c)
	err := env.graph.ScanVerticesByType(tx, "entity", func(_ bond.Value, vp core.VertexPtr) bool {
		v, err := env.graph.ReadVertex(tx, vp)
		if err != nil {
			t.Fatal(err)
		}
		if kind != "" {
			attrs, _ := v.Data.Field(3)
			k, _ := attrs.MapGet(bond.String("kind"))
			if k.AsString() != kind {
				return true
			}
		}
		idv, _ := v.Data.Field(0)
		pv, _ := v.Data.Field(2)
		ids = append(ids, idv.AsString())
		pops = append(pops, pv.AsFloat())
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return ids, pops
}

func TestOrderByLimitTopK(t *testing.T) {
	env := newTestEnv(t, 9)
	doc := []byte(`{"_type": "entity", "str_str_map[kind]": "actor",
		"_select": ["id", "popularity"], "_orderby": "-popularity", "_limit": 5}`)
	res, err := env.engine.Execute(env.c, env.graph, doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	// The oracle: all actors sorted by popularity descending.
	ids, pops := scanEntities(t, env, "actor")
	idx := make([]int, len(ids))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return pops[idx[a]] > pops[idx[b]] })
	for i, row := range res.Rows {
		want := ids[idx[i]]
		if got := row.Values["id"].AsString(); got != want {
			t.Errorf("row %d = %s, oracle %s", i, got, want)
		}
		if i > 0 {
			prev := res.Rows[i-1].Values["popularity"].AsFloat()
			if row.Values["popularity"].AsFloat() > prev {
				t.Errorf("row %d out of order", i)
			}
		}
	}
}

func TestOrderByAscendingAndSkip(t *testing.T) {
	env := newTestEnv(t, 9)
	full, err := env.engine.Execute(env.c, env.graph, []byte(
		`{"_type": "entity", "str_str_map[kind]": "actor", "_select": ["id"], "_orderby": "id"}`))
	if err != nil {
		t.Fatal(err)
	}
	skipped, err := env.engine.Execute(env.c, env.graph, []byte(
		`{"_type": "entity", "str_str_map[kind]": "actor", "_select": ["id"], "_orderby": "id", "_skip": 3, "_limit": 4}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(skipped.Rows))
	}
	for i, row := range skipped.Rows {
		want := full.Rows[i+3].Values["id"].AsString()
		if got := row.Values["id"].AsString(); got != want {
			t.Errorf("skip row %d = %s, want %s", i, got, want)
		}
	}
	// Skip past the end yields no rows.
	empty, err := env.engine.Execute(env.c, env.graph, []byte(
		`{"_type": "entity", "str_str_map[kind]": "genre", "_select": ["id"], "_skip": 100}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Rows) != 0 {
		t.Errorf("skip past end rows = %d", len(empty.Rows))
	}
}

func TestUnorderedLimitReadsFewerVertices(t *testing.T) {
	env := newTestEnv(t, 9)
	unbounded, err := env.engine.Execute(env.c, env.graph, []byte(`{"_type": "entity", "_select": ["id"]}`))
	if err != nil {
		t.Fatal(err)
	}
	limited, err := env.engine.Execute(env.c, env.graph, []byte(`{"_type": "entity", "_select": ["id"], "_limit": 5}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(limited.Rows) != 5 {
		t.Fatalf("limited rows = %d, want 5", len(limited.Rows))
	}
	// An unfiltered unordered limit caps the root scan itself: exactly K
	// vertices are read instead of the whole type.
	if limited.Stats.VerticesRead != 5 {
		t.Errorf("limited VerticesRead = %d, want 5", limited.Stats.VerticesRead)
	}
	if limited.Stats.VerticesRead >= unbounded.Stats.VerticesRead {
		t.Errorf("limit read %d vertices, unbounded twin %d — no pushdown win",
			limited.Stats.VerticesRead, unbounded.Stats.VerticesRead)
	}

	// With a predicate the scan cannot be capped up front; the shared row
	// counter still short-circuits batch execution early.
	filtered, err := env.engine.Execute(env.c, env.graph, []byte(
		`{"_type": "entity", "str_str_map[kind]": "actor", "_select": ["id"], "_limit": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(filtered.Rows) != 3 {
		t.Fatalf("filtered rows = %d, want 3", len(filtered.Rows))
	}
	if filtered.Stats.VerticesRead >= unbounded.Stats.VerticesRead/2 {
		t.Errorf("filtered limit read %d vertices, unbounded twin %d — short-circuit ineffective",
			filtered.Stats.VerticesRead, unbounded.Stats.VerticesRead)
	}
}

func TestCountWithoutRowMaterialization(t *testing.T) {
	env := newTestEnv(t, 9)
	res, err := env.engine.Execute(env.c, env.graph, []byte(q1))
	if err != nil {
		t.Fatal(err)
	}
	want := oracleQ1(t, env)
	if !res.HasCount || res.Count != int64(want) {
		t.Fatalf("count = %d (has=%v), oracle %d", res.Count, res.HasCount, want)
	}
	if res.Rows != nil {
		t.Errorf("count query materialized %d rows", len(res.Rows))
	}
	cnt, ok := res.Aggregates["_count(*)"]
	if !ok || cnt.AsInt() != int64(want) {
		t.Errorf("Aggregates[_count(*)] = %v (ok=%v)", cnt, ok)
	}
}

func TestAggregates(t *testing.T) {
	env := newTestEnv(t, 9)
	res, err := env.engine.Execute(env.c, env.graph, []byte(
		`{"_type": "entity", "str_str_map[kind]": "actor",
		  "_select": ["_count(*)", "_sum(popularity)", "_avg(popularity)", "_min(popularity)", "_max(popularity)", "_min(id)", "_max(id)"]}`))
	if err != nil {
		t.Fatal(err)
	}
	ids, pops := scanEntities(t, env, "actor")
	var sum float64
	minP, maxP := math.Inf(1), math.Inf(-1)
	for _, p := range pops {
		sum += p
		minP = math.Min(minP, p)
		maxP = math.Max(maxP, p)
	}
	sort.Strings(ids)
	a := res.Aggregates
	if got := a["_count(*)"].AsInt(); got != int64(len(ids)) {
		t.Errorf("count = %d, oracle %d", got, len(ids))
	}
	approx := func(name string, got, want float64) {
		if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Errorf("%s = %v, oracle %v", name, got, want)
		}
	}
	approx("sum", a["_sum(popularity)"].AsFloat(), sum)
	approx("avg", a["_avg(popularity)"].AsFloat(), sum/float64(len(ids)))
	approx("min", a["_min(popularity)"].AsFloat(), minP)
	approx("max", a["_max(popularity)"].AsFloat(), maxP)
	if got := a["_min(id)"].AsString(); got != ids[0] {
		t.Errorf("min id = %s, oracle %s", got, ids[0])
	}
	if got := a["_max(id)"].AsString(); got != ids[len(ids)-1] {
		t.Errorf("max id = %s, oracle %s", got, ids[len(ids)-1])
	}
	if res.Rows != nil {
		t.Errorf("aggregate-only query materialized rows")
	}
	// Aggregates over an empty result set.
	empty, err := env.engine.Execute(env.c, env.graph, []byte(
		`{"_type": "entity", "str_str_map[kind]": "no.such.kind", "_select": ["_count(*)", "_sum(popularity)", "_min(popularity)", "_avg(popularity)"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if empty.Count != 0 || empty.Aggregates["_sum(popularity)"].AsInt() != 0 {
		t.Errorf("empty aggregates = %+v", empty.Aggregates)
	}
	if !empty.Aggregates["_min(popularity)"].IsNull() || !empty.Aggregates["_avg(popularity)"].IsNull() {
		t.Errorf("empty min/avg should be null: %+v", empty.Aggregates)
	}
}

// TestSortRowsOneOrder: sortRows gives one order however its input is
// shuffled, for float keys holding NaN, ±0.0 and ±Inf and for keys of
// mixed kinds (a terminal without `_type` over types that share a field
// name): bond.Compare is total, and ties break on the vertex address.
func TestSortRowsOneOrder(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		keys []bond.Value
	}{
		{"floats", []bond.Value{bond.Double(math.Inf(-1)), bond.Double(-1), bond.Double(math.Copysign(0, -1)),
			bond.Double(0), bond.Double(1), bond.Double(math.Inf(1)), bond.Double(nan), bond.Double(-nan)}},
		{"mixed", []bond.Value{bond.Bool(false), bond.Bool(true), bond.Int64(-1), bond.Double(2.5), bond.Int64(3),
			bond.String("a"), bond.String("b")}},
	} {
		for _, desc := range []bool{false, true} {
			orders := []OrderBy{{Desc: desc}}
			var rows []Row
			for copies := 0; copies < 4; copies++ { // past insertion sort's 12 rows
				for _, k := range tc.keys {
					rows = append(rows, Row{Vertex: core.VertexPtr{Addr: farm.Addr(len(rows) + 1)}, keys: []sortKey{{val: k, ok: true}}})
				}
			}
			r := rand.New(rand.NewSource(1))
			var want []farm.Addr
			for shuffle := 0; shuffle < 20; shuffle++ {
				r.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
				sortRows(rows, orders)
				var got []farm.Addr
				for _, row := range rows {
					got = append(got, row.Vertex.Addr)
				}
				if want == nil {
					want = got
					for i := 1; i < len(rows); i++ {
						a, b := &rows[i-1], &rows[i]
						c, _ := bond.Compare(a.keys[0].val, b.keys[0].val)
						if desc {
							c = -c
						}
						if c > 0 || c == 0 && a.Vertex.Addr > b.Vertex.Addr {
							t.Errorf("%s desc=%v: %v (addr %d) sorts before %v (addr %d)", tc.name, desc,
								a.keys[0].val, a.Vertex.Addr, b.keys[0].val, b.Vertex.Addr)
						}
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s desc=%v: shuffle %d sorts %v, shuffle 0 %v", tc.name, desc, shuffle, got, want)
				}
			}
		}
	}
}

// TestGroupKeyWithinKind: values bond.Compare calls equal share a group
// key within a kind (−0.0 and 0.0, two NaN payloads); equal values of
// different kinds group apart, as README documents.
func TestGroupKeyWithinKind(t *testing.T) {
	key := func(v bond.Value) string { return string(appendGroupKey(nil, v)) }
	for _, pair := range [][2]bond.Value{
		{bond.Double(math.Copysign(0, -1)), bond.Double(0)},
		{bond.Double(math.NaN()), bond.Double(math.Float64frombits(0xFFF8000000000001))},
	} {
		if key(pair[0]) != key(pair[1]) {
			t.Errorf("%v and %v: different group keys", pair[0], pair[1])
		}
	}
	if key(bond.Int64(3)) == key(bond.Double(3)) || key(bond.Int32(3)) == key(bond.Int64(3)) {
		t.Error("equal values of different kinds share a group key")
	}
}

// TestMinMaxOneAnswer: _min/_max over {NaN, 1, −1} give one answer in
// every input order and every split into merged partials: −1 and NaN,
// which sorts above every number.
func TestMinMaxOneAnswer(t *testing.T) {
	vals := []bond.Value{bond.Double(math.NaN()), bond.Int64(1), bond.Int64(-1)}
	aggs := []Aggregate{{Kind: AggMin, Path: FieldPath{Wildcard: true}}, {Kind: AggMax, Path: FieldPath{Wildcard: true}}}
	for _, perm := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		for split := 0; split <= len(perm); split++ {
			parts := [2][]aggState{make([]aggState, 2), make([]aggState, 2)}
			for i, vi := range perm {
				part := parts[0]
				if i >= split {
					part = parts[1]
				}
				for a := range aggs {
					accumAgg(&part[a], aggs[a], vals[vi], nil)
				}
			}
			mergeAggStates(parts[0], parts[1], aggs)
			lo, hi := finalAggValue(&parts[0][0], aggs[0]), finalAggValue(&parts[0][1], aggs[1])
			if !lo.Equal(bond.Int64(-1)) || !math.IsNaN(hi.AsFloat()) {
				t.Errorf("order %v split %d: _min %v, _max %v; want -1, NaN", perm, split, lo, hi)
			}
		}
	}
}

// TestSumIntegerOverflow: an integer _sum is Int64 when its exact total
// fits in int64 and the float sum when it does not, or when a double
// contributes, whatever order the values arrive and merge in.
func TestSumIntegerOverflow(t *testing.T) {
	sum := func(parts ...[]bond.Value) bond.Value {
		agg := []Aggregate{{Kind: AggSum, Path: FieldPath{Wildcard: true}}}
		total := make([]aggState, 1)
		for _, part := range parts {
			st := make([]aggState, 1)
			for _, v := range part {
				accumAgg(&st[0], agg[0], v, nil)
			}
			mergeAggStates(total, st, agg)
		}
		return finalAggValue(&total[0], agg[0])
	}
	for _, tc := range []struct {
		name  string
		parts [][]bond.Value
		want  bond.Value
	}{
		{"uint64 2^63", [][]bond.Value{{bond.UInt64(1 << 63)}}, bond.Double(1 << 63)},
		{"MaxInt64+1", [][]bond.Value{{bond.Int64(math.MaxInt64), bond.Int64(1)}}, bond.Double(1 << 63)},
		{"MinInt64-1", [][]bond.Value{{bond.Int64(math.MinInt64), bond.Int32(-1)}}, bond.Double(-(1 << 63))},
		{"merged MaxInt64+1", [][]bond.Value{{bond.Int64(math.MaxInt64)}, {bond.UInt64(1)}}, bond.Double(1 << 63)},
		{"exact", [][]bond.Value{{bond.Int64(math.MaxInt64), bond.Int64(-2)}, {bond.UInt64(1)}}, bond.Int64(math.MaxInt64 - 1)},
		{"double", [][]bond.Value{{bond.Int64(3), bond.Double(0.5)}}, bond.Double(3.5)},
	} {
		if got := sum(tc.parts...); !got.Equal(tc.want) {
			t.Errorf("%s: _sum = %v %v, want %v %v", tc.name, got.Kind(), got, tc.want.Kind(), tc.want)
		}
	}
	// Partial sums that leave int64 and come back: every order, in one
	// batch and one value per batch, gives the exact total.
	for _, tc := range []struct {
		vals []bond.Value
		want bond.Value
	}{
		{[]bond.Value{bond.Int64(math.MaxInt64), bond.Int64(1), bond.Int64(-1)}, bond.Int64(math.MaxInt64)},
		{[]bond.Value{bond.Int64(math.MinInt64), bond.Int64(-1), bond.Int64(1)}, bond.Int64(math.MinInt64)},
		{[]bond.Value{bond.UInt64(1<<63 + 5), bond.Int64(-7), bond.Int64(math.MinInt64)}, bond.Int64(-2)},
		{[]bond.Value{bond.UInt64(math.MaxUint64), bond.UInt64(math.MaxUint64), bond.Int64(math.MinInt64)}, bond.Double(3 << 63)},
	} {
		for _, perm := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
			vals := []bond.Value{tc.vals[perm[0]], tc.vals[perm[1]], tc.vals[perm[2]]}
			one := sum(vals)
			each := sum(vals[:1], vals[1:2], vals[2:])
			for _, got := range []bond.Value{one, each} {
				if !got.Equal(tc.want) {
					t.Errorf("_sum%v = %v %v, want %v %v", vals, got.Kind(), got, tc.want.Kind(), tc.want)
				}
			}
		}
	}
}

func TestAggregatesOverTraversal(t *testing.T) {
	// Q1 reshaped: sum/avg of popularity across Spielberg's collaborating
	// actors — a 3-level traversal ending in aggregates, exercising merge
	// across per-machine partials.
	env := newTestEnv(t, 9)
	doc := []byte(`{ "id" : "steven.spielberg",
	  "_out_edge" : { "_type" : "director.film",
	    "_vertex" : {
	      "_out_edge" : { "_type" : "film.actor",
	        "_vertex" : { "_select" : ["_count(*)", "_avg(popularity)"] }}}}}`)
	res, err := env.engine.Execute(env.c, env.graph, doc)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleQ1(t, env)
	if res.Count != int64(want) {
		t.Errorf("count = %d, oracle %d", res.Count, want)
	}
	avg := res.Aggregates["_avg(popularity)"].AsFloat()
	if avg <= 0 || avg >= 100 {
		t.Errorf("avg popularity = %v out of the generator's (0,100) range", avg)
	}
}

// shipEnv builds an engine that ships every remote batch, so pushdown is
// visible in the RowsShipped/BytesShipped accounting.
func shipEnv(t *testing.T) *testEnv {
	t.Helper()
	env := newTestEnv(t, 9)
	cfg := DefaultConfig()
	cfg.ShipThreshold = 1
	env.engine = NewEngine(env.store, cfg)
	return env
}

func TestAggregatePushdownShipsScalars(t *testing.T) {
	env := shipEnv(t)
	rowsDoc := []byte(`{"_type": "entity", "str_str_map[kind]": "actor", "_select": ["id", "name[0]", "popularity"]}`)
	aggDoc := []byte(`{"_type": "entity", "str_str_map[kind]": "actor", "_select": ["_count(*)", "_sum(popularity)"]}`)
	rowsRes, err := env.engine.Execute(env.c, env.graph, rowsDoc)
	if err != nil {
		t.Fatal(err)
	}
	aggRes, err := env.engine.Execute(env.c, env.graph, aggDoc)
	if err != nil {
		t.Fatal(err)
	}
	if rowsRes.Stats.RowsShipped == 0 {
		t.Fatal("row query shipped no rows; shipping not engaged")
	}
	if aggRes.Stats.RowsShipped != 0 {
		t.Errorf("aggregate query shipped %d rows, want scalars only", aggRes.Stats.RowsShipped)
	}
	if aggRes.Stats.BytesShipped >= rowsRes.Stats.BytesShipped {
		t.Errorf("aggregate reply bytes %d >= row reply bytes %d — no scalar win",
			aggRes.Stats.BytesShipped, rowsRes.Stats.BytesShipped)
	}
	if aggRes.Count != int64(len(rowsRes.Rows)) {
		t.Errorf("aggregate count %d != row count %d", aggRes.Count, len(rowsRes.Rows))
	}
}

func TestOrderedLimitPrunesShippedRows(t *testing.T) {
	env := shipEnv(t)
	allDoc := []byte(`{"_type": "entity", "str_str_map[kind]": "actor", "_select": ["id"], "_orderby": "-popularity"}`)
	topDoc := []byte(`{"_type": "entity", "str_str_map[kind]": "actor", "_select": ["id"], "_orderby": "-popularity", "_limit": 3}`)
	all, err := env.engine.Execute(env.c, env.graph, allDoc)
	if err != nil {
		t.Fatal(err)
	}
	top, err := env.engine.Execute(env.c, env.graph, topDoc)
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Rows) != 3 {
		t.Fatalf("top rows = %d", len(top.Rows))
	}
	for i := range top.Rows {
		if a, b := top.Rows[i].Values["id"].AsString(), all.Rows[i].Values["id"].AsString(); a != b {
			t.Errorf("top-K row %d = %s, full ordering has %s", i, a, b)
		}
	}
	if top.Stats.RowsShipped >= all.Stats.RowsShipped {
		t.Errorf("top-K shipped %d rows, unlimited twin %d — pruning ineffective",
			top.Stats.RowsShipped, all.Stats.RowsShipped)
	}
}

func TestSortFallbackUsesPreShapeOrderKeys(t *testing.T) {
	// Regression guard for the coordinator sort fallback: `_orderby` keys
	// must resolve from the stored vertex data, never from the `_select`
	// projection — a shaped-out order key would otherwise compare as a zero
	// value and silently scramble the ordering. Shipping is forced so the
	// keys cross the (simulated) wire with the rows.
	env := shipEnv(t)
	for _, limit := range []string{``, `, "_limit": 7`, `, "_limit": 5, "_skip": 3`} {
		shaped, err := env.engine.Execute(env.c, env.graph, []byte(
			`{"_type": "entity", "str_str_map[kind]": "film", "_select": ["id"], "_orderby": "-popularity"`+limit+`}`))
		if err != nil {
			t.Fatal(err)
		}
		keyed, err := env.engine.Execute(env.c, env.graph, []byte(
			`{"_type": "entity", "str_str_map[kind]": "film", "_select": ["id", "popularity"], "_orderby": "-popularity"`+limit+`}`))
		if err != nil {
			t.Fatal(err)
		}
		if len(shaped.Rows) == 0 || len(shaped.Rows) != len(keyed.Rows) {
			t.Fatalf("limit %q: %d shaped rows vs %d keyed", limit, len(shaped.Rows), len(keyed.Rows))
		}
		for i := range shaped.Rows {
			if _, ok := shaped.Rows[i].Values["popularity"]; ok {
				t.Fatalf("limit %q: shaped row %d leaked the order key into the projection", limit, i)
			}
			a := shaped.Rows[i].Values["id"].AsString()
			b := keyed.Rows[i].Values["id"].AsString()
			if a != b {
				t.Errorf("limit %q: row %d = %s with the key shaped out, %s with it selected", limit, i, a, b)
			}
		}
	}
}

// Continuation edge cases.

func TestOrderedContinuationPagesStaySorted(t *testing.T) {
	env := newTestEnv(t, 9)
	doc := []byte(`{"_hints": {"page_size": 7}, "_type": "entity", "str_str_map[kind]": "actor",
		"_select": ["id", "popularity"], "_orderby": "-popularity"}`)
	res, err := env.engine.Execute(env.c, env.graph, doc)
	if err != nil {
		t.Fatal(err)
	}
	var pages int
	var all []float64
	for {
		pages++
		if pages > 1 && res.Continuation != "" && len(res.Rows) != 7 {
			t.Errorf("page %d has %d rows, want the hinted 7", pages, len(res.Rows))
		}
		for _, row := range res.Rows {
			all = append(all, row.Values["popularity"].AsFloat())
		}
		if res.Continuation == "" {
			break
		}
		res, err = env.engine.Fetch(env.c, res.Continuation)
		if err != nil {
			t.Fatal(err)
		}
	}
	ids, _ := scanEntities(t, env, "actor")
	if len(all) != len(ids) {
		t.Fatalf("paged %d rows, oracle has %d", len(all), len(ids))
	}
	if pages < 3 {
		t.Fatalf("only %d pages; page-size hint not honored across fetches", pages)
	}
	for i := 1; i < len(all); i++ {
		if all[i] > all[i-1] {
			t.Errorf("global order broken at row %d: %v > %v", i, all[i], all[i-1])
		}
	}
}

func TestPageSizeHintCarriedInToken(t *testing.T) {
	env := newTestEnv(t, 9)
	// Default PageSize is 1000, so without the token fix the second fetch
	// would return every remaining row at once.
	res, err := env.engine.Execute(env.c, env.graph, []byte(
		`{"_hints": {"page_size": 5}, "_type": "entity", "str_str_map[kind]": "actor", "_select": ["id"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("first page = %d rows", len(res.Rows))
	}
	res, err = env.engine.Fetch(env.c, res.Continuation)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Errorf("second page = %d rows, want the hinted 5", len(res.Rows))
	}
	if res.Continuation == "" {
		t.Error("second page should not be the last")
	}
}

func TestFetchAfterExpireResults(t *testing.T) {
	env := newTestEnv(t, 9)
	cfg := DefaultConfig()
	cfg.PageSize = 5
	cfg.ResultTTL = time.Nanosecond
	e := NewEngine(env.store, cfg)
	res, err := e.Execute(env.c, env.graph, []byte(
		`{"_type": "entity", "str_str_map[kind]": "actor", "_select": ["id"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Continuation == "" {
		t.Fatal("expected continuation")
	}
	time.Sleep(time.Millisecond)
	if n := e.ExpireResults(env.c); n != 1 {
		t.Errorf("sweeper expired %d entries, want 1", n)
	}
	if _, err := e.Fetch(env.c, res.Continuation); !errors.Is(err, ErrBadToken) {
		t.Errorf("fetch after sweep err = %v, want ErrBadToken", err)
	}
}

func TestMalformedContinuationTokens(t *testing.T) {
	env := newTestEnv(t, 9)
	valid := validToken(t, env)
	cases := map[string]string{
		"empty":            "",
		"not base64":       "!!!not-base64!!!",
		"base64, not json": base64.URLEncoding.EncodeToString([]byte("not json")),
		"truncated":        valid[:len(valid)/2],
	}
	for name, token := range cases {
		if _, err := env.engine.Fetch(env.c, token); !errors.Is(err, ErrBadToken) {
			t.Errorf("%s token err = %v, want ErrBadToken", name, err)
		}
	}
}

func TestTokenRoutedToWrongCoordinator(t *testing.T) {
	env := newTestEnv(t, 9)
	token := validToken(t, env)
	wrong := env.c.At(fabric.MachineID(3))
	if _, err := env.engine.Fetch(wrong, token); !errors.Is(err, ErrBadToken) {
		t.Errorf("wrong-coordinator fetch err = %v, want ErrBadToken", err)
	}
	// The right coordinator still serves it afterwards.
	if _, err := env.engine.Fetch(env.c, token); err != nil {
		t.Errorf("correct-coordinator fetch after misroute: %v", err)
	}
}

func validToken(t *testing.T, env *testEnv) string {
	t.Helper()
	res, err := env.engine.Execute(env.c, env.graph, []byte(
		`{"_hints": {"page_size": 5}, "_type": "entity", "str_str_map[kind]": "actor", "_select": ["id"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Continuation == "" {
		t.Fatal("expected continuation")
	}
	return res.Continuation
}
