package query

import (
	"fmt"
	"testing"

	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/farm"
)

// Microbenchmarks for the hot-path shaping helpers, run through the shared
// buffer pools so allocs/op shows what one call costs in steady state.
// These complement the
// end-to-end alloc benchmarks at the repo root (BenchmarkAllocZipf*),
// which measure whole queries through the fabric; here each helper is
// isolated at its own call granularity.

var benchSchema = bond.MustSchema("product",
	bond.FReq(0, "id", bond.TString),
	bond.F(1, "category", bond.TString),
	bond.F(2, "score", bond.TInt64),
)

func benchPath(tb testing.TB, s string) FieldPath {
	tb.Helper()
	fp, err := parseFieldPath(s)
	if err != nil {
		tb.Fatal(err)
	}
	return fp
}

func benchData(n int) []bond.Value {
	out := make([]bond.Value, n)
	for i := range out {
		out[i] = bond.Struct(
			bond.FV(0, bond.String(fmt.Sprintf("p%04d", i))),
			bond.FV(1, bond.String([]string{"hot", "warm", "cold"}[i%3])),
			bond.FV(2, bond.Int64(int64((i*7919)%n))),
		)
	}
	return out
}

// BenchmarkAllocNewRow builds one projected, keyed row and releases it —
// the per-vertex cost of a terminal worker batch.
func BenchmarkAllocNewRow(b *testing.B) {
	pat := &VertexPattern{
		Selects: []FieldPath{benchPath(b, "id"), benchPath(b, "category")},
		Orders:  []OrderBy{{Path: benchPath(b, "score"), Desc: true}},
	}
	data := benchData(1)[0]
	vp := core.VertexPtr{Addr: farm.Addr(42), Size: 64}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		row := newRow(vp, data, pat, benchSchema)
		releaseRow(&row)
	}
}

// BenchmarkAllocTopKBatch is a worker's orderby+limit batch: build rows
// for a frontier slice, sort, prune to the top k, ship (here: release).
func BenchmarkAllocTopKBatch(b *testing.B) {
	const batch, k = 256, 16
	pat := &VertexPattern{Orders: []OrderBy{{Path: benchPath(b, "score"), Desc: true}}}
	data := benchData(batch)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := getRows()
		for j, d := range data {
			rows = append(rows, newRow(core.VertexPtr{Addr: farm.Addr(j)}, d, pat, benchSchema))
		}
		rows = topK(rows, pat.Orders, k)
		releaseRows(rows)
		putRows(rows)
	}
}

// BenchmarkAllocMergeSortedRows is the coordinator's k-way merge over
// per-machine ordered partials.
func BenchmarkAllocMergeSortedRows(b *testing.B) {
	const machines, perList, k = 8, 32, 16
	pat := &VertexPattern{Orders: []OrderBy{{Path: benchPath(b, "score")}}}
	data := benchData(machines * perList)
	lists := make([][]Row, machines)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for m := range lists {
			rows := getRows()
			for j := 0; j < perList; j++ {
				d := data[m*perList+j]
				rows = append(rows, newRow(core.VertexPtr{Addr: farm.Addr(m*perList + j)}, d, pat, benchSchema))
			}
			sortRows(rows, pat.Orders)
			lists[m] = rows
		}
		out := mergeSortedRows(lists, pat.Orders, k)
		releaseRows(out)
		for m := range lists {
			putRows(lists[m])
			lists[m] = nil
		}
	}
}

// BenchmarkAllocAccumGroup is the grouped-aggregate inner loop in its
// steady state: every vertex hits an existing group, which must cost
// zero allocations (the group key is encoded into the reused scratch and
// looked up without materializing a string).
func BenchmarkAllocAccumGroup(b *testing.B) {
	by := []FieldPath{benchPath(b, "category")}
	aggs := []Aggregate{
		{Kind: AggCount, Raw: "_count(*)"},
		{Kind: AggSum, Path: benchPath(b, "score"), Raw: "_sum(score)"},
	}
	data := benchData(64)
	groups := make(map[string]*groupState)
	var scratch []byte
	for _, d := range data { // materialize every group before measuring
		scratch = accumGroup(groups, by, aggs, d, benchSchema, scratch)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = accumGroup(groups, by, aggs, data[i%len(data)], benchSchema, scratch)
	}
}

// BenchmarkAllocGroupRun is a worker's streamed-group emission: sort the
// accumulated partials into one key-ordered run (the unit a coordinator
// merge consumes), including the `_having` fail-proof pass.
func BenchmarkAllocGroupRun(b *testing.B) {
	by := []FieldPath{benchPath(b, "score")}
	aggs := []Aggregate{
		{Kind: AggCount, Raw: "_count(*)"},
		{Kind: AggMax, Path: benchPath(b, "score"), Raw: "_max(score)"},
	}
	pat := &VertexPattern{
		GroupBy: by,
		Aggs:    aggs,
		Having:  []HavingPred{{Raw: "_max(score)", AggIdx: 1, comparison: comparison{Op: OpLt, Value: bond.Int64(128)}}},
	}
	data := benchData(256)
	groups := make(map[string]*groupState)
	var scratch []byte
	for _, d := range data {
		scratch = accumGroup(groups, by, aggs, d, benchSchema, scratch)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, _ := buildGroupRun(groups, pat, false)
		if len(run) != len(groups) {
			b.Fatalf("run %d entries, want %d", len(run), len(groups))
		}
	}
}

// benchShapedDoc is a top-K document with a predicate operator object, a
// `_having`-free shaping tail and a `_hints` object: the clauses q1–q4
// leave out.
const benchShapedDoc = `{"_type": "entity", "str_str_map[kind]": "film", "popularity": {"_gt": 2, "_lt": 90},
	"_orderby": ["-popularity", "id"], "_limit": 10, "_skip": 5, "_select": ["id", "name[0]"],
	"_hints": {"page_size": 50}}`

// BenchmarkParse is one document parsed as written: the path every
// document took before the plan cache, and the one a shape that fails to
// parse still falls back to.
func BenchmarkParse(b *testing.B) {
	for _, c := range []struct{ name, doc string }{
		{"q1", q1}, {"q2", q2}, {"q3", q3}, {"q4", q4}, {"shaped", benchShapedDoc},
	} {
		doc := []byte(c.doc)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Parse(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlanMiss is a plan-cache miss: each op's document has a
// `_type` the cache has not seen (4,096 of them cycle through the
// 1,024-entry FIFO), so it is keyed, parsed as a shape, stored and bound.
func BenchmarkPlanMiss(b *testing.B) {
	docs := make([][]byte, 4096)
	for i := range docs {
		docs[i] = []byte(fmt.Sprintf(`{"_type": "t%04d", "name": "x", "popularity": {"_gt": 2}, "_limit": 5, "_select": ["id"]}`, i))
	}
	e := &Engine{plans: newPlanCache()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, cached, err := e.plan(docs[i%len(docs)], true); err != nil || cached {
			b.Fatalf("plan: cached %v, err %v", cached, err)
		}
	}
}
