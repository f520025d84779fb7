package query

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/fabric"
	"a1/internal/farm"
	"a1/internal/workload"
)

// Morsel-driven owner batches (morsel.go). An owner splits a batch only
// onto CPU workers that are idle, and only in Sim mode, so a Sim cluster
// with one CPU worker per machine runs every batch whole: the serial
// reference these tests hold the split to, with no knob in the engine.

// morselSim is a Sim cluster of the given size with workers CPU workers
// per machine.
func morselSim(machines, workers int) *simCluster {
	cfg := fabric.DefaultConfig(machines, fabric.Sim)
	cfg.CPUWorkers = workers
	return simWith(cfg)
}

const morselNodes = 1200

// mnodeSchema: g splits the vertices 7 ways; x is a double, so sums added
// in another association round differently; k is an integer.
var mnodeSchema = bond.MustSchema("mnode",
	bond.FReq(0, "id", bond.TString),
	bond.F(1, "g", bond.TString),
	bond.F(2, "x", bond.TDouble),
	bond.F(3, "k", bond.TInt64),
)

// loadMorselGraph loads one graph into a store configured by cfg: a Zipf
// graph of zipf vertices and 3·zipf edges at seed 1 (none when zipf is 0),
// and morselNodes mnode vertices with two mlink out-edges each. It then
// analyzes the graph, as the benchmark does before it runs.
func loadMorselGraph(c *fabric.Ctx, f *farm.Farm, cfg core.Config, zipf int) (*core.Graph, *Engine, error) {
	s, err := core.Open(c, f, cfg)
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
	if err == nil && zipf > 0 {
		err = workload.NewZipfGraph(zipf, 3*zipf, 1).Load(c, g)
	}
	if err == nil {
		err = g.CreateVertexType(c, "mnode", mnodeSchema, "id")
	}
	if err == nil {
		err = g.CreateEdgeType(c, "mlink", nil)
	}
	ptrs := make([]core.VertexPtr, morselNodes)
	for lo := 0; lo < morselNodes && err == nil; lo += 100 {
		err = farm.RunTransaction(c, f, func(tx *farm.Tx) error {
			for i := lo; i < lo+100; i++ {
				vp, err := g.CreateVertex(tx, "mnode", bond.Struct(
					bond.FV(0, bond.String(fmt.Sprintf("m%04d", i))),
					bond.FV(1, bond.String(fmt.Sprintf("g%d", i%7))),
					bond.FV(2, bond.Double(float64(i)/3+0.1)),
					bond.FV(3, bond.Int64(int64(i*i%1009))),
				))
				if err != nil {
					return err
				}
				ptrs[i] = vp
			}
			return nil
		})
	}
	for lo := 0; lo < morselNodes && err == nil; lo += 100 {
		err = farm.RunTransaction(c, f, func(tx *farm.Tx) error {
			for i := lo; i < lo+100; i++ {
				for _, j := range []int{(i*7 + 1) % morselNodes, (i*13 + 5) % morselNodes} {
					if err := g.CreateEdge(tx, ptrs[i], "mlink", ptrs[j], bond.Null); err != nil {
						return err
					}
				}
			}
			return nil
		})
	}
	if err == nil {
		_, err = g.Analyze(c)
	}
	if err != nil {
		return nil, nil, err
	}
	return g, NewEngine(s, DefaultConfig()), nil
}

// morselRun is one document's outcome: every page it returned, or its
// error.
type morselRun struct {
	doc   string
	pages []*Result
	err   error
}

// runMorselDocs executes each document and fetches every page behind it.
// It reports no test failure itself, so a Sim process body can call it.
func runMorselDocs(c *fabric.Ctx, e *Engine, g *core.Graph, docs []string) []morselRun {
	out := make([]morselRun, len(docs))
	for i, doc := range docs {
		out[i].doc = doc
		res, err := e.Execute(c, g, []byte(doc))
		for err == nil {
			out[i].pages = append(out[i].pages, res)
			if res.Continuation == "" {
				break
			}
			res, err = e.Fetch(c, res.Continuation)
		}
		out[i].err = err
	}
	return out
}

// sameValue: equal kinds and values, bit for bit, or, not exact, doubles
// within rounding.
func sameValue(a, b bond.Value, exact bool) bool {
	if k := a.Kind(); !exact && k == b.Kind() && (k == bond.KindFloat || k == bond.KindDouble) {
		x, y := a.AsFloat(), b.AsFloat()
		return math.Abs(x-y) <= 1e-12*math.Max(1, math.Abs(x))
	}
	return a.Equal(b)
}

func sameValues(a, b map[string]bond.Value, exact bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || !sameValue(v, w, exact) {
			return false
		}
	}
	return true
}

// sameRowList describes the first difference between two row lists, or
// returns "".
func sameRowList(x, y []Row, exact bool) string {
	if len(x) != len(y) {
		return fmt.Sprintf("%d rows vs %d", len(x), len(y))
	}
	for i := range x {
		if x[i].Vertex != y[i].Vertex || !sameValues(x[i].Values, y[i].Values, exact) {
			return fmt.Sprintf("row %d: %v %v vs %v %v", i, x[i].Vertex, x[i].Values, y[i].Vertex, y[i].Values)
		}
	}
	return ""
}

// rowSet is every row of a run's pages, by vertex address.
func rowSet(r morselRun) []Row {
	var rows []Row
	for _, p := range r.pages {
		rows = append(rows, p.Rows...)
	}
	slices.SortFunc(rows, func(a, b Row) int { return cmp.Compare(a.Vertex.Addr, b.Vertex.Addr) })
	return rows
}

// How a document's rows compare across worker counts.
type rowParity int

const (
	// rowsInOrder: the document orders its rows.
	rowsInOrder rowParity = iota
	// rowsAsSet: the document orders nothing, and the coordinator appends
	// owners' replies as they arrive, so their interleaving follows the
	// clock, which the number of CPU workers moves with or without a split.
	rowsAsSet
	// rowsCut: an unordered `_limit`, which returns whichever rows reach
	// the cut first; what it reads is exact (its level never splits), but
	// which rows and how many of them shipped follow the clock too.
	rowsCut
)

// morselDiff describes the first difference between two runs of one
// document, or returns "". Exact, it compares everything bit for bit;
// otherwise it passes over the clocks (Elapsed, RDMATime), compares
// doubles within rounding and rows as rp says.
func morselDiff(a, b morselRun, rp rowParity, exact bool) string {
	if exact {
		rp = rowsInOrder
	}
	if fmt.Sprint(a.err) != fmt.Sprint(b.err) {
		return fmt.Sprintf("error %v vs %v", a.err, b.err)
	}
	if len(a.pages) != len(b.pages) {
		return fmt.Sprintf("%d pages vs %d", len(a.pages), len(b.pages))
	}
	if rp == rowsAsSet {
		if d := sameRowList(rowSet(a), rowSet(b), exact); d != "" {
			return "row set: " + d
		}
	}
	for p := range a.pages {
		x, y := a.pages[p], b.pages[p]
		if len(x.Rows) != len(y.Rows) {
			return fmt.Sprintf("page %d: %d rows vs %d", p, len(x.Rows), len(y.Rows))
		}
		if d := sameRowList(x.Rows, y.Rows, exact); rp == rowsInOrder && d != "" {
			return fmt.Sprintf("page %d %s", p, d)
		}
		if x.Count != y.Count || x.HasCount != y.HasCount || !sameValues(x.Aggregates, y.Aggregates, exact) {
			return fmt.Sprintf("page %d: count %d %v vs %d %v", p, x.Count, x.Aggregates, y.Count, y.Aggregates)
		}
		if len(x.Groups) != len(y.Groups) {
			return fmt.Sprintf("page %d: %d groups vs %d", p, len(x.Groups), len(y.Groups))
		}
		for i := range x.Groups {
			gx, gy := x.Groups[i], y.Groups[i]
			if !sameValues(gx.Keys, gy.Keys, exact) || !sameValues(gx.Aggregates, gy.Aggregates, exact) {
				return fmt.Sprintf("page %d group %d: %v %v vs %v %v", p, i, gx.Keys, gx.Aggregates, gy.Keys, gy.Aggregates)
			}
		}
		if (x.Continuation == "") != (y.Continuation == "") {
			return fmt.Sprintf("page %d: continuation %q vs %q", p, x.Continuation, y.Continuation)
		}
		sx, sy := x.Stats, y.Stats
		if !exact {
			sx.Elapsed, sy.Elapsed = 0, 0
			sx.RDMATime, sy.RDMATime = 0, 0
		}
		if rp == rowsCut {
			sx.RowsShipped, sy.RowsShipped = 0, 0
			sx.BytesShipped, sy.BytesShipped = 0, 0
		}
		if !reflect.DeepEqual(sx, sy) {
			return fmt.Sprintf("page %d: stats %+v vs %+v", p, sx, sy)
		}
	}
	return ""
}

// morselDoc is one document of the parity test and how its rows compare.
type morselDoc struct {
	doc  string
	rows rowParity
}

// morselDrain and morselCut are the hot category's rows: all of them, and
// any 25.
const (
	morselDrain = `{"_type":"node","category":"c000","_select":["id","score"]}`
	morselCut   = `{"_type":"node","category":"c000","_select":["id"],"_limit":25}`
)

// morselDocs: shape's six statements, then a `_recurse` that emits rows,
// one whose seed is a whole type (its seed batches split too, and their
// morsels mark one visited set), two traversal levels that each build a next frontier, traversal rows,
// an unordered `_limit` level, float and integer sums, grouped and
// scalar, and a sort-based top-K.
func morselDocs() []morselDoc {
	z := workload.NewZipfGraph(0, 0, 0)
	hub := z.VertexID(0) // the most in-edges: destinations are Zipf-ranked
	return []morselDoc{
		{z.TopKInCategoryQuery(z.HotCategory(), 10), rowsInOrder},
		{z.TopKInCategoryQuery(z.CategoryName(3), 10), rowsInOrder},
		{z.TopKInCategoryQuery(z.CategoryName(20), 10), rowsInOrder},
		{z.TopKNeighborsQuery(z.HotCategory(), 10), rowsInOrder},
		{z.TopGroupsQuery(10), rowsInOrder},
		{`{"_type":"node","_groupby":"score","_select":["_count(*)"],"_limit":100}`, rowsInOrder},
		{fmt.Sprintf(`{"id":%q,"_recurse":{"_type":"link","_dir":"in","_max":3,"_vertex":{"_select":["_count(*)"]}}}`, hub), rowsInOrder},
		{morselDrain, rowsAsSet},
		{fmt.Sprintf(`{"id":%q,"_recurse":{"_type":"link","_dir":"in","_min":1,"_max":2,"_vertex":{"_select":["id","score"]}}}`, hub), rowsAsSet},
		{`{"_type":"mnode","_recurse":{"_type":"mlink","_max":3,"_vertex":{"_select":["_count(*)","_sum(k)"]}}}`, rowsInOrder},
		{`{"_type":"node","category":"c000","_out_edge":{"_type":"link","_vertex":{"_out_edge":{"_type":"link","_vertex":{"_select":["_count(*)","_sum(score)","_max(score)"]}}}}}`, rowsInOrder},
		{`{"_type":"mnode","_out_edge":{"_type":"mlink","_vertex":{"_select":["id","k"]}}}`, rowsAsSet},
		{morselCut, rowsCut},
		{`{"_type":"mnode","_groupby":"g","_select":["_sum(x)","_avg(x)","_count(*)","_sum(k)","_min(x)","_max(k)"]}`, rowsInOrder},
		{`{"_type":"mnode","_select":["_sum(x)","_avg(x)","_count(*)","_sum(k)"]}`, rowsInOrder},
		{`{"_type":"mnode","_orderby":"-x","_limit":15,"_select":["id","x"]}`, rowsInOrder},
	}
}

// TestMorselParity runs morselDocs twice each (cold, then warm) on a Zipf
// 3k/9k graph over 8 Sim machines, with one CPU worker per machine, which
// can never split a batch, and with the default 8. Rows (as morselDoc
// says), groups, counts, integer aggregates and every Stats counter match;
// float sums match within rounding. Two fresh runs with 8 workers match bit
// for bit, Elapsed included. The warm group rollup is faster with 8
// workers: its owners' batches of about 375 vertices did split.
func TestMorselParity(t *testing.T) {
	cases := morselDocs()
	cases = append(cases, cases...)
	docs := make([]string, len(cases))
	for i, mc := range cases {
		docs[i] = mc.doc
	}
	run := func(workers int) []morselRun {
		sc := morselSim(8, workers)
		var runs []morselRun
		var err error
		sc.run(func(p simProc) {
			c := sc.fab.NewCtx(0, p.p)
			var g *core.Graph
			var e *Engine
			if g, e, err = loadMorselGraph(c, sc.farm, core.DefaultConfig(), 3000); err == nil {
				runs = runMorselDocs(c, e, g, docs)
			}
		})
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		return runs
	}
	serial, split, again := run(1), run(8), run(8)
	hot := map[string]bool{}
	for i, r := range serial {
		if r.doc == morselDrain && r.err == nil {
			for _, row := range rowSet(r) {
				hot[row.Values["id"].AsString()] = true
			}
		}
		if r.err != nil {
			t.Errorf("%s: %v", r.doc, r.err)
			continue
		}
		if d := morselDiff(r, split[i], cases[i].rows, false); d != "" {
			t.Errorf("%s: 1 vs 8 workers: %s", r.doc, d)
		}
		if d := morselDiff(split[i], again[i], cases[i].rows, true); d != "" {
			t.Errorf("%s: two runs with 8 workers: %s", r.doc, d)
		}
	}
	for i, r := range split {
		if r.doc != morselCut || r.err != nil {
			continue
		}
		for _, row := range rowSet(r) {
			if !hot[row.Values["id"].AsString()] {
				t.Errorf("run %d of the cut returned %v, not a c000 row", i, row.Values)
			}
		}
	}
	rollup := len(cases)/2 + 4 // the warm group_rollup
	if !strings.Contains(docs[rollup], `"_groupby": "category"`) {
		t.Fatalf("doc %d is %s, not the group rollup", rollup, docs[rollup])
	}
	if s, p := serial[rollup].pages[0].Stats.Elapsed, split[rollup].pages[0].Stats.Elapsed; p >= s*3/4 {
		t.Errorf("group rollup took %v with 8 workers, %v with 1: no batch split", p, s)
	}
}

// TestMorselOneOwnerOrder: with every vertex placed on the coordinator's
// machine, each level is one batch that no other owner's reply interleaves
// with, so even unordered rows come back in the order the batch built
// them. Split into 8 morsels, they match the serial run's row for row:
// rows join in morsel order, and so do the next hops the level below
// reads in.
func TestMorselOneOwnerOrder(t *testing.T) {
	docs := []string{
		`{"_type":"mnode","_select":["id","k"]}`,
		`{"_type":"mnode","_out_edge":{"_type":"mlink","_vertex":{"_select":["id","k"]}}}`,
		`{"_type":"mnode","_out_edge":{"_type":"mlink","_vertex":{"_out_edge":{"_type":"mlink","_vertex":{"_select":["id"]}}}}}`,
		`{"id":"m0000","_recurse":{"_type":"mlink","_min":1,"_max":8,"_vertex":{"_select":["id"]}}}`,
	}
	run := func(workers int) []morselRun {
		sc := morselSim(3, workers)
		cfg := core.DefaultConfig()
		cfg.RandomPlacement = false
		var runs []morselRun
		var err error
		sc.run(func(p simProc) {
			c := sc.fab.NewCtx(0, p.p)
			var g *core.Graph
			var e *Engine
			if g, e, err = loadMorselGraph(c, sc.farm, cfg, 0); err == nil {
				runs = runMorselDocs(c, e, g, docs)
			}
		})
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		return runs
	}
	serial, split := run(1), run(8)
	for i, r := range serial {
		if r.err != nil {
			t.Errorf("%s: %v", r.doc, r.err)
			continue
		}
		if d := morselDiff(r, split[i], rowsInOrder, false); d != "" {
			t.Errorf("%s: 1 vs 8 workers: %s", r.doc, d)
		}
	}
	if s, p := serial[0].pages[0].Stats.Elapsed, split[0].pages[0].Stats.Elapsed; p >= s*3/4 {
		t.Errorf("type scan took %v with 8 workers, %v with 1: no batch split", p, s)
	}
}

// TestGroupRollupMorselElapsed: shape's group_rollup over the Zipf
// 10k/30k graph of loadMorselGraph on 16 Sim machines at sim seed 13,
// warm. Each owner reads about 625 vertices: in one run of the loop per
// owner the query takes 1.41 ms of Sim time, with each batch split across
// the idle workers 0.28 ms. The bound sits between.
func TestGroupRollupMorselElapsed(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a 10k-vertex graph in Sim mode")
	}
	const bound = time.Millisecond
	sc := simNew(t, 16)
	var res *Result
	var err error
	sc.run(func(p simProc) {
		c := sc.fab.NewCtx(0, p.p)
		g, e, lerr := loadMorselGraph(c, sc.farm, core.DefaultConfig(), 10000)
		err = lerr
		for i := 0; i < 2 && err == nil; i++ { // the second run is warm
			res, err = e.Execute(c, g, []byte(workload.NewZipfGraph(0, 0, 0).TopGroupsQuery(10)))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 10 {
		t.Fatalf("%d groups, want 10", len(res.Groups))
	}
	if res.Stats.VerticesRead != 10000 {
		t.Errorf("read %d vertices, want 10000", res.Stats.VerticesRead)
	}
	if res.Stats.Elapsed >= bound {
		t.Errorf("group rollup took %v of Sim time, want under %v", res.Stats.Elapsed, bound)
	}
}

// poisonTypeID overwrites the type id in vp's header with id, which names
// no type, so that a read of the vertex fails with an error naming id.
func poisonTypeID(c *fabric.Ctx, f *farm.Farm, vp core.VertexPtr, id uint32) error {
	return farm.RunTransaction(c, f, func(tx *farm.Tx) error {
		buf, err := tx.Read(vp)
		if err == nil {
			buf, err = tx.OpenForWrite(buf)
		}
		if err == nil {
			binary.LittleEndian.PutUint32(buf.Data(), id)
		}
		return err
	})
}

// morselPoisonDocs: a grouped level, whose owners reply with group runs,
// and a traversal level, whose owners reply with next frontiers.
var morselPoisonDocs = []string{
	`{"_type":"mnode","_groupby":"g","_select":["_count(*)","_sum(k)"]}`,
	`{"_type":"mnode","_out_edge":{"_type":"mlink","_vertex":{"_select":["_count(*)","_max(k)"]}}}`,
}

// morselPoisonRun is one cluster's run of TestMorselErrorsAndLeaks.
type morselPoisonRun struct {
	clean         []morselRun // before the poisoning
	errs          []error     // after it, per document
	bufs          int64       // frontiers out of the pool after the runs
	runs, results int         // run tails and continuations left parked
	err           error
}

// runMorselPoisoned loads the mnode graph on 2 machines, runs
// morselPoisonDocs, then poisons two vertices of machine 1's root batch of
// about 600, which splits into 8 morsels of 75: position 270, 45 reads
// into the fourth morsel, with type id 0xa1000001, and position 456, 6
// reads into the seventh, with 0xa1000002. A serial run meets the first;
// so does the split one, though its seventh morsel meets the second
// sooner.
func runMorselPoisoned(sc *simCluster) (r morselPoisonRun) {
	sc.run(func(p simProc) {
		c := sc.fab.NewCtx(0, p.p)
		bufs := ownerBufsOut.Load()
		g, e, err := loadMorselGraph(c, sc.farm, core.DefaultConfig(), 0)
		if err != nil {
			r.err = err
			return
		}
		r.clean = runMorselDocs(c, e, g, morselPoisonDocs)
		// Machine 1's root batch: the type scan's order, split by owner.
		var batch []core.VertexPtr
		tx := sc.farm.CreateReadTransaction(c)
		dir := sc.farm.Directory()
		err = g.ScanVertexPtrsByType(tx, "mnode", func(vp core.VertexPtr) bool {
			m, perr := dir.PrimaryOf(c, vp.Addr)
			if perr != nil {
				err = perr
				return false
			}
			if m == 1 {
				batch = append(batch, vp)
			}
			return true
		})
		if err == nil && (len(batch) < 512 || len(batch) > 688) {
			err = fmt.Errorf("machine 1 holds %d mnode vertices, want 8 morsels' worth", len(batch))
		}
		if err == nil {
			err = poisonTypeID(c, sc.farm, batch[len(batch)*45/100], 0xa1000001)
		}
		if err == nil {
			err = poisonTypeID(c, sc.farm, batch[len(batch)*76/100], 0xa1000002)
		}
		if err != nil {
			r.err = err
			return
		}
		for _, doc := range morselPoisonDocs {
			_, qerr := e.Execute(c, g, []byte(doc))
			r.errs = append(r.errs, qerr)
		}
		r.bufs = ownerBufsOut.Load() - bufs
		for m := 0; m < sc.fab.Machines(); m++ {
			r.runs += e.PendingRuns(fabric.MachineID(m))
			r.results += e.PendingResults(fabric.MachineID(m))
		}
	})
	return r
}

// TestMorselErrorsAndLeaks: a batch whose middle morsel fails returns the
// error a serial run returns, and leaves no frontier, run tail or
// continuation behind.
func TestMorselErrorsAndLeaks(t *testing.T) {
	serial, split := runMorselPoisoned(morselSim(2, 1)), runMorselPoisoned(morselSim(2, 8))
	for _, r := range []morselPoisonRun{serial, split} {
		if r.err != nil {
			t.Fatal(r.err)
		}
	}
	for i, doc := range morselPoisonDocs {
		if d := morselDiff(serial.clean[i], split.clean[i], rowsInOrder, false); d != "" {
			t.Errorf("%s before the poisoning: %s", doc, d)
		}
		want := fmt.Sprintf("vertex type id %d", 0xa1000001)
		if err := serial.errs[i]; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: serial run returned %v, want an error naming %s", doc, err, want)
		}
		if fmt.Sprint(split.errs[i]) != fmt.Sprint(serial.errs[i]) {
			t.Errorf("%s: split run returned %v, serial run %v", doc, split.errs[i], serial.errs[i])
		}
	}
	if s, p := serial.clean[0].pages[0].Stats.Elapsed, split.clean[0].pages[0].Stats.Elapsed; p >= s*3/4 {
		t.Errorf("grouped level took %v with 8 workers, %v with 1: no batch split", p, s)
	}
	for _, r := range []morselPoisonRun{serial, split} {
		if r.bufs != 0 || r.runs != 0 || r.results != 0 {
			t.Errorf("left %d frontiers out of the pool, %d run tails and %d continuations parked", r.bufs, r.runs, r.results)
		}
	}
}
