package query

import (
	"fmt"
	"sort"
	"testing"

	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/fabric"
	"a1/internal/farm"
	"a1/internal/workload"
)

// The read-set differential suite. fullOracle is the pre-read-set executor
// kept as a test oracle: it walks the query's levels at one machine and
// materializes every vertex it touches whole (core.ReadVertex,
// core.EnumerateEdges). It yields the answer the engine must give, and —
// from each level's ReadSet alone — the vertex reads the engine may spend
// on it: a header per visited vertex, a data object per ReadFields visit,
// an inline edge list per direction enumerated, and nothing at all for a
// level that consumes only pointers.

type fullOracle struct {
	t  *testing.T
	g  *core.Graph
	tx *farm.Tx // full materialization: not what the engine should cost

	// Index and catalog accesses the coordinator cannot avoid (root lookup,
	// `_match` target resolution, membership-filter scan) run on itx, whose
	// context counts them.
	itx  *farm.Tx
	iops fabric.OpStats

	// Predicted Stats.VerticesRead, vertex-object reads, and
	// Stats.IndexFiltered.
	vertices, objects, filtered int64

	count int64
	sums  map[string]int64    // `_sum(field)` entry → running integer sum
	rows  map[farm.Addr]int64 // emitted vertex → `_hops` (0 without `_shortest`)
}

func newFullOracle(t *testing.T, env *readEnv) *fullOracle {
	o := &fullOracle{t: t, g: env.g, sums: map[string]int64{}, rows: map[farm.Addr]int64{}}
	f := env.e.store.Farm()
	o.tx = f.CreateReadTransaction(env.c)
	o.itx = f.CreateReadTransaction(env.c.WithStats(&o.iops))
	return o
}

// lookup mirrors the engine's lookupByID access sequence.
func (o *fullOracle) lookup(vp *VertexPattern) core.VertexPtr {
	o.t.Helper()
	pk := bond.String(vp.ID)
	var ptr core.VertexPtr
	var ok bool
	var err error
	if vp.Type != "" {
		ptr, ok, err = o.g.LookupVertex(o.itx, vp.Type, pk)
	} else {
		ptr, ok, err = o.g.LookupVertexAnyType(o.itx, pk)
	}
	if err != nil {
		o.t.Fatal(err)
	}
	if !ok {
		o.t.Fatalf("oracle: no vertex %q", vp.ID)
	}
	return ptr
}

// visit is one vertex under the oracle: fully materialized, with the reads
// the engine is allowed for it tallied on the side.
type visit struct {
	o        *fullOracle
	v        *core.Vertex
	listRead [2]bool
}

func (o *fullOracle) visit(vp core.VertexPtr, read ReadSet) *visit {
	o.t.Helper()
	v, err := o.g.ReadVertex(o.tx, vp)
	if err != nil {
		o.t.Fatal(err)
	}
	o.vertices++
	o.objects++ // header
	if read.Kind == ReadFields {
		o.objects++ // data object
	}
	return &visit{o: o, v: v}
}

// edges returns the far endpoints of the vertex's half-edges; the first
// enumeration of a direction with an inline list costs that list's read.
func (vi *visit) edges(ep *EdgePattern) []core.VertexPtr {
	vi.o.t.Helper()
	dir, degree := core.DirOut, vi.v.OutCount
	if !ep.Out {
		dir, degree = core.DirIn, vi.v.InCount
	}
	if degree > 0 && !vi.listRead[dir] {
		vi.listRead[dir] = true
		vi.o.objects++
	}
	var out []core.VertexPtr
	err := vi.o.g.EnumerateEdges(vi.o.tx, vi.v.Ptr, dir, ep.Type, func(he core.HalfEdge) bool {
		out = append(out, he.Other)
		return true
	})
	if err != nil {
		vi.o.t.Fatal(err)
	}
	return out
}

// passes applies a pattern's residual filters to a materialized vertex.
// `_match` subpatterns here are the pre-resolved kind: one edge to a target.
func (vi *visit) passes(pat *VertexPattern, targets map[*EdgePattern]core.VertexPtr) bool {
	vi.o.t.Helper()
	schema, err := vi.o.g.VertexTypeSchema(vi.o.tx.Ctx(), vi.v.TypeName)
	if err != nil {
		vi.o.t.Fatal(err)
	}
	if (pat.Type != "" && vi.v.TypeName != pat.Type) || !evalPredicates(vi.v.Data, pat.Preds, schema) {
		return false
	}
	for _, m := range pat.Matches {
		found := false
		for _, other := range vi.edges(m) {
			found = found || other.Addr == targets[m].Addr
		}
		if !found {
			return false
		}
	}
	return true
}

func (o *fullOracle) emit(vi *visit, pat *VertexPattern, hops int64) {
	o.t.Helper()
	o.count++
	o.rows[vi.v.Ptr.Addr] = hops
	schema, err := o.g.VertexTypeSchema(o.tx.Ctx(), vi.v.TypeName)
	if err != nil {
		o.t.Fatal(err)
	}
	for _, a := range pat.Aggs {
		if a.Kind == AggSum {
			val, _ := resolvePath(vi.v.Data, a.Path, schema)
			o.sums[a.Raw] += val.AsInt()
		}
	}
}

func dedupAddrs(ptrs []core.VertexPtr, seen map[farm.Addr]bool) []core.VertexPtr {
	var out []core.VertexPtr
	for _, p := range ptrs {
		if !seen[p.Addr] {
			seen[p.Addr] = true
			out = append(out, p)
		}
	}
	return out
}

// run evaluates a parsed query level by level.
func (o *fullOracle) run(q *Query) {
	o.t.Helper()
	pl, pats := q.Plan(), patternChain(q.Root)
	targets := map[*EdgePattern]core.VertexPtr{}
	for _, pat := range pats {
		for _, m := range pat.Matches {
			targets[m] = o.lookup(m.Vertex)
		}
	}
	var frontier []core.VertexPtr
	if root := pats[0]; root.ID != "" {
		frontier = []core.VertexPtr{o.lookup(root)}
	} else if err := o.g.ScanVerticesByType(o.itx, root.Type, func(_ bond.Value, vp core.VertexPtr) bool {
		frontier = append(frontier, vp)
		return true
	}); err != nil {
		o.t.Fatal(err)
	}
	for level, pat := range pats {
		lp := pl.Levels[level]
		if lp.IndexFilter != nil {
			// The membership scan of the level's (single, equality) indexed
			// predicate; members are exactly the vertices passing it.
			p := pat.Preds[lp.IndexFilter.EqPreds[0]]
			member := map[farm.Addr]bool{}
			if err := o.g.IndexScan(o.itx, pat.Type, p.Path.Field, p.Value, func(vp core.VertexPtr) bool {
				member[vp.Addr] = true
				return true
			}); err != nil {
				o.t.Fatal(err)
			}
			var kept []core.VertexPtr
			for _, vp := range frontier {
				if member[vp.Addr] {
					kept = append(kept, vp)
				} else {
					o.filtered++
				}
			}
			frontier = kept
		}
		if lp.Recurse != nil {
			o.recurse(frontier, pat, lp, pats[level+1], pl.Levels[level+1], targets)
			return
		}
		if lp.Terminal && lp.Read.Kind == ReadNone {
			// Pointer-only terminal: answered from the frontier, no visit.
			// (An unordered `_limit` may keep any K of these.)
			for _, vp := range frontier {
				o.count++
				o.rows[vp.Addr] = 0
			}
			return
		}
		var next []core.VertexPtr
		for _, vp := range frontier {
			vi := o.visit(vp, lp.Read)
			if !vi.passes(pat, targets) {
				continue
			}
			if lp.Terminal {
				o.emit(vi, pat, 0)
			} else {
				next = append(next, vi.edges(pat.Edge)...)
			}
		}
		frontier = dedupAddrs(next, map[farm.Addr]bool{})
	}
}

// recurse is the distance-window BFS: roots at distance 0, each vertex
// visited once, emitted iff its distance lies in [min, max].
func (o *fullOracle) recurse(roots []core.VertexPtr, host *VertexPattern, hostPlan *LevelPlan, term *VertexPattern, termPlan *LevelPlan, targets map[*EdgePattern]core.VertexPtr) {
	o.t.Helper()
	rp := host.Recurse
	visited := map[farm.Addr]bool{}
	var cur []core.VertexPtr
	for _, vp := range roots {
		if vi := o.visit(vp, hostPlan.Read); vi.passes(host, targets) {
			visited[vp.Addr] = true
			cur = append(cur, vi.edges(rp.Edge)...)
		}
	}
	for k := 1; k <= rp.Max && len(cur) > 0; k++ {
		emit, expand := k >= rp.Min, k < rp.Max
		var next []core.VertexPtr
		for _, vp := range dedupAddrs(cur, visited) {
			read := ReadSet{}
			if emit {
				read = termPlan.Read
			}
			if read.Kind == ReadNone && !expand {
				o.count++ // in the window, nothing consumed, nowhere to go: the pointer
				o.rows[vp.Addr] = int64(k)
				continue
			}
			vi := o.visit(vp, read)
			if emit && vi.passes(term, nil) {
				o.emit(vi, term, int64(k))
			}
			if expand {
				next = append(next, vi.edges(rp.Edge)...)
			}
		}
		cur = next
	}
}

// readEnv is a Zipf graph: one indexed vertex type, one edge label, hubs.
type readEnv struct {
	e *Engine
	g *core.Graph
	c *fabric.Ctx
	z *workload.ZipfGraph
}

func newReadEnv(t *testing.T) *readEnv {
	t.Helper()
	fab := fabric.New(fabric.DefaultConfig(6, fabric.Direct), nil)
	f := farm.Open(fab, farm.Config{RegionSize: 16 << 20})
	c := fab.NewCtx(0, nil)
	s, err := core.Open(c, f, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTenant(c, "t"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateGraph(c, "t", "z"); err != nil {
		t.Fatal(err)
	}
	g, err := s.OpenGraph(c, "t", "z")
	if err != nil {
		t.Fatal(err)
	}
	z := workload.NewZipfGraph(400, 1600, 3)
	if err := z.Load(c, g); err != nil {
		t.Fatal(err)
	}
	return &readEnv{e: NewEngine(s, DefaultConfig()), g: g, c: c, z: z}
}

// hub returns the vertex with the most out-edges (ties: lowest id), so
// traversals from it have a frontier worth counting.
func (env *readEnv) hub(t *testing.T) string {
	t.Helper()
	tx := env.e.store.Farm().CreateReadTransaction(env.c)
	best, bestOut := "", -1
	err := env.g.ScanVerticesByType(tx, "node", func(pk bond.Value, vp core.VertexPtr) bool {
		out, _, err := env.g.EdgeCounts(tx, vp)
		if err == nil && out > bestOut {
			best, bestOut = pk.AsString(), out
		}
		return err == nil
	})
	if err != nil || bestOut < 3 {
		t.Fatalf("no hub: out-degree %d, err %v", bestOut, err)
	}
	return best
}

// rareNeighborCategory picks, among the categories of id's out-neighbors,
// the one with the fewest vertices overall: few enough that a traversal
// level filtering on it consults the category index's membership set
// rather than reading the frontier.
func (env *readEnv) rareNeighborCategory(t *testing.T, id string) string {
	t.Helper()
	tx := env.e.store.Farm().CreateReadTransaction(env.c)
	src, _, err := env.g.LookupVertex(tx, "node", bond.String(id))
	if err != nil {
		t.Fatal(err)
	}
	var others []core.VertexPtr
	if err := env.g.EnumerateEdges(tx, src, core.DirOut, "link", func(he core.HalfEdge) bool {
		others = append(others, he.Other)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	vs, err := env.g.ReadVertices(tx, others)
	if err != nil {
		t.Fatal(err)
	}
	best, bestN := "", 0
	for _, v := range vs {
		cat, _ := v.Data.Field(1)
		n := 0
		if err := env.g.IndexScan(tx, "node", "category", cat, func(core.VertexPtr) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		if best == "" || n < bestN || (n == bestN && cat.AsString() < best) {
			best, bestN = cat.AsString(), n
		}
	}
	return best
}

func TestReadSetDifferential(t *testing.T) {
	env := newReadEnv(t)
	hub := env.hub(t)
	rare := env.rareNeighborCategory(t, hub)
	twoHop := func(terminal string) string {
		return fmt.Sprintf(`{"id": %q, "_out_edge": {"_type": "link", "_vertex": {"_in_edge": {"_type": "link", "_vertex": %s}}}}`, hub, terminal)
	}
	recurse := func(body string) string {
		return fmt.Sprintf(`{"id": %q, "_recurse": {"_type": "link", "_dir": "in", %s}}`, hub, body)
	}
	hot := env.z.HotCategory()
	cases := []struct {
		name, doc    string
		terminalRead ReadKind // ReadNone: the terminal costs no vertex read at all
	}{
		{"count only", twoHop(`{"_select": ["_count(*)"]}`), ReadNone},
		{"count + _type", twoHop(`{"_type": "node", "_select": ["_count(*)"]}`), ReadHeader},
		{"count + predicate", twoHop(fmt.Sprintf(`{"category": %q, "_select": ["_count(*)"]}`, hot)), ReadFields},
		{"count + _sum", twoHop(`{"_select": ["_count(*)", "_sum(score)"]}`), ReadFields},
		{"count under _match", twoHop(fmt.Sprintf(
			`{"_match": [{"_out_edge": {"_type": "link", "_vertex": {"_type": "node", "id": %q}}}], "_select": ["_count(*)"]}`, hub)), ReadHeader},
		{"count behind an IndexFilter member set", fmt.Sprintf(
			`{"id": %q, "_out_edge": {"_type": "link", "_vertex": {"_type": "node", "category": %q, "_in_edge": {"_type": "link", "_vertex": {"_select": ["_count(*)"]}}}}}`,
			hub, rare), ReadNone},
		{"root TypeScan count", `{"_type": "node", "_select": ["_count(*)"]}`, ReadNone},
		{"_recurse count in a _min/_max window", recurse(`"_min": 2, "_max": 3, "_vertex": {"_select": ["_count(*)"]}`), ReadNone},
		{"_recurse _shortest rows", recurse(`"_max": 3, "_shortest": true`), ReadNone},
		{"_recurse count + predicate", recurse(fmt.Sprintf(`"_max": 2, "_vertex": {"category": %q, "_select": ["_count(*)"]}`, hot)), ReadFields},
		{"unordered _limit of pointer rows", twoHop(`{"_limit": 3}`), ReadNone},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q, err := Parse([]byte(tc.doc))
			if err != nil {
				t.Fatal(err)
			}
			term := q.Plan().Levels[len(q.Plan().Levels)-1]
			if term.Read.Kind != tc.terminalRead {
				t.Fatalf("terminal read set = %v, want kind %d", term.Read, tc.terminalRead)
			}
			// Warm the catalog proxies and B-tree node caches both sides use.
			if _, err := env.e.Execute(env.c, env.g, []byte(tc.doc)); err != nil {
				t.Fatal(err)
			}
			newFullOracle(t, env).run(q)

			res, err := env.e.Execute(env.c, env.g, []byte(tc.doc))
			if err != nil {
				t.Fatal(err)
			}
			o := newFullOracle(t, env)
			o.run(q)

			if o.count == 0 {
				t.Fatal("oracle found nothing: the case exercises no terminal")
			}
			tp := terminalOf(q.Root)
			if tp.Count {
				if res.Count != o.count {
					t.Errorf("count = %d, oracle %d", res.Count, o.count)
				}
				for raw, want := range o.sums {
					if got := res.Aggregates[raw]; got.AsInt() != want {
						t.Errorf("%s = %v, oracle %d", raw, got, want)
					}
				}
			} else {
				got := map[farm.Addr]int64{}
				for _, r := range res.Rows {
					got[r.Vertex.Addr] = r.Values[HopsColumn].AsInt()
				}
				want := len(o.rows)
				if tp.Limit > 0 && tp.Limit < want {
					want = tp.Limit // unordered: any K of the oracle's rows
				}
				if len(res.Rows) != len(got) || len(got) != want {
					t.Fatalf("%d rows (%d distinct), want %d of the oracle's %d", len(res.Rows), len(got), want, len(o.rows))
				}
				for addr, hops := range got {
					if h, ok := o.rows[addr]; !ok || h != hops {
						t.Errorf("row %v: hops %d, oracle has it=%v with hops %d", addr, hops, ok, h)
					}
				}
			}
			s := res.Stats
			if s.VerticesRead != o.vertices {
				t.Errorf("VerticesRead = %d, read sets predict %d", s.VerticesRead, o.vertices)
			}
			if want := o.iops.TotalReads() + o.objects; s.ObjectsRead != want {
				t.Errorf("ObjectsRead = %d, read sets predict %d (%d index + %d vertex objects)",
					s.ObjectsRead, want, o.iops.TotalReads(), o.objects)
			}
			if s.IndexFiltered != o.filtered {
				t.Errorf("IndexFiltered = %d, oracle %d", s.IndexFiltered, o.filtered)
			}
		})
	}
}

// TestCountTerminalReadsSnapshot: a pointer-only count trusts the frontier,
// which is sound only because a vertex's half-edges and index entries die
// in its own transaction. A count at a snapshot before a DeleteVertex still
// includes the vertex; one after does not.
func TestCountTerminalReadsSnapshot(t *testing.T) {
	env := newReadEnv(t)
	hub := env.hub(t)
	f := env.e.store.Farm()
	docs := map[string]string{
		"traversal": fmt.Sprintf(`{"id": %q, "_out_edge": {"_type": "link", "_vertex": {"_select": ["_count(*)"]}}}`, hub),
		"type scan": `{"_type": "node", "_select": ["_count(*)"]}`,
		"recursion": fmt.Sprintf(`{"id": %q, "_recurse": {"_type": "link", "_max": 1, "_vertex": {"_select": ["_count(*)"]}}}`, hub),
	}
	names := make([]string, 0, len(docs))
	for name := range docs {
		names = append(names, name)
	}
	sort.Strings(names)
	countAt := func(doc string, ts uint64) int64 {
		t.Helper()
		q, err := Parse([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		unpin, err := f.PinSnapshot(ts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := env.e.runAt(env.c, env.g, q, ts, unpin)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.VerticesRead > 1 {
			t.Fatalf("count read %d vertices: not a pointer-only terminal", res.Stats.VerticesRead)
		}
		return res.Count
	}
	before, unpin := f.PinCurrent()
	defer unpin()
	was := map[string]int64{}
	for _, name := range names {
		was[name] = countAt(docs[name], before)
	}
	// Delete one of the hub's out-neighbors.
	err := farm.RunTransaction(env.c, f, func(tx *farm.Tx) error {
		src, _, err := env.g.LookupVertex(tx, "node", bond.String(hub))
		if err != nil {
			return err
		}
		var victim core.VertexPtr
		if err := env.g.EnumerateEdges(tx, src, core.DirOut, "link", func(he core.HalfEdge) bool {
			victim = he.Other
			return false
		}); err != nil {
			return err
		}
		return env.g.DeleteVertex(tx, victim)
	})
	if err != nil {
		t.Fatal(err)
	}
	after := f.Clock().Current()
	for _, name := range names {
		if got := countAt(docs[name], before); got != was[name] {
			t.Errorf("%s at the old snapshot: count %d, was %d before the delete", name, got, was[name])
		}
		if got := countAt(docs[name], after); got != was[name]-1 {
			t.Errorf("%s after the delete: count %d, want %d", name, got, was[name]-1)
		}
	}
}
