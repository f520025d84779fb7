package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"a1/internal/bond"
	"a1/internal/fabric"
	"a1/internal/farm"
)

var (
	actorSchema = bond.MustSchema("Actor",
		bond.FReq(0, "name", bond.TString),
		bond.F(1, "origin", bond.TString),
		bond.F(2, "birth_date", bond.TDate),
	)
	filmSchema = bond.MustSchema("Film",
		bond.FReq(0, "name", bond.TString),
		bond.F(1, "genre", bond.TString),
		bond.F(2, "release_date", bond.TDate),
	)
	actedSchema = bond.MustSchema("Acted",
		bond.F(0, "character", bond.TString),
	)
)

// testGraph builds a store with the paper's film/actor example schema.
func testGraph(t *testing.T, machines int) (*Store, *Graph, *fabric.Ctx) {
	t.Helper()
	fab := fabric.New(fabric.DefaultConfig(machines, fabric.Direct), nil)
	f := farm.Open(fab, farm.Config{RegionSize: 8 << 20, Replicas: 3})
	t.Cleanup(func() {
		if n := f.PinnedSnapshots(); n != 0 {
			t.Errorf("%d snapshot pins still held at the end of the test", n)
		}
	})
	c := fab.NewCtx(0, nil)
	cfg := DefaultConfig()
	cfg.EdgeSpillThreshold = 16 // exercise spilling without huge tests
	s, err := Open(c, f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTenant(c, "bing"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateGraph(c, "bing", "films"); err != nil {
		t.Fatal(err)
	}
	g, err := s.OpenGraph(c, "bing", "films")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CreateVertexType(c, "actor", actorSchema, "name", "origin"); err != nil {
		t.Fatal(err)
	}
	if err := g.CreateVertexType(c, "film", filmSchema, "name"); err != nil {
		t.Fatal(err)
	}
	if err := g.CreateEdgeType(c, "acted", actedSchema); err != nil {
		t.Fatal(err)
	}
	if err := g.CreateEdgeType(c, "film.actor", nil); err != nil {
		t.Fatal(err)
	}
	return s, g, c
}

func actorVal(name, origin string) bond.Value {
	return bond.Struct(
		bond.FV(0, bond.String(name)),
		bond.FV(1, bond.String(origin)),
		bond.FV(2, bond.Date(10000)),
	)
}

func filmVal(name, genre string) bond.Value {
	return bond.Struct(
		bond.FV(0, bond.String(name)),
		bond.FV(1, bond.String(genre)),
	)
}

func mustCreateVertex(t *testing.T, g *Graph, c *fabric.Ctx, typ string, val bond.Value) VertexPtr {
	t.Helper()
	var vp VertexPtr
	err := farm.RunTransaction(c, g.store.farm, func(tx *farm.Tx) error {
		var err error
		vp, err = g.CreateVertex(tx, typ, val)
		return err
	})
	if err != nil {
		t.Fatalf("CreateVertex(%s): %v", typ, err)
	}
	return vp
}

func mustCreateEdge(t *testing.T, g *Graph, c *fabric.Ctx, src VertexPtr, etype string, dst VertexPtr, val bond.Value) {
	t.Helper()
	err := farm.RunTransaction(c, g.store.farm, func(tx *farm.Tx) error {
		return g.CreateEdge(tx, src, etype, dst, val)
	})
	if err != nil {
		t.Fatalf("CreateEdge(%s): %v", etype, err)
	}
}

func TestControlPlaneLifecycle(t *testing.T) {
	s, g, c := testGraph(t, 5)
	if err := s.CreateTenant(c, "bing"); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate tenant err = %v", err)
	}
	if err := s.CreateGraph(c, "bing", "films"); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate graph err = %v", err)
	}
	if err := s.CreateGraph(c, "nobody", "g"); !errors.Is(err, ErrNotFound) {
		t.Errorf("graph under missing tenant err = %v", err)
	}
	if err := g.CreateVertexType(c, "actor", actorSchema, "name"); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate vertex type err = %v", err)
	}
	if err := g.CreateVertexType(c, "bad", actorSchema, "nope"); !errors.Is(err, ErrBadSchema) {
		t.Errorf("bad pk field err = %v", err)
	}
	names, err := g.VertexTypeNames(c)
	if err != nil || len(names) != 2 {
		t.Errorf("vertex types = %v, %v", names, err)
	}
	enames, err := g.EdgeTypeNames(c)
	if err != nil || len(enames) != 2 {
		t.Errorf("edge types = %v, %v", enames, err)
	}
	graphs, err := s.GraphNames(c, "bing")
	if err != nil || len(graphs) != 1 || graphs[0] != "films" {
		t.Errorf("graphs = %v, %v", graphs, err)
	}
	if _, err := s.OpenGraph(c, "bing", "missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("open missing graph err = %v", err)
	}
}

func TestVertexCRUD(t *testing.T) {
	_, g, c := testGraph(t, 5)
	vp := mustCreateVertex(t, g, c, "actor", actorVal("tom.hanks", "usa"))

	// Lookup through the primary index.
	rtx := g.store.farm.CreateReadTransaction(c)
	got, ok, err := g.LookupVertex(rtx, "actor", bond.String("tom.hanks"))
	if err != nil || !ok || got.Addr != vp.Addr {
		t.Fatalf("LookupVertex = %v, %v, %v", got, ok, err)
	}
	v, err := g.ReadVertex(rtx, vp)
	if err != nil {
		t.Fatal(err)
	}
	if v.TypeName != "actor" {
		t.Errorf("type = %q", v.TypeName)
	}
	if origin, _ := v.Data.Field(1); origin.AsString() != "usa" {
		t.Errorf("origin = %v", origin)
	}

	// Duplicate primary key rejected.
	err = farm.RunTransaction(c, g.store.farm, func(tx *farm.Tx) error {
		_, err := g.CreateVertex(tx, "actor", actorVal("tom.hanks", "other"))
		return err
	})
	if !errors.Is(err, ErrExists) {
		t.Errorf("duplicate pk err = %v", err)
	}

	// Schema violations rejected.
	err = farm.RunTransaction(c, g.store.farm, func(tx *farm.Tx) error {
		_, err := g.CreateVertex(tx, "actor", bond.Struct(bond.FV(1, bond.String("no pk"))))
		return err
	})
	if !errors.Is(err, ErrBadSchema) {
		t.Errorf("missing pk err = %v", err)
	}

	// Update changes data and secondary index.
	err = farm.RunTransaction(c, g.store.farm, func(tx *farm.Tx) error {
		return g.UpdateVertex(tx, vp, actorVal("tom.hanks", "california"))
	})
	if err != nil {
		t.Fatal(err)
	}
	rtx = g.store.farm.CreateReadTransaction(c)
	v, err = g.ReadVertex(rtx, vp)
	if err != nil {
		t.Fatal(err)
	}
	if origin, _ := v.Data.Field(1); origin.AsString() != "california" {
		t.Errorf("after update origin = %v", origin)
	}
	var hits []VertexPtr
	if err := g.IndexScan(rtx, "actor", "origin", bond.String("california"), func(vp VertexPtr) bool {
		hits = append(hits, vp)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 {
		t.Errorf("secondary index hits = %d, want 1", len(hits))
	}
	if err := g.IndexScan(rtx, "actor", "origin", bond.String("usa"), func(vp VertexPtr) bool {
		t.Error("stale secondary index entry")
		return true
	}); err != nil {
		t.Fatal(err)
	}

	// Primary key immutable.
	err = farm.RunTransaction(c, g.store.farm, func(tx *farm.Tx) error {
		return g.UpdateVertex(tx, vp, actorVal("renamed", "usa"))
	})
	if !errors.Is(err, ErrImmutablePK) {
		t.Errorf("pk change err = %v", err)
	}

	// Delete removes vertex and index entries.
	err = farm.RunTransaction(c, g.store.farm, func(tx *farm.Tx) error {
		return g.DeleteVertex(tx, vp)
	})
	if err != nil {
		t.Fatal(err)
	}
	rtx = g.store.farm.CreateReadTransaction(c)
	if _, ok, _ := g.LookupVertex(rtx, "actor", bond.String("tom.hanks")); ok {
		t.Error("deleted vertex still in primary index")
	}
	if _, err := g.ReadVertex(rtx, vp); !errors.Is(err, ErrNotFound) {
		t.Errorf("read deleted vertex err = %v", err)
	}
}

func TestEdgeCRUDAndBidirectionalLists(t *testing.T) {
	_, g, c := testGraph(t, 5)
	hanks := mustCreateVertex(t, g, c, "actor", actorVal("tom.hanks", "usa"))
	film := mustCreateVertex(t, g, c, "film", filmVal("big", "comedy"))
	edgeData := bond.Struct(bond.FV(0, bond.String("Josh")))
	mustCreateEdge(t, g, c, film, "acted", hanks, edgeData)

	rtx := g.store.farm.CreateReadTransaction(c)
	// Forward half-edge on film.
	var outs []HalfEdge
	if err := g.EnumerateEdges(rtx, film, DirOut, "acted", func(he HalfEdge) bool {
		outs = append(outs, he)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || outs[0].Other.Addr != hanks.Addr {
		t.Fatalf("out edges = %+v", outs)
	}
	// Backward half-edge on actor.
	var ins []HalfEdge
	if err := g.EnumerateEdges(rtx, hanks, DirIn, "acted", func(he HalfEdge) bool {
		ins = append(ins, he)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(ins) != 1 || ins[0].Other.Addr != film.Addr {
		t.Fatalf("in edges = %+v", ins)
	}
	// Edge data readable.
	val, ok, err := g.GetEdge(rtx, film, "acted", hanks)
	if err != nil || !ok {
		t.Fatalf("GetEdge: %v %v", ok, err)
	}
	if ch, _ := val.Field(0); ch.AsString() != "Josh" {
		t.Errorf("character = %v", ch)
	}
	// Uniqueness per ⟨src, type, dst⟩.
	err = farm.RunTransaction(c, g.store.farm, func(tx *farm.Tx) error {
		return g.CreateEdge(tx, film, "acted", hanks, edgeData)
	})
	if !errors.Is(err, ErrExists) {
		t.Errorf("duplicate edge err = %v", err)
	}
	// Delete.
	err = farm.RunTransaction(c, g.store.farm, func(tx *farm.Tx) error {
		found, err := g.DeleteEdge(tx, film, "acted", hanks)
		if err == nil && !found {
			return errors.New("edge not found")
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	rtx = g.store.farm.CreateReadTransaction(c)
	if _, ok, _ := g.GetEdge(rtx, film, "acted", hanks); ok {
		t.Error("deleted edge still present")
	}
	out, in, err := g.EdgeCounts(rtx, film)
	if err != nil || out != 0 {
		t.Errorf("film out count = %d, %v", out, err)
	}
	if _, in2, _ := g.EdgeCounts(rtx, hanks); in2 != 0 {
		t.Errorf("actor in count = %d", in2)
	}
	_ = in
}

func TestVertexDeleteRemovesRemoteHalfEdges(t *testing.T) {
	// The paper's motivating constraint: deleting v2 must erase the edge
	// entry on v1 — no dangling edges, unlike TAO.
	_, g, c := testGraph(t, 5)
	v1 := mustCreateVertex(t, g, c, "film", filmVal("jaws", "thriller"))
	v2 := mustCreateVertex(t, g, c, "actor", actorVal("roy.scheider", "usa"))
	mustCreateEdge(t, g, c, v1, "film.actor", v2, bond.Null)

	err := farm.RunTransaction(c, g.store.farm, func(tx *farm.Tx) error {
		return g.DeleteVertex(tx, v2)
	})
	if err != nil {
		t.Fatal(err)
	}
	rtx := g.store.farm.CreateReadTransaction(c)
	count := 0
	if err := g.EnumerateEdges(rtx, v1, DirOut, "", func(HalfEdge) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Errorf("dangling half-edges on v1: %d", count)
	}
	out, _, err := g.EdgeCounts(rtx, v1)
	if err != nil || out != 0 {
		t.Errorf("v1 out count = %d, %v", out, err)
	}
}

func TestEdgeListGrowthAndSpill(t *testing.T) {
	_, g, c := testGraph(t, 5)
	hub := mustCreateVertex(t, g, c, "film", filmVal("hub", "epic"))
	const n = 40 // spill threshold is 16 in testGraph
	actors := make([]VertexPtr, n)
	for i := range actors {
		actors[i] = mustCreateVertex(t, g, c, "actor", actorVal(fmt.Sprintf("actor-%03d", i), "usa"))
		mustCreateEdge(t, g, c, hub, "film.actor", actors[i], bond.Null)
	}
	rtx := g.store.farm.CreateReadTransaction(c)
	out, _, err := g.EdgeCounts(rtx, hub)
	if err != nil || out != n {
		t.Fatalf("out count = %d, %v; want %d", out, err, n)
	}
	seen := map[farm.Addr]bool{}
	if err := g.EnumerateEdges(rtx, hub, DirOut, "film.actor", func(he HalfEdge) bool {
		seen[he.Other.Addr] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Errorf("enumerated %d distinct edges, want %d", len(seen), n)
	}
	// Spilled vertex must still support delete of individual edges.
	err = farm.RunTransaction(c, g.store.farm, func(tx *farm.Tx) error {
		found, err := g.DeleteEdge(tx, hub, "film.actor", actors[7])
		if err == nil && !found {
			return errors.New("edge not found in spilled list")
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	rtx = g.store.farm.CreateReadTransaction(c)
	out, _, _ = g.EdgeCounts(rtx, hub)
	if out != n-1 {
		t.Errorf("after delete out = %d, want %d", out, n-1)
	}
	// Deleting the hub erases every reverse half-edge.
	err = farm.RunTransaction(c, g.store.farm, func(tx *farm.Tx) error {
		return g.DeleteVertex(tx, hub)
	})
	if err != nil {
		t.Fatal(err)
	}
	rtx = g.store.farm.CreateReadTransaction(c)
	for i, a := range actors {
		if i == 7 {
			continue
		}
		_, in, err := g.EdgeCounts(rtx, a)
		if err != nil {
			t.Fatal(err)
		}
		if in != 0 {
			t.Fatalf("actor %d retains %d dangling in-edges", i, in)
		}
	}
}

func TestScanVerticesByType(t *testing.T) {
	_, g, c := testGraph(t, 5)
	for i := 0; i < 10; i++ {
		mustCreateVertex(t, g, c, "actor", actorVal(fmt.Sprintf("a%02d", i), "usa"))
	}
	rtx := g.store.farm.CreateReadTransaction(c)
	var pks []string
	err := g.ScanVerticesByType(rtx, "actor", func(pk bond.Value, vp VertexPtr) bool {
		pks = append(pks, pk.AsString())
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pks) != 10 || pks[0] != "a00" || pks[9] != "a09" {
		t.Errorf("scan pks = %v", pks)
	}
	n, err := g.CountVertices(c, "actor")
	if err != nil || n != 10 {
		t.Errorf("CountVertices = %d, %v", n, err)
	}
	// The pointer-only scan visits the same vertices in the same order.
	scan := func(tx *farm.Tx) (ptrs, bare []VertexPtr, err, bareErr error) {
		err = g.ScanVerticesByType(tx, "actor", func(_ bond.Value, vp VertexPtr) bool {
			ptrs = append(ptrs, vp)
			return true
		})
		bareErr = g.ScanVertexPtrsByType(tx, "actor", func(vp VertexPtr) bool {
			bare = append(bare, vp)
			return true
		})
		return ptrs, bare, err, bareErr
	}
	ptrs, bare, err, bareErr := scan(rtx)
	if err != nil || bareErr != nil || len(ptrs) != 10 || !slices.Equal(bare, ptrs) {
		t.Errorf("ScanVertexPtrsByType = %v, %v; ScanVerticesByType %v, %v", bare, bareErr, ptrs, err)
	}
	// A key that is not an ordered encoding fails both scans alike, after
	// the vertices before it.
	vt, err := g.vertexType(c, "actor")
	if err != nil {
		t.Fatal(err)
	}
	err = farm.RunTransaction(c, g.store.farm, func(tx *farm.Tx) error {
		// "a05", then the escape 0x00 0x01: a bad escape byte, sorting
		// between a05 and a06.
		bad := append(bond.OrderedEncode(nil, bond.String("a05"))[:4], 0x00, 0x01)
		return farm.OpenBTree(g.store.farm, vt.Primary).Put(tx, bad, farm.AppendPtr(nil, ptrs[0]))
	})
	if err != nil {
		t.Fatal(err)
	}
	ptrs, bare, err, bareErr = scan(g.store.farm.CreateReadTransaction(c))
	if err == nil || fmt.Sprint(bareErr) != fmt.Sprint(err) || len(ptrs) != 6 || !slices.Equal(bare, ptrs) {
		t.Errorf("corrupt key: ScanVertexPtrsByType visited %d, %v; ScanVerticesByType %d, %v", len(bare), bareErr, len(ptrs), err)
	}
}

// TestIndexRangeScan checks the ordered secondary-index walk over a
// half-open [lo, hi) range whose bounds fall between stored values.
func TestIndexRangeScan(t *testing.T) {
	_, g, c := testGraph(t, 5)
	for i, origin := range []string{"argentina", "brazil", "chile", "denmark"} {
		mustCreateVertex(t, g, c, "actor", actorVal(fmt.Sprintf("r%d", i), origin))
	}
	rtx := g.store.farm.CreateReadTransaction(c)
	count := 0
	err := g.IndexRangeScanBoundsDir(rtx, "actor", "origin", bond.String("b"), true, bond.String("d"), false, false, func([]byte, VertexPtr) bool {
		count++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 2 { // brazil, chile
		t.Errorf("range scan hits = %d, want 2", count)
	}
}

// TestIndexRangeScanDescending covers the rest of the ordered
// secondary-index walk: bound inclusivity per side, both directions,
// early stop, and ErrNotFound on a field without an index.
func TestIndexRangeScanDescending(t *testing.T) {
	_, g, c := testGraph(t, 5)
	origins := []string{"argentina", "brazil", "chile", "denmark", "ecuador", "france"}
	for i, origin := range origins {
		mustCreateVertex(t, g, c, "actor", actorVal(fmt.Sprintf("r%d", i), origin))
	}
	rtx := g.store.farm.CreateReadTransaction(c)
	// walk returns the origins visited, stopping after max hits (0: all).
	walk := func(lo bond.Value, loInc bool, hi bond.Value, hiInc bool, desc bool, max int) []string {
		t.Helper()
		var got []string
		err := g.IndexRangeScanBoundsDir(rtx, "actor", "origin", lo, loInc, hi, hiInc, desc, func(_ []byte, vp VertexPtr) bool {
			v, err := g.ReadVertex(rtx, vp)
			if err != nil {
				t.Fatal(err)
			}
			o, _ := v.Data.Field(1)
			got = append(got, o.AsString())
			return max == 0 || len(got) < max
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	cases := []struct {
		name  string
		lo    bond.Value
		loInc bool
		hi    bond.Value
		hiInc bool
		desc  bool
		max   int
		want  []string
	}{
		// Unbounded: every entry, high to low or low to high.
		{"desc", bond.Null, false, bond.Null, false, true, 0, []string{"france", "ecuador", "denmark", "chile", "brazil", "argentina"}},
		{"asc", bond.Null, false, bond.Null, false, false, 0, origins},
		// Bounds between stored values: [b, d) holds brazil and chile.
		{"[b,d)", bond.String("b"), true, bond.String("d"), false, false, 0, []string{"brazil", "chile"}},
		// Bounds on stored values: each side's inclusivity decides.
		{"[brazil,denmark]", bond.String("brazil"), true, bond.String("denmark"), true, false, 0, []string{"brazil", "chile", "denmark"}},
		{"(brazil,denmark)", bond.String("brazil"), false, bond.String("denmark"), false, false, 0, []string{"chile"}},
		{"[brazil,ecuador) desc", bond.String("brazil"), true, bond.String("ecuador"), false, true, 0, []string{"denmark", "chile", "brazil"}},
		// Early stop: the reverse walk reads only the high end.
		{"desc stop", bond.Null, false, bond.Null, false, true, 2, []string{"france", "ecuador"}},
		{"asc stop", bond.Null, false, bond.Null, false, false, 1, []string{"argentina"}},
	}
	for _, tc := range cases {
		if got := walk(tc.lo, tc.loInc, tc.hi, tc.hiInc, tc.desc, tc.max); !slices.Equal(got, tc.want) {
			t.Errorf("%s: walk = %v, want %v", tc.name, got, tc.want)
		}
	}
	// No index on the field: ErrNotFound, which the query layer's access
	// paths fall through on.
	err := g.IndexRangeScanBoundsDir(rtx, "actor", "birth_date", bond.Null, false, bond.Null, false, false, func([]byte, VertexPtr) bool { return true })
	if !errors.Is(err, ErrNotFound) {
		t.Errorf("unindexed field err = %v, want ErrNotFound", err)
	}
}

func TestGraphDeletingBlocksDataPlane(t *testing.T) {
	s, g, c := testGraph(t, 5)
	if err := s.SetGraphState(c, "bing", "films", GraphDeleting); err != nil {
		t.Fatal(err)
	}
	err := farm.RunTransaction(c, s.farm, func(tx *farm.Tx) error {
		_, err := g.CreateVertex(tx, "actor", actorVal("x", "y"))
		return err
	})
	if !errors.Is(err, ErrGraphDeleting) {
		t.Errorf("create on deleting graph err = %v", err)
	}
}

func TestSelfLoopEdge(t *testing.T) {
	_, g, c := testGraph(t, 5)
	v := mustCreateVertex(t, g, c, "actor", actorVal("ouroboros", "mars"))
	mustCreateEdge(t, g, c, v, "film.actor", v, bond.Null)
	rtx := g.store.farm.CreateReadTransaction(c)
	out, in, err := g.EdgeCounts(rtx, v)
	if err != nil || out != 1 || in != 1 {
		t.Fatalf("self-loop counts = %d/%d, %v", out, in, err)
	}
	err = farm.RunTransaction(c, g.store.farm, func(tx *farm.Tx) error {
		return g.DeleteVertex(tx, v)
	})
	if err != nil {
		t.Fatalf("delete self-loop vertex: %v", err)
	}
}

func TestSnapshotTraversalDuringUpdates(t *testing.T) {
	_, g, c := testGraph(t, 5)
	film := mustCreateVertex(t, g, c, "film", filmVal("snapshot", "drama"))
	for i := 0; i < 5; i++ {
		a := mustCreateVertex(t, g, c, "actor", actorVal(fmt.Sprintf("s%d", i), "usa"))
		mustCreateEdge(t, g, c, film, "film.actor", a, bond.Null)
	}
	ts, unpin := g.store.farm.PinCurrent()
	defer unpin()
	snap := g.store.farm.CreateReadTransactionAt(c, ts)
	// Concurrent growth.
	for i := 5; i < 10; i++ {
		a := mustCreateVertex(t, g, c, "actor", actorVal(fmt.Sprintf("s%d", i), "usa"))
		mustCreateEdge(t, g, c, film, "film.actor", a, bond.Null)
	}
	count := 0
	if err := g.EnumerateEdges(snap, film, DirOut, "", func(HalfEdge) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Errorf("snapshot enumeration saw %d edges, want 5", count)
	}
}

// TestVisitVertices: the batched visitor reads what it is asked for and no
// more — one header per vertex, the data object only past VisitHeader,
// each inline edge list once per visit however often it is enumerated —
// across mixed types, a spilled list, and a vertex deleted under the batch.
func TestVisitVertices(t *testing.T) {
	s, g, c := testGraph(t, 3)
	hanks := mustCreateVertex(t, g, c, "actor", actorVal("tom.hanks", "usa"))
	ryan := mustCreateVertex(t, g, c, "film", filmVal("saving.private.ryan", "war"))
	gump := mustCreateVertex(t, g, c, "film", filmVal("forrest.gump", "drama"))
	gone := mustCreateVertex(t, g, c, "actor", actorVal("nobody", "nowhere"))
	mustCreateEdge(t, g, c, ryan, "film.actor", hanks, bond.Null)
	mustCreateEdge(t, g, c, gump, "film.actor", hanks, bond.Null)
	mustCreateEdge(t, g, c, hanks, "acted", ryan, bond.Struct(bond.FV(0, bond.String("miller"))))
	if err := farm.RunTransaction(c, s.Farm(), func(tx *farm.Tx) error { return g.DeleteVertex(tx, gone) }); err != nil {
		t.Fatal(err)
	}
	batch := []VertexPtr{hanks, gone, ryan, gump}

	visit := func(proj Projection, fn func(v *VertexVisit) (bool, error)) int64 {
		t.Helper()
		var ops fabric.OpStats
		tx := s.Farm().CreateReadTransaction(c.WithStats(&ops))
		if err := g.VisitVertices(tx, batch, proj, fn); err != nil {
			t.Fatal(err)
		}
		return ops.TotalReads()
	}

	// Header only: type and degrees, no data, one read per live vertex.
	var seen []int
	reads := visit(VisitHeader, func(v *VertexVisit) (bool, error) {
		seen = append(seen, v.Index)
		if !v.Data.IsNull() || v.Encoded != nil {
			t.Errorf("vertex %d: data %v (%d bytes) from a header-only visit", v.Index, v.Data, len(v.Encoded))
		}
		if v.Index == 0 && (v.TypeName != "actor" || v.InCount != 2 || v.OutCount != 1) {
			t.Errorf("hanks: type %q in %d out %d", v.TypeName, v.InCount, v.OutCount)
		}
		return true, nil
	})
	if fmt.Sprint(seen) != "[0 2 3]" || reads != 4 { // the deleted vertex costs its header read too
		t.Errorf("header-only: visited %v with %d reads, want [0 2 3] with 4", seen, reads)
	}

	// An encoded visit reads the data object and decodes nothing of it.
	reads = visit(VisitEncoded, func(v *VertexVisit) (bool, error) {
		if !v.Data.IsNull() {
			t.Errorf("vertex %d: data %v decoded by an encoded visit", v.Index, v.Data)
		}
		want := map[int]string{0: "usa", 2: "war", 3: "drama"}[v.Index]
		got, err := bond.UnmarshalStructFields(v.Schema, v.Encoded, []uint16{1})
		if err != nil || !got.Equal(bond.Struct(bond.FV(1, bond.String(want)))) {
			t.Errorf("vertex %d: field 1 of the encoding = %v, %v; want %q", v.Index, got, err, want)
		}
		if pk, _ := bond.UnmarshalStructFields(v.Schema, v.Encoded, []uint16{v.PKField()}); pk.Len() != 1 {
			t.Errorf("vertex %d: primary-key field %d not in the encoding", v.Index, v.PKField())
		}
		return true, nil
	})
	if reads != 7 {
		t.Errorf("encoded: %d reads, want 7 (4 headers + 3 data objects)", reads)
	}
	visit(VisitDecoded, func(v *VertexVisit) (bool, error) {
		if pk, ok := v.PK(); !ok || (v.Index == 0 && pk.AsString() != "tom.hanks") {
			t.Errorf("vertex %d: pk %v %v", v.Index, pk, ok)
		}
		return v.Index < 2, nil // stop before the last vertex is read
	})

	// Edges come off the visit's own header; a list is read once per visit.
	reads = visit(VisitHeader, func(v *VertexVisit) (bool, error) {
		if v.Index != 0 {
			return true, nil
		}
		for _, etype := range []string{"film.actor", "", "film.actor"} {
			n := 0
			if err := v.Edges(DirIn, etype, func(HalfEdge) bool { n++; return true }); err != nil {
				return false, err
			}
			if n != 2 {
				t.Errorf("hanks in-edges (%q) = %d, want 2", etype, n)
			}
		}
		n := 0
		err := v.Edges(DirOut, "acted", func(he HalfEdge) bool {
			n++
			if he.Other != ryan || he.Data.IsNil() {
				t.Errorf("acted edge = %+v", he)
			}
			return true
		})
		if n != 1 {
			t.Errorf("hanks acted edges = %d, want 1", n)
		}
		return true, err
	})
	if reads != 6 {
		t.Errorf("edges: %d reads, want 6 (4 headers + hanks's two lists)", reads)
	}
	if err := g.VisitVertices(s.Farm().CreateReadTransaction(c), batch[:1], VisitHeader, func(v *VertexVisit) (bool, error) {
		return true, v.Edges(DirOut, "no.such.edge", func(HalfEdge) bool { return true })
	}); !errors.Is(err, ErrNoSuchType) {
		t.Errorf("unknown edge type: err = %v", err)
	}

	// A spilled list enumerates through the same call.
	for i := 0; i < 20; i++ {
		a := mustCreateVertex(t, g, c, "actor", actorVal(fmt.Sprintf("extra.%02d", i), "usa"))
		mustCreateEdge(t, g, c, ryan, "film.actor", a, bond.Null)
	}
	cast := 0
	visit(VisitHeader, func(v *VertexVisit) (bool, error) {
		if v.Index != 2 {
			return true, nil
		}
		return true, v.Edges(DirOut, "film.actor", func(HalfEdge) bool { cast++; return true })
	})
	if cast != 21 {
		t.Errorf("spilled cast list = %d edges, want 21", cast)
	}
}

// TestLookupVertexAnyType: the untyped lookup fans out over the cached type
// directory (no catalog read beyond the per-type primary-index reads), and
// re-reads the catalog once for a type newer than the cached directory.
func TestLookupVertexAnyType(t *testing.T) {
	s, g, c := testGraph(t, 5)
	mustCreateVertex(t, g, c, "actor", actorVal("alice", "uk"))
	jaws := mustCreateVertex(t, g, c, "film", filmVal("jaws", "thriller"))

	c1 := s.Farm().Fabric().NewCtx(1, nil)
	reads := func(fn func(tx *farm.Tx)) int {
		var ops fabric.OpStats
		fn(s.Farm().CreateReadTransaction(c1.WithStats(&ops)))
		return int(ops.TotalReads())
	}
	untyped := func(tx *farm.Tx) {
		vp, ok, err := g.LookupVertexAnyType(tx, bond.String("jaws"))
		if err != nil || !ok || vp != jaws {
			t.Errorf("LookupVertexAnyType(jaws) = %v, %v, %v; want %v", vp, ok, err, jaws)
		}
	}
	typed := func(tx *farm.Tx) {
		for _, typ := range []string{"actor", "film"} { // the directory's name order
			if _, _, err := g.LookupVertex(tx, typ, bond.String("jaws")); err != nil {
				t.Error(err)
			}
		}
	}
	reads(untyped) // warm machine 1's type directory and node caches
	if got, want := reads(untyped), reads(typed); got != want {
		t.Errorf("untyped lookup cost %d reads, the typed lookups it fans out to cost %d", got, want)
	}

	// A type created behind a stale directory is still found.
	key := "bing/films"
	stale := s.proxy(c1, key).types.Load()
	if stale == nil {
		t.Fatal("machine 1 has no cached type directory after a lookup")
	}
	if err := g.CreateVertexType(c, "studio", filmSchema, "name"); err != nil {
		t.Fatal(err)
	}
	amblin := mustCreateVertex(t, g, c, "studio", filmVal("amblin", ""))
	s.proxy(c1, key).types.Store(stale)
	tx := s.Farm().CreateReadTransaction(c1)
	if vp, ok, err := g.LookupVertexAnyType(tx, bond.String("amblin")); err != nil || !ok || vp != amblin {
		t.Errorf("lookup behind a stale directory = %v, %v, %v; want %v", vp, ok, err, amblin)
	}
	if _, ok, err := g.LookupVertexAnyType(tx, bond.String("nobody")); err != nil || ok {
		t.Errorf("unknown id = found %v, err %v", ok, err)
	}
}
