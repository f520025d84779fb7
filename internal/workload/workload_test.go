package workload

import (
	"testing"

	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/fabric"
	"a1/internal/farm"
)

// openTestGraph opens an empty graph on a fresh 8-machine Direct cluster.
func openTestGraph(t *testing.T) (*core.Graph, *fabric.Ctx, *farm.Farm) {
	t.Helper()
	return openGraphOn(t, farm.Open(fabric.New(fabric.DefaultConfig(8, fabric.Direct), nil), farm.Config{RegionSize: 16 << 20}))
}

// openGraphOn is openTestGraph on a farm the caller opened.
func openGraphOn(t *testing.T, f *farm.Farm) (*core.Graph, *fabric.Ctx, *farm.Farm) {
	t.Helper()
	c := f.Fabric().NewCtx(0, nil)
	s, err := core.Open(c, f, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.CreateTenant(c, "bing")
	s.CreateGraph(c, "bing", "kg")
	g, err := s.OpenGraph(c, "bing", "kg")
	if err != nil {
		t.Fatal(err)
	}
	return g, c, f
}

func loadKG(t *testing.T, p Params) (*FilmKG, *core.Graph, *fabric.Ctx, *farm.Farm) {
	t.Helper()
	g, c, f := openTestGraph(t)
	kg := NewFilmKG(p)
	if err := kg.Load(c, g); err != nil {
		t.Fatal(err)
	}
	return kg, g, c, f
}

func TestFilmKGShape(t *testing.T) {
	p := TestParams()
	kg, g, c, f := loadKG(t, p)
	if kg.Stats.Vertices == 0 || kg.Stats.Edges == 0 {
		t.Fatalf("empty KG: %+v", kg.Stats)
	}
	tx := f.CreateReadTransaction(c)
	// The paper's anchor entities exist.
	for _, id := range []string{kg.SpielbergID, kg.HanksID, kg.BatmanID, "war"} {
		if _, ok, err := g.LookupVertex(tx, "entity", bond.String(id)); err != nil || !ok {
			t.Errorf("anchor %q missing (%v)", id, err)
		}
	}
	// Spielberg's out-degree matches the parameterization.
	sp, _, _ := g.LookupVertex(tx, "entity", bond.String(kg.SpielbergID))
	films := 0
	g.EnumerateEdges(tx, sp, core.DirOut, "director.film", func(core.HalfEdge) bool {
		films++
		return true
	})
	if films != p.SpielbergFilms {
		t.Errorf("spielberg films = %d, want %d", films, p.SpielbergFilms)
	}
	// Every film.actor edge has a mirror actor.film edge (generator
	// creates both directions).
	film0, _, _ := g.LookupVertex(tx, "entity", bond.String("film.spielberg.000"))
	bad := 0
	g.EnumerateEdges(tx, film0, core.DirOut, "film.actor", func(he core.HalfEdge) bool {
		if _, ok, _ := g.GetEdge(tx, he.Other, "actor.film", film0); !ok {
			bad++
		}
		return true
	})
	if bad != 0 {
		t.Errorf("%d film.actor edges lack the actor.film mirror", bad)
	}
}

func TestFilmKGDeterministic(t *testing.T) {
	kg1, _, _, _ := loadKG(t, TestParams())
	kg2, _, _, _ := loadKG(t, TestParams())
	if kg1.Stats != kg2.Stats {
		t.Errorf("same seed produced different graphs: %+v vs %+v", kg1.Stats, kg2.Stats)
	}
}

func TestUniformGraphShape(t *testing.T) {
	fab := fabric.New(fabric.DefaultConfig(6, fabric.Direct), nil)
	f := farm.Open(fab, farm.Config{RegionSize: 16 << 20})
	c := fab.NewCtx(0, nil)
	s, err := core.Open(c, f, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.CreateTenant(c, "t")
	s.CreateGraph(c, "t", "u")
	g, err := s.OpenGraph(c, "t", "u")
	if err != nil {
		t.Fatal(err)
	}
	u := NewUniformGraph(100, 300, 5)
	if err := u.Load(c, g); err != nil {
		t.Fatal(err)
	}
	if u.Stats.Vertices != 100 || u.Stats.Edges != 300 {
		t.Errorf("stats = %+v", u.Stats)
	}
	n, err := g.CountVertices(c, "entity")
	if err != nil || n != 100 {
		t.Errorf("count = %d, %v", n, err)
	}
	doc := u.TwoHopQuery(u.VertexID(0))
	if len(doc) == 0 {
		t.Error("empty query doc")
	}
}

// TestLoadedBytesUnchanged pins Farm.UsedBytes() after the seeded loads:
// the load goes through every index mutation path, so any change to a node
// image's length, a split point or an allocation size shows here. It is a
// wire-format guard, not a budget — a deliberate format or allocation change
// re-records it and says so. The figures were last re-recorded when edge
// lists and vertex data began to grow in place into their slot's slack and
// a moved object stopped leaving a tombstone (231200 → 183520 and 2517184 →
// 1685504 pinned, 157600 → 107616 and 1602816 → 711616 reclaimed). A pin
// taken right after farm.Open keeps every superseded version and every
// moved object's tombstone. Without it, commits free what no reader can
// see, and the reclaimed figures are checked beside the pinned ones.
func TestLoadedBytesUnchanged(t *testing.T) {
	for _, tc := range []struct {
		pinned    bool
		kg, zipf  uint64
		recording string
	}{
		{true, 183520, 1685504, "recorded"},
		{false, 107616, 711616, "reclaimed"},
	} {
		open := func() (*core.Graph, *fabric.Ctx, *farm.Farm) {
			f := farm.Open(fabric.New(fabric.DefaultConfig(8, fabric.Direct), nil), farm.Config{RegionSize: 16 << 20})
			if tc.pinned {
				_, unpin := f.PinCurrent()
				t.Cleanup(unpin)
			}
			return openGraphOn(t, f)
		}
		g, c, f := open()
		if err := NewFilmKG(TestParams()).Load(c, g); err != nil {
			t.Fatal(err)
		}
		if got := f.UsedBytes(); got != tc.kg {
			t.Errorf("film KG at TestParams, pinned %v: UsedBytes = %d, %s %d", tc.pinned, got, tc.recording, tc.kg)
		}

		g, c, f = open()
		if err := NewZipfGraph(1000, 2000, 1).Load(c, g); err != nil {
			t.Fatal(err)
		}
		if got := f.UsedBytes(); got != tc.zipf {
			t.Errorf("Zipf graph 1000/2000 seed 1, pinned %v: UsedBytes = %d, %s %d", tc.pinned, got, tc.recording, tc.zipf)
		}
	}
}
