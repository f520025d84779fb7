package core

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"a1/internal/bond"
	"a1/internal/fabric"
	"a1/internal/farm"
	"a1/internal/stats"
)

// statsView is the exact part of a graph summary: counts and the
// deletable distinct estimators, which an incremental feed and an Analyze
// rebuild must agree on to the unit. A zero entry and a missing one are
// the same (a type whose last vertex left keeps a zero row).
type statsView struct {
	types  map[string]int64
	fields map[string][2]int64 // "type.field" -> Count, Distinct
	edges  map[string][2]int64 // label -> Count, Sources
}

func viewOf(sum *stats.GraphSummary) statsView {
	v := statsView{types: map[string]int64{}, fields: map[string][2]int64{}, edges: map[string][2]int64{}}
	for tn, ts := range sum.Types {
		if ts.Count != 0 {
			v.types[tn] = ts.Count
		}
		for fn, fs := range ts.Fields {
			if fs.Count != 0 || fs.Distinct != 0 {
				v.fields[tn+"."+fn] = [2]int64{fs.Count, fs.Distinct}
			}
		}
	}
	for label, es := range sum.Edges {
		if es.Count != 0 || es.Sources != 0 {
			v.edges[label] = [2]int64{es.Count, es.Sources}
		}
	}
	return v
}

func (v statsView) equal(o statsView) bool {
	return maps.Equal(v.types, o.types) && maps.Equal(v.fields, o.fields) && maps.Equal(v.edges, o.edges)
}

// TestStatsMatchAnalyze drives every mutator through a script and holds
// the incrementally fed statistics to Analyze's rebuild from a full scan:
// a mutation whose delta is missing, doubled or attributed to the wrong
// value shows up as a difference.
func TestStatsMatchAnalyze(t *testing.T) {
	s, g, c := testGraph(t, 5)
	var actors []VertexPtr
	for i := 0; i < 20; i++ {
		origin := []string{"usa", "uk", "fr"}[i%3]
		actors = append(actors, mustCreateVertex(t, g, c, "actor", actorVal(fmt.Sprintf("actor%02d", i), origin)))
	}
	films := []VertexPtr{
		mustCreateVertex(t, g, c, "film", filmVal("jaws", "thriller")),
		mustCreateVertex(t, g, c, "film", filmVal("alien", "horror")),
	}
	run := func(fn func(tx *farm.Tx) error) {
		t.Helper()
		if err := farm.RunTransaction(c, s.farm, fn); err != nil {
			t.Fatal(err)
		}
	}
	// An indexed field moves to a new value, and another is cleared.
	run(func(tx *farm.Tx) error { return g.UpdateVertex(tx, actors[0], actorVal("actor00", "de")) })
	run(func(tx *farm.Tx) error {
		return g.UpdateVertex(tx, actors[1], bond.Struct(bond.FV(0, bond.String("actor01"))))
	})
	// A self-loop.
	mustCreateEdge(t, g, c, actors[2], "acted", actors[2], bond.Struct(bond.FV(0, bond.String("self"))))
	// films[0]'s out-list spills past EdgeSpillThreshold (16).
	for i := 3; i < 20; i++ {
		mustCreateEdge(t, g, c, films[0], "film.actor", actors[i], bond.Null)
	}
	// actors[4] gets an edge in each direction plus its film.actor in-edge.
	mustCreateEdge(t, g, c, actors[4], "acted", films[1], bond.Struct(bond.FV(0, bond.String("ripley"))))
	mustCreateEdge(t, g, c, actors[5], "acted", actors[4], bond.Null)
	run(func(tx *farm.Tx) error {
		ok, err := g.DeleteEdge(tx, films[0], "film.actor", actors[3])
		if err == nil && !ok {
			err = errors.New("edge to delete not found")
		}
		return err
	})
	run(func(tx *farm.Tx) error { return g.DeleteVertex(tx, actors[4]) })
	run(func(tx *farm.Tx) error { return g.DeleteVertex(tx, actors[2]) })

	key := statsKey(g.tenant, g.name)
	s.StatsTracker().Invalidate(key)
	live := viewOf(s.StatsSummary(c, g.tenant, g.name))
	sum, err := g.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := viewOf(sum)
	if !live.equal(rebuilt) {
		t.Fatalf("incremental statistics differ from Analyze:\n live    %+v\n rebuilt %+v", live, rebuilt)
	}
	if rebuilt.types["actor"] != 18 || rebuilt.edges["film.actor"][0] != 15 || rebuilt.edges["acted"][0] != 0 {
		t.Fatalf("script left %+v, want 18 actors, 15 film.actor and no acted edges", rebuilt)
	}
}

// errLog is the failing logger's error.
var errLog = errors.New("replication log unavailable")

// failingLogger refuses every log append, as a full or conflicting
// replication log would.
type failingLogger struct{}

func (failingLogger) LogChange(*farm.Tx, *Change) error { return errLog }

// dumpGraph renders everything a mutation can change: each vertex with its
// data and both edge lists, the secondary index, and the live statistics.
func dumpGraph(t *testing.T, s *Store, g *Graph, c *fabric.Ctx) string {
	t.Helper()
	var b strings.Builder
	tx := s.farm.CreatePinnedReadTransaction(c)
	defer tx.Abort()
	for _, typ := range []string{"actor", "film"} {
		var vps []VertexPtr
		if err := g.ScanVertexPtrsByType(tx, typ, func(vp VertexPtr) bool {
			vps = append(vps, vp)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		for _, vp := range vps {
			v, err := g.ReadVertex(tx, vp)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s %v out=%d in=%d\n", typ, v.Data, v.OutCount, v.InCount)
			for _, dir := range []Direction{DirOut, DirIn} {
				if err := g.EnumerateEdges(tx, vp, dir, "", func(he HalfEdge) bool {
					_, pk, err := g.VertexPK(tx, he.Other)
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(&b, "  %v %d %v\n", dir, he.TypeID, pk)
					return true
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, origin := range []string{"usa", "uk", "fr"} {
		n := 0
		if err := g.IndexScan(tx, "actor", "origin", bond.String(origin), func(VertexPtr) bool {
			n++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "origin=%s: %d\n", origin, n)
	}
	s.StatsTracker().Invalidate(statsKey(g.tenant, g.name))
	fmt.Fprintf(&b, "stats %+v\n", viewOf(s.StatsSummary(c, g.tenant, g.name)))
	return b.String()
}

// TestLogErrorAbortsMutation: a mutation whose replication-log append
// fails must fail with that error and leave the graph as it was. A
// mutation that commits without its log entry is lost at recovery.
func TestLogErrorAbortsMutation(t *testing.T) {
	mutators := map[string]func(g *Graph, tx *farm.Tx, actors []VertexPtr, film VertexPtr) error{
		"CreateVertex": func(g *Graph, tx *farm.Tx, _ []VertexPtr, _ VertexPtr) error {
			_, err := g.CreateVertex(tx, "actor", actorVal("newcomer", "uk"))
			return err
		},
		"UpdateVertex": func(g *Graph, tx *farm.Tx, actors []VertexPtr, _ VertexPtr) error {
			return g.UpdateVertex(tx, actors[0], actorVal("actor00", "fr"))
		},
		"DeleteVertex": func(g *Graph, tx *farm.Tx, actors []VertexPtr, _ VertexPtr) error {
			return g.DeleteVertex(tx, actors[0])
		},
		"CreateEdge": func(g *Graph, tx *farm.Tx, actors []VertexPtr, film VertexPtr) error {
			return g.CreateEdge(tx, film, "film.actor", actors[2], bond.Null)
		},
		"DeleteEdge": func(g *Graph, tx *farm.Tx, actors []VertexPtr, film VertexPtr) error {
			_, err := g.DeleteEdge(tx, film, "film.actor", actors[0])
			return err
		},
	}
	for _, name := range slices.Sorted(maps.Keys(mutators)) {
		t.Run(name, func(t *testing.T) {
			s, g, c := testGraph(t, 5)
			var actors []VertexPtr
			for i := 0; i < 3; i++ {
				actors = append(actors, mustCreateVertex(t, g, c, "actor", actorVal(fmt.Sprintf("actor%02d", i), "usa")))
			}
			film := mustCreateVertex(t, g, c, "film", filmVal("jaws", "thriller"))
			mustCreateEdge(t, g, c, film, "film.actor", actors[0], bond.Null)
			mustCreateEdge(t, g, c, actors[0], "acted", actors[1], bond.Null)
			before := dumpGraph(t, s, g, c)

			s.SetLogger(failingLogger{})
			err := farm.RunTransaction(c, s.farm, func(tx *farm.Tx) error {
				return mutators[name](g, tx, actors, film)
			})
			s.SetLogger(nil)
			if !errors.Is(err, errLog) {
				t.Fatalf("%s with a failing log = %v, want %v", name, err, errLog)
			}
			if after := dumpGraph(t, s, g, c); after != before {
				t.Fatalf("%s changed the graph although its log append failed:\nbefore\n%s\nafter\n%s", name, before, after)
			}
		})
	}
}
