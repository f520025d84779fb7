package a1_test

import (
	"fmt"
	"testing"

	"a1"
	"a1/internal/bench"
	"a1/internal/workload"
)

// Alloc-tracked microbenchmarks over the query hot path (Direct mode,
// real wall clock, -benchmem/-ReportAllocs): the 2-hop Zipf traversal,
// its pointer-only `_count(*)` form, the ordered index-scan root, and the
// `_groupby` rollup. These are the
// go-test twins of the `allocs` a1bench report — CI runs them with
// -benchmem so allocs/op regressions show next to the trend table.

func directZipf(b *testing.B) (*a1.DB, *a1.Graph, *workload.ZipfGraph) {
	b.Helper()
	db, err := a1.Open(a1.Options{Machines: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(db.Close)
	var g *a1.Graph
	z := workload.NewZipfGraph(2000, 6000, 1)
	var loadErr error
	db.Run(func(c *a1.Ctx) {
		if loadErr = db.CreateTenant(c, "bing"); loadErr != nil {
			return
		}
		if loadErr = db.CreateGraph(c, "bing", "zipf"); loadErr != nil {
			return
		}
		if g, loadErr = db.OpenGraph(c, "bing", "zipf"); loadErr != nil {
			return
		}
		loadErr = z.Load(c, g)
	})
	if loadErr != nil {
		b.Fatal(loadErr)
	}
	return db, g, z
}

func benchAllocQuery(b *testing.B, query func(z *workload.ZipfGraph) string) {
	b.Helper()
	db, g, z := directZipf(b)
	doc := query(z)
	db.Run(func(c *a1.Ctx) {
		// Warm plan cache and stats so iterations measure execution only.
		if _, err := db.Query(c, g, doc); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(c, g, doc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAllocZipfTwoHop is the headline path: top-K by score over the
// out-neighbors of the hot category (OrderedTraverse terminal).
func BenchmarkAllocZipfTwoHop(b *testing.B) {
	benchAllocQuery(b, func(z *workload.ZipfGraph) string {
		return z.TopKNeighborsQuery(z.HotCategory(), 10)
	})
}

// BenchmarkAllocZipfTwoHopCount is the pointer-only path: two hops into
// the biggest hub's in-neighborhood and a bare `_count(*)` terminal, which
// reads the two traversal levels' headers and edge lists and nothing of
// the vertices it counts.
func BenchmarkAllocZipfTwoHopCount(b *testing.B) {
	benchAllocQuery(b, func(z *workload.ZipfGraph) string {
		return fmt.Sprintf(`{"id": %q, "_in_edge": {"_type": "link", "_vertex": {"_in_edge": {"_type": "link", "_vertex": {"_select": ["_count(*)"]}}}}}`, z.VertexID(0))
	})
}

// BenchmarkAllocZipfTopKCategory is the ordered index-scan root.
func BenchmarkAllocZipfTopKCategory(b *testing.B) {
	benchAllocQuery(b, func(z *workload.ZipfGraph) string {
		return z.TopKInCategoryQuery(z.HotCategory(), 10)
	})
}

// BenchmarkAllocZipfGroupBy is the `_groupby` rollup over every vertex.
func BenchmarkAllocZipfGroupBy(b *testing.B) {
	benchAllocQuery(b, func(z *workload.ZipfGraph) string {
		return z.TopGroupsQuery(10)
	})
}

// BenchmarkAllocZipfGroupStream is the high-cardinality streamed form:
// one group per vertex, drained through the k-way run merge (`_limit`
// keeps each iteration to one page so no continuation state lingers).
func BenchmarkAllocZipfGroupStream(b *testing.B) {
	benchAllocQuery(b, func(z *workload.ZipfGraph) string {
		return `{"_type": "node", "_groupby": "score", "_select": ["_count(*)"], "_limit": 100}`
	})
}

// BenchmarkAllocZipfGroupHaving adds a `_having` bound that workers prove
// locally, so most groups ship as key-only tombstones.
func BenchmarkAllocZipfGroupHaving(b *testing.B) {
	benchAllocQuery(b, func(z *workload.ZipfGraph) string {
		return `{"_type": "node", "_groupby": "score", "_select": ["_count(*)", "_max(score)"], "_having": {"_max(score)": {"_lt": 400}}, "_limit": 100}`
	})
}

// filmKG loads the film knowledge graph at the paper's scale (a three-level
// primary index) into a fresh 8-machine Direct cluster, as a1perf's `point`
// and `traverse` set-ups do.
func filmKG(b *testing.B) (*a1.DB, *a1.Graph, workload.Params) {
	b.Helper()
	db, err := a1.Open(a1.Options{Machines: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(db.Close)
	p := workload.PaperParams()
	var g *a1.Graph
	var loadErr error
	db.Run(func(c *a1.Ctx) {
		if loadErr = db.CreateTenant(c, "bing"); loadErr != nil {
			return
		}
		if loadErr = db.CreateGraph(c, "bing", "kg"); loadErr != nil {
			return
		}
		if g, loadErr = db.OpenGraph(c, "bing", "kg"); loadErr != nil {
			return
		}
		loadErr = workload.NewFilmKG(p).Load(c, g)
	})
	if loadErr != nil {
		b.Fatal(loadErr)
	}
	return db, g, p
}

// BenchmarkFilmPoint is the a1perf `point` op outside the harness, for
// profiling (`-cpuprofile`): one ad-hoc untyped-`id` document per iteration
// with a projection, ids cycling over the actor pool. The documents differ
// only in their `id` literal, so after the first they all hit one cached
// plan: the plan key lifts the literal and binds it into the cached shape.
func BenchmarkFilmPoint(b *testing.B) {
	db, g, p := filmKG(b)
	db.Run(func(c *a1.Ctx) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			doc := fmt.Sprintf(`{"id":"actor.%05d","_select":["id","name[0]","popularity"]}`, i*7919%p.ActorPool)
			if _, err := db.Query(c, g, doc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFilmPointPrepared is BenchmarkFilmPoint through a prepared
// `"$id"` statement: the ceiling the ad-hoc path is measured against.
func BenchmarkFilmPointPrepared(b *testing.B) {
	db, g, p := filmKG(b)
	db.Run(func(c *a1.Ctx) {
		pq, err := db.Prepare(c, g, `{"id":"$id","_select":["id","name[0]","popularity"]}`)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := fmt.Sprintf("actor.%05d", i*7919%p.ActorPool)
			if _, err := pq.Exec(c, a1.Params{"id": id}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFilmTraverse is the a1perf `traverse` op outside the harness,
// for profiling: the paper's Q1–Q4 in a1perf's 4:16:16:1 mix, one
// closed-loop client per core (`-cpu 2` is a1perf's two clients).
func BenchmarkFilmTraverse(b *testing.B) {
	db, g, _ := filmKG(b)
	var cycle []string
	for i := 0; i < 16; i++ {
		cycle = append(cycle, bench.Q2, bench.Q3)
		if i%4 == 0 {
			cycle = append(cycle, bench.Q1)
		}
	}
	cycle = append(cycle, bench.Q4)
	filmClients(b, db, g, cycle)
}

// BenchmarkFilmQuery runs each template of BenchmarkFilmTraverse's cycle
// alone over one shared film KG, the same clients per core: ns/op times a
// template's count in the cycle is its share of a `traverse` op, which
// names the template a `traverse` change has to move.
func BenchmarkFilmQuery(b *testing.B) {
	db, g, _ := filmKG(b)
	for _, q := range []struct{ name, doc string }{
		{"Q1", bench.Q1}, {"Q2", bench.Q2}, {"Q3", bench.Q3}, {"Q4", bench.Q4},
	} {
		b.Run(q.name, func(b *testing.B) { filmClients(b, db, g, []string{q.doc}) })
	}
}

// filmClients runs docs round-robin from one closed-loop client per core.
func filmClients(b *testing.B, db *a1.DB, g *a1.Graph, docs []string) {
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		db.Run(func(c *a1.Ctx) {
			for i := 0; pb.Next(); i++ {
				if _, err := db.Query(c, g, docs[i%len(docs)]); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}
