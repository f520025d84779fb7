package a1

import (
	"reflect"
	"testing"

	"a1/internal/workload"
)

// TestAnalyzeRepeatable: rebuilding statistics from the same data yields
// the same summary every time, and so the same plan. The Zipf graph's mid
// categories tie in the heavy-hitter sketches, which is where an eviction
// that followed map iteration order moved their equality estimates, and
// with them the top-K plan of c004–c009, from one Analyze to the next.
func TestAnalyzeRepeatable(t *testing.T) {
	db := openTestDB(t, Options{Machines: 8})
	z := workload.NewZipfGraph(10000, 30000, 1)
	db.Run(func(c *Ctx) {
		if err := db.CreateTenant(c, "bing"); err != nil {
			t.Fatal(err)
		}
		if err := db.CreateGraph(c, "bing", "zipf"); err != nil {
			t.Fatal(err)
		}
		g, err := db.OpenGraph(c, "bing", "zipf")
		if err != nil {
			t.Fatal(err)
		}
		if err := z.Load(c, g); err != nil {
			t.Fatal(err)
		}
		var first *GraphStatistics
		var plans []string
		for run := 0; run < 20; run++ {
			s, err := db.Analyze(c, g)
			if err != nil {
				t.Fatal(err)
			}
			for i := 4; i <= 9; i++ {
				plan, err := db.Explain(c, g, z.TopKInCategoryQuery(z.CategoryName(i), 10))
				if err != nil {
					t.Fatal(err)
				}
				if run == 0 {
					plans = append(plans, plan)
				} else if plan != plans[i-4] {
					t.Fatalf("Analyze %d: %s plan\n%s\nwant\n%s", run, z.CategoryName(i), plan, plans[i-4])
				}
			}
			if run == 0 {
				first = s
			} else if !reflect.DeepEqual(s.Types, first.Types) || !reflect.DeepEqual(s.Edges, first.Edges) {
				t.Fatalf("Analyze %d: summary differs from the first", run)
			}
		}
	})
}
