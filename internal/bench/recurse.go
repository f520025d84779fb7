package bench

import (
	"a1"
	"a1/internal/workload"
)

// Recurse measures the `_recurse` frontier expansion on the Zipf workload,
// whose hub-skewed link edges make path counts explode combinatorially
// with depth while the reachable set saturates. The per-machine visited
// sets drop a re-entered vertex before it is read, so the report's figure
// of merit is vertex reads per reachable vertex: it stays at one (plus
// the root) however many paths lead into the set, where expansion without
// dedup would pay the path count.
func Recurse(spec Spec) (*Report, error) {
	vertices, edges := 2000, 6000
	if spec.Scale == ScalePaper {
		vertices, edges = 20000, 80000
	}
	maxes := []int{2, 3, 4, 6, 8}

	r := &Report{
		ID:     "recurse",
		Title:  "_recurse reachability: reads per reachable vertex under visited-set dedup (Zipf hubs)",
		Header: []string{"max", "reachable", "vreads", "edges_visited", "reads_per_reachable", "edges_per_read", "us"},
	}
	z := workload.NewZipfGraph(vertices, edges, spec.Seed)
	db, err := a1.Open(a1.Options{
		Machines:    spec.Machines,
		Racks:       spec.Racks,
		Mode:        a1.Sim,
		Seed:        spec.Seed,
		QueryConfig: spec.QueryCfg,
	})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	var g *a1.Graph
	// The hub core absorbs nearly all edges, but an individual hub can
	// still be out-degree-starved, so the root is the best of the first
	// candidates by 2-hop reach rather than assumed.
	var root string
	var runErr error
	db.Run(func(c *a1.Ctx) {
		if runErr = db.CreateTenant(c, "bing"); runErr != nil {
			return
		}
		if runErr = db.CreateGraph(c, "bing", "zipf"); runErr != nil {
			return
		}
		if g, runErr = db.OpenGraph(c, "bing", "zipf"); runErr != nil {
			return
		}
		if runErr = z.Load(c, g); runErr != nil {
			return
		}
		var best int64
		for i := 0; i < 20; i++ {
			res, err := db.QueryAt(c, g, z.ReachableCountQuery(z.VertexID(i), 2))
			if err != nil {
				runErr = err
				return
			}
			if res.Count > best {
				best, root = res.Count, z.VertexID(i)
			}
		}
	})
	if runErr != nil {
		return nil, runErr
	}
	for _, depth := range maxes {
		var rows int
		var vreads, evisits, us int64
		db.Run(func(c *a1.Ctx) {
			res, err := db.Query(c, g, z.ReachableQuery(root, depth))
			for {
				if err != nil {
					runErr = err
					return
				}
				rows += len(res.Rows)
				vreads += res.Stats.VerticesRead
				evisits += res.Stats.EdgesVisited
				us += res.Stats.Elapsed.Microseconds()
				if res.Continuation == "" {
					return
				}
				res, err = db.Fetch(c, res.Continuation)
			}
		})
		if runErr != nil {
			return nil, runErr
		}
		r.Add(float64(depth), float64(rows), float64(vreads), float64(evisits),
			float64(vreads)/float64(max(rows, 1)), float64(evisits)/float64(max(vreads, 1)), float64(us))
	}
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	r.Note("reads track the reachable set: %.0f vertices at _max=%d for %.0f reads (%.2f per reachable vertex; %.2f at _max=%d)",
		last[1], maxes[len(maxes)-1], last[2], last[4], first[4], maxes[0])
	r.Note("edges enumerated per read are the paths into the set the visited filter absorbed: %.1f at _max=%d -> %.1f at _max=%d, none of them a second read",
		first[5], maxes[0], last[5], maxes[len(maxes)-1])
	return r, nil
}
