package workload

import (
	"fmt"
	"math/rand"

	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/fabric"
)

// ZipfGraph is a synthetic workload with heavy value skew — the dataset
// stats-sensitive plans are tested against. Vertices carry two secondary-
// indexed fields: `category`, whose values follow a Zipf distribution (a
// few categories cover most vertices, a long tail covers the rest), and
// `score`, unique per vertex. Edges prefer high-rank destinations
// (hub-and-spoke degree skew). A structural planner always serves
// `{"category": hot, "_orderby": "-score", "_limit": K}` from the category
// index and reads the whole hot set; a cost-based planner sees the heavy
// hitter and walks the score index instead, reading O(K) vertices.
type ZipfGraph struct {
	Vertices   int
	Edges      int
	Categories int
	// Skew is the Zipf s parameter (> 1; larger = heavier head).
	Skew float64
	Seed int64
	// Batch groups creations per transaction during loading.
	Batch int

	Stats Stats
}

// ZipfSchema is the skewed workload's vertex schema.
var ZipfSchema = bond.MustSchema("node",
	bond.FReq(0, "id", bond.TString),
	bond.F(1, "category", bond.TString),
	bond.F(2, "score", bond.TInt64),
)

// NewZipfGraph prepares a generator with the default skew.
func NewZipfGraph(vertices, edges int, seed int64) *ZipfGraph {
	return &ZipfGraph{
		Vertices:   vertices,
		Edges:      edges,
		Categories: 50,
		Skew:       1.3,
		Seed:       seed,
		Batch:      128,
	}
}

// VertexID returns the primary key of vertex i.
func (z *ZipfGraph) VertexID(i int) string { return fmt.Sprintf("z%07d", i) }

// CategoryName returns the category with the given popularity rank
// (rank 0 is the hottest).
func (z *ZipfGraph) CategoryName(rank int) string { return fmt.Sprintf("c%03d", rank) }

// HotCategory is the heaviest category — the heavy hitter the planner
// should recognize.
func (z *ZipfGraph) HotCategory() string { return z.CategoryName(0) }

// TailCategory is a rarely-used category, where the equality index is
// genuinely selective.
func (z *ZipfGraph) TailCategory() string { return z.CategoryName(z.Categories - 1) }

// Load creates the schema (category and score secondary indexed) and data.
func (z *ZipfGraph) Load(c *fabric.Ctx, g *core.Graph) error {
	rng := rand.New(rand.NewSource(z.Seed))
	zipf := rand.NewZipf(rng, z.Skew, 1, uint64(z.Categories-1))
	if err := g.CreateVertexType(c, "node", ZipfSchema, "id", "category", "score"); err != nil {
		return err
	}
	if err := g.CreateEdgeType(c, "link", nil); err != nil {
		return err
	}
	l := &loader{c: c, g: g, batch: z.Batch, verts: map[string]core.VertexPtr{}, stats: &z.Stats}
	ptrs := make([]core.VertexPtr, z.Vertices)
	for i := 0; i < z.Vertices; i++ {
		id := z.VertexID(i)
		val := bond.Struct(
			bond.FV(0, bond.String(id)),
			bond.FV(1, bond.String(z.CategoryName(int(zipf.Uint64())))),
			bond.FV(2, bond.Int64(int64(i))),
		)
		vp, err := l.vertexTyped("node", id, val)
		if err != nil {
			return err
		}
		ptrs[i] = vp
	}
	// Edges with skewed destinations: sources uniform, targets Zipf-ranked
	// so a few hubs absorb most in-edges.
	dstZipf := rand.NewZipf(rng, z.Skew, 1, uint64(z.Vertices-1))
	seen := map[[2]int]bool{}
	for e := 0; e < z.Edges; {
		a := rng.Intn(z.Vertices)
		b := int(dstZipf.Uint64())
		if a == b || seen[[2]int{a, b}] {
			if len(seen) >= z.Vertices*(z.Vertices-1) {
				break
			}
			continue
		}
		seen[[2]int{a, b}] = true
		if err := l.edge(ptrs[a], "link", ptrs[b]); err != nil {
			return err
		}
		e++
	}
	return l.flush()
}

// TopKInCategoryQuery is the stats-sensitive query shape: the top-K scores
// within a category. On the hot category a structural planner reads the
// whole category through the equality index; a cost-based planner walks
// the score index and stops after ≈K reads.
func (z *ZipfGraph) TopKInCategoryQuery(category string, k int) string {
	return fmt.Sprintf(`{"_type": "node", "category": %q, "_orderby": "-score", "_limit": %d, "_select": ["id", "score"]}`, category, k)
}

// TopKNeighborsQuery is the ordered-traversal shape: the top-K scores
// among the out-neighbors of a category's vertices. The frontier arrives
// from a traversal (not an index), so a structural planner materializes
// and sorts it at the coordinator, while a cost-based planner compiles the
// terminal to OrderedTraverse — per-machine score-index walks restricted
// to the frontier, merged top-K at the coordinator.
func (z *ZipfGraph) TopKNeighborsQuery(category string, k int) string {
	return fmt.Sprintf(`{"_type": "node", "category": %q, "_out_edge": {"_type": "link", "_vertex": {"_type": "node", "_orderby": "-score", "_limit": %d, "_select": ["id", "score"]}}}`, category, k)
}

// TopGroupsQuery ranks categories by population — the `_groupby` +
// aggregate `_orderby` top-K-groups shape.
func (z *ZipfGraph) TopGroupsQuery(k int) string {
	return fmt.Sprintf(`{"_type": "node", "_groupby": "category", "_select": ["_count(*)"], "_orderby": "-_count(*)", "_limit": %d}`, k)
}
