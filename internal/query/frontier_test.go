package query

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/fabric"
	"a1/internal/farm"
)

// The per-owner frontier merge: replies merge into per-owner address sets
// as they arrive, in parallel, so a level's merge overlaps its owners'
// work instead of following the last reply; the sets are exact global
// dedup, so nothing a query reports may change.

// Fan-in shape: a hub links to faninMids vertices spread evenly over every
// machine of a 16-machine cluster, and each of those links to faninPerMid
// vertices of a shared pool of faninLeaves.
const (
	faninMachines = 16
	faninMids     = 64
	faninPerMid   = 165
	faninLeaves   = 1500
)

// newFaninEnv builds the fan-in graph in Sim mode, every vertex placed on
// the machine whose context created it.
func newFaninEnv(t *testing.T) *scatterEnv {
	t.Helper()
	sc := simNew(t, faninMachines)
	env := &scatterEnv{fab: sc.fab}
	env.run = func(fn func(c *fabric.Ctx)) {
		sc.run(func(p simProc) { fn(sc.fab.NewCtx(0, p.p)) })
	}
	env.run(func(c *fabric.Ctx) {
		cfg := core.DefaultConfig()
		cfg.RandomPlacement = false
		s, err := core.Open(c, sc.farm, cfg)
		if err == nil {
			err = s.CreateTenant(c, "t")
		}
		if err == nil {
			err = s.CreateGraph(c, "t", "g")
		}
		if err == nil {
			env.g, err = s.OpenGraph(c, "t", "g")
		}
		if err == nil {
			err = env.g.CreateVertexType(c, "node", scatterSchema, "id")
		}
		if err == nil {
			err = env.g.CreateEdgeType(c, "link", nil)
		}
		if err != nil {
			t.Error(err)
			return
		}
		env.e = NewEngine(s, DefaultConfig())
		node := func(id string) bond.Value { return bond.Struct(bond.FV(0, bond.String(id))) }
		mids := make([]core.VertexPtr, faninMids)
		leaves := make([]core.VertexPtr, faninLeaves)
		for m := 0; m < faninMachines; m++ {
			err := farm.RunTransaction(c.At(fabric.MachineID(m)), sc.farm, func(tx *farm.Tx) error {
				var err error
				for i := m; i < faninMids && err == nil; i += faninMachines {
					mids[i], err = env.g.CreateVertex(tx, "node", node(fmt.Sprintf("mid.%02d", i)))
				}
				for i := m; i < faninLeaves && err == nil; i += faninMachines {
					leaves[i], err = env.g.CreateVertex(tx, "node", node(fmt.Sprintf("leaf.%04d", i)))
				}
				return err
			})
			if err != nil {
				t.Error(err)
				return
			}
		}
		err = farm.RunTransaction(c, sc.farm, func(tx *farm.Tx) error {
			hub, err := env.g.CreateVertex(tx, "node", node("hub"))
			for i := 0; i < faninMids && err == nil; i++ {
				err = env.g.CreateEdge(tx, hub, "link", mids[i], bond.Null)
			}
			return err
		})
		for i := 0; i < faninMids && err == nil; i++ {
			err = farm.RunTransaction(c, sc.farm, func(tx *farm.Tx) error {
				for j := 0; j < faninPerMid; j++ {
					// j*7 mod 1500 is distinct for j < 1500: no parallel edges.
					if err := env.g.CreateEdge(tx, mids[i], "link", leaves[(i*131+j*7)%faninLeaves], bond.Null); err != nil {
						return err
					}
				}
				return nil
			})
		}
		if err != nil {
			t.Error(err)
		}
	})
	return env
}

// TestFaninMergeOverlapsReplies: Q4's shape at test scale. The last hop
// fans faninMids·faninPerMid raw pointers in from 16 owners into a bare
// `_count(*)`. Charged serially after the last reply, CostMerge alone for
// those pointers exceeds this bound; merged per owner as each reply lands,
// the whole query finishes inside it. Every count the query reports is the
// one the serial merge reported.
func TestFaninMergeOverlapsReplies(t *testing.T) {
	env := newFaninEnv(t)
	doc := `{"id": "hub", "_out_edge": {"_type": "link", "_vertex": {"_out_edge": {"_type": "link", "_vertex": {"_select": ["_count(*)"]}}}}}`
	var res *Result
	env.run(func(c *fabric.Ctx) {
		var err error
		if res, err = env.e.Execute(c, env.g, []byte(doc)); err != nil {
			t.Error(err)
		}
	})
	if res == nil {
		return
	}
	raw := faninMids * faninPerMid
	if bound := time.Duration(raw) * env.e.cfg.CostMerge; res.Stats.Elapsed >= bound {
		t.Errorf("Elapsed = %v, want < %v (CostMerge for %d raw pointers)", res.Stats.Elapsed, bound, raw)
	}
	// Recorded from the serial merge.
	want := Stats{VerticesRead: 65, RPCs: 15, BytesShipped: 118800, Levels: []LevelStats{
		{Depth: 0, Source: `IDLookup(id="hub")`, EstRows: 1, ActRows: 1},
		{Depth: 1, Source: "Traverse(out link)", EstRows: 163, ActRows: 64},
		{Depth: 2, Source: "Traverse(out link)", EstRows: 26715, ActRows: 1500},
	}}
	got := Stats{VerticesRead: res.Stats.VerticesRead, RPCs: res.Stats.RPCs, BytesShipped: res.Stats.BytesShipped, Levels: res.Stats.Levels}
	if res.Count != faninLeaves || !reflect.DeepEqual(got, want) {
		t.Errorf("count %d, stats %+v; want %d, %+v", res.Count, got, faninLeaves, want)
	}
}

// propNode is one vertex of the exactness model.
type propNode struct {
	id    string
	score int64
	cat   string
	out   []int
}

// propGraph is a seeded random graph with heavy fan-in: half of all edges
// land on a small hot set.
type propGraph struct{ nodes []propNode }

const propHot = 12

func newPropGraph(seed int64, n int) *propGraph {
	rng := rand.New(rand.NewSource(seed))
	pg := &propGraph{nodes: make([]propNode, n)}
	for i := range pg.nodes {
		nd := &pg.nodes[i]
		nd.id, nd.score, nd.cat = fmt.Sprintf("v%03d", i), int64(rng.Intn(40)), string(rune('a'+rng.Intn(4)))
		seen := map[int]bool{}
		for k := rng.Intn(9); k > 0; k-- {
			to := rng.Intn(n)
			if rng.Intn(2) == 0 {
				to = rng.Intn(propHot)
			}
			if !seen[to] {
				seen[to] = true
				nd.out = append(nd.out, to)
			}
		}
	}
	return pg
}

// load writes the model into g and returns each vertex's pointer there.
func (pg *propGraph) load(c *fabric.Ctx, f *farm.Farm, g *core.Graph) ([]core.VertexPtr, error) {
	if err := g.CreateVertexType(c, "node", scatterSchema, "id", "score", "cat"); err != nil {
		return nil, err
	}
	if err := g.CreateEdgeType(c, "link", nil); err != nil {
		return nil, err
	}
	ptrs := make([]core.VertexPtr, len(pg.nodes))
	return ptrs, farm.RunTransaction(c, f, func(tx *farm.Tx) error {
		for i, nd := range pg.nodes {
			var err error
			ptrs[i], err = g.CreateVertex(tx, "node", bond.Struct(
				bond.FV(0, bond.String(nd.id)), bond.FV(1, bond.Int64(nd.score)), bond.FV(2, bond.String(nd.cat))))
			if err != nil {
				return err
			}
		}
		for i, nd := range pg.nodes {
			for _, to := range nd.out {
				if err := g.CreateEdge(tx, ptrs[i], "link", ptrs[to], bond.Null); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// hop is the brute-force next frontier: the distinct out-neighbours of
// the vertices of from that keep passes, in no particular order.
func (pg *propGraph) hop(from []int, keep func(int) bool) []int {
	seen := map[int]bool{}
	var next []int
	for _, v := range from {
		if !keep(v) {
			continue
		}
		for _, to := range pg.nodes[v].out {
			if !seen[to] {
				seen[to] = true
				next = append(next, to)
			}
		}
	}
	return next
}

func (pg *propGraph) ofCat(cat string) []int {
	var out []int
	for i := range pg.nodes {
		if pg.nodes[i].cat == cat {
			out = append(out, i)
		}
	}
	return out
}

func anyNode(int) bool { return true }

// propCase is one document and the brute-force walk's answer for it.
type propCase struct {
	name, doc string
	digest    string  // count, aggregates, rows or groups (propDigest)
	act       []int64 // Stats.Levels act rows
	filtered  int64   // Stats.IndexFiltered
	source    string  // the terminal level's Source, when it must be that
}

// propDigest renders a result for exact comparison: count, then rows
// (sorted unless the query ordered them), then groups.
func propDigest(res *Result, ordered bool) string {
	var rows []string
	for _, r := range res.Rows {
		rows = append(rows, r.Values["id"].AsString())
	}
	if !ordered {
		sort.Strings(rows)
	}
	var groups []string
	for _, gr := range res.Groups {
		groups = append(groups, fmt.Sprint(gr.Keys["cat"].AsString(), "=", gr.Aggregates["_count(*)"].AsInt()))
	}
	return fmt.Sprintf("count=%d rows=%s groups=%s", res.Count, strings.Join(rows, ","), strings.Join(groups, ","))
}

func (pg *propGraph) ids(vs []int) string {
	var out []string
	for _, v := range vs {
		out = append(out, pg.nodes[v].id)
	}
	sort.Strings(out)
	return strings.Join(out, ",")
}

// cases derives every document's expected answer from the model loaded
// at ptrs (the address order breaks `_orderby` ties).
func (pg *propGraph) cases(ptrs []core.VertexPtr) []propCase {
	roots := pg.ofCat("a")
	f1 := pg.hop(roots, anyNode)
	f2 := pg.hop(f1, anyNode)
	f3 := pg.hop(f2, anyNode)
	n := func(vs []int) int64 { return int64(len(vs)) }
	var cs []propCase

	cs = append(cs, propCase{name: "plain count",
		doc:    `{"_type": "node", "cat": "a", "_out_edge": {"_type": "link", "_vertex": {"_out_edge": {"_type": "link", "_vertex": {"_out_edge": {"_type": "link", "_vertex": {"_select": ["_count(*)"]}}}}}}}`,
		digest: fmt.Sprintf("count=%d rows= groups=", len(f3)),
		act:    []int64{n(roots), n(f1), n(f2), n(f3)}})

	cs = append(cs, propCase{name: "plain rows",
		doc:    `{"_type": "node", "cat": "a", "_out_edge": {"_type": "link", "_vertex": {"_out_edge": {"_type": "link", "_vertex": {"_select": ["id"]}}}}}`,
		digest: fmt.Sprintf("count=0 rows=%s groups=", pg.ids(f2)),
		act:    []int64{n(roots), n(f1), n(f2)}})

	// An index-filtered middle level: cat is indexed, so the level drops
	// every frontier vertex outside cat=b before reading it.
	isB := func(v int) bool { return pg.nodes[v].cat == "b" }
	g2 := pg.hop(f1, isB)
	var filtered int64
	for _, v := range f1 {
		if !isB(v) {
			filtered++
		}
	}
	cs = append(cs, propCase{name: "index-filtered level",
		doc:      `{"_type": "node", "cat": "a", "_out_edge": {"_type": "link", "_vertex": {"_type": "node", "cat": "b", "_out_edge": {"_type": "link", "_vertex": {"_select": ["id"]}}}}}`,
		digest:   fmt.Sprintf("count=0 rows=%s groups=", pg.ids(g2)),
		act:      []int64{n(roots), n(f1), n(g2)},
		filtered: filtered})

	// Ordered top-K terminal: score descending, ties by ascending address.
	top := slices.Clone(f2)
	slices.SortFunc(top, func(a, b int) int {
		if pg.nodes[a].score != pg.nodes[b].score {
			return int(pg.nodes[b].score - pg.nodes[a].score)
		}
		return cmp.Compare(ptrs[a].Addr, ptrs[b].Addr)
	})
	top = top[:min(5, len(top))]
	var topIDs []string
	for _, v := range top {
		topIDs = append(topIDs, pg.nodes[v].id)
	}
	cs = append(cs, propCase{name: "ordered top-K terminal",
		doc:    `{"_type": "node", "cat": "a", "_out_edge": {"_type": "link", "_vertex": {"_out_edge": {"_type": "link", "_vertex": {"_type": "node", "_select": ["id"], "_orderby": "-score", "_limit": 5}}}}}`,
		digest: fmt.Sprintf("count=0 rows=%s groups=", strings.Join(topIDs, ",")),
		act:    []int64{n(roots), n(f1), n(top)},
		source: "OrderedTraverse"})

	counts := map[string]int{}
	for _, v := range f2 {
		counts[pg.nodes[v].cat]++
	}
	var groups []string
	for _, cat := range []string{"a", "b", "c", "d"} {
		if counts[cat] > 0 {
			groups = append(groups, fmt.Sprint(cat, "=", counts[cat]))
		}
	}
	cs = append(cs, propCase{name: "grouped terminal",
		doc:    `{"_type": "node", "cat": "a", "_out_edge": {"_type": "link", "_vertex": {"_out_edge": {"_type": "link", "_vertex": {"_type": "node", "_groupby": "cat", "_select": ["_count(*)"]}}}}}`,
		digest: fmt.Sprintf("count=0 rows= groups=%s", strings.Join(groups, ",")),
		act:    []int64{n(roots), n(f1), n(f2)}})

	// `_recurse` from the cat=a roots: BFS distance 1..3, each vertex once.
	dist := map[int]int{}
	for _, r := range roots {
		dist[r] = 0
	}
	cur := roots
	var reached []int
	perIter := make([]int64, 3)
	for k := 1; k <= 3; k++ {
		var next []int
		for _, v := range pg.hop(cur, anyNode) {
			if _, ok := dist[v]; !ok {
				dist[v] = k
				next = append(next, v)
			}
		}
		perIter[k-1] = n(next)
		reached = append(reached, next...)
		cur = next
	}
	cs = append(cs, propCase{name: "_recurse",
		doc:    `{"_type": "node", "cat": "a", "_recurse": {"_type": "link", "_min": 1, "_max": 3, "_vertex": {"_select": ["id"]}}}`,
		digest: fmt.Sprintf("count=0 rows=%s groups=", pg.ids(reached)),
		act:    append([]int64{n(roots), n(reached)}, perIter...)})
	return cs
}

// propEnv is one cluster holding the model graph: Direct or Sim.
type propEnv struct {
	name string
	fab  *fabric.Fabric
	s    *core.Store
	g    *core.Graph
	ptrs []core.VertexPtr
	run  func(fn func(c *fabric.Ctx))
}

func newPropEnvs(t *testing.T, pg *propGraph, machines int) []*propEnv {
	t.Helper()
	open := func(c *fabric.Ctx, f *farm.Farm, pe *propEnv) error {
		s, err := core.Open(c, f, core.DefaultConfig())
		if err == nil {
			err = s.CreateTenant(c, "t")
		}
		if err == nil {
			err = s.CreateGraph(c, "t", "g")
		}
		if err == nil {
			pe.g, err = s.OpenGraph(c, "t", "g")
		}
		if err == nil {
			pe.ptrs, err = pg.load(c, f, pe.g)
		}
		pe.s = s
		return err
	}
	fab := fabric.New(fabric.DefaultConfig(machines, fabric.Direct), nil)
	f := farm.Open(fab, farm.Config{RegionSize: 16 << 20, Replicas: 3})
	direct := &propEnv{name: "direct", fab: fab}
	direct.run = func(fn func(c *fabric.Ctx)) { fn(fab.NewCtx(0, nil)) }
	if err := open(fab.NewCtx(0, nil), f, direct); err != nil {
		t.Fatal(err)
	}
	sc := simNew(t, machines)
	sim := &propEnv{name: "sim", fab: sc.fab}
	sim.run = func(fn func(c *fabric.Ctx)) {
		sc.run(func(p simProc) { fn(sc.fab.NewCtx(0, p.p)) })
	}
	sim.run(func(c *fabric.Ctx) {
		if err := open(c, sc.farm, sim); err != nil {
			t.Error(err)
		}
	})
	return []*propEnv{direct, sim}
}

// TestFrontierExactness runs each document of a seeded random fan-in graph
// in Direct and Sim mode, under every ship threshold regime and the
// no_shipping hint, and holds its answer, per-level act rows and
// IndexFiltered to the brute-force walk; est rows must not depend on the
// regime either.
func TestFrontierExactness(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		pg := newPropGraph(seed, 160)
		envs := newPropEnvs(t, pg, 8)
		for ci := range pg.cases(envs[0].ptrs) {
			for _, pe := range envs {
				pc := pg.cases(pe.ptrs)[ci]
				var est []int64 // one store's statistics: the same whatever the regime
				for _, ship := range []int{1, 4, 1 << 30} {
					for _, hints := range []string{"", `"_hints": {"no_shipping": true}, `} {
						name := fmt.Sprintf("seed %d/%s/%s/ship=%d/hints=%q", seed, pc.name, pe.name, ship, hints)
						cfg := DefaultConfig()
						cfg.ShipThreshold = ship
						e := NewEngine(pe.s, cfg)
						doc := "{" + hints + pc.doc[1:]
						pe.run(func(c *fabric.Ctx) {
							res, err := e.Execute(c, pe.g, []byte(doc))
							if err != nil {
								t.Errorf("%s: %v", name, err)
								return
							}
							if got := propDigest(res, pc.source != ""); got != pc.digest {
								t.Errorf("%s:\n got %s\nwant %s", name, got, pc.digest)
							}
							var act, ests []int64
							for _, l := range res.Stats.Levels {
								act, ests = append(act, l.ActRows), append(ests, l.EstRows)
							}
							if !slices.Equal(act, pc.act) {
								t.Errorf("%s: act rows %v, want %v", name, act, pc.act)
							}
							if est == nil {
								est = ests
							} else if !slices.Equal(ests, est) {
								t.Errorf("%s: est rows %v, other regimes %v", name, ests, est)
							}
							if res.Stats.IndexFiltered != pc.filtered {
								t.Errorf("%s: IndexFiltered %d, want %d", name, res.Stats.IndexFiltered, pc.filtered)
							}
							if pc.source != "" && !strings.HasPrefix(terminalSource(res), pc.source) {
								t.Errorf("%s: terminal source %q, want %s", name, terminalSource(res), pc.source)
							}
						})
					}
				}
			}
		}
	}
}

// TestFrontierWorkingSetLevel: a traversal whose frontiers outgrow
// MaxWorkingSet fails with ErrWorkingSet at the level whose distinct
// frontier first pushes the running total past it, however the replies
// are shipped; the brute-force walk names that level's total.
func TestFrontierWorkingSetLevel(t *testing.T) {
	pg := newPropGraph(3, 160)
	roots := pg.ofCat("a")
	f1 := pg.hop(roots, anyNode)
	f2 := pg.hop(f1, anyNode)
	working := len(roots) + len(f1)
	doc := `{"_type": "node", "cat": "a", "_out_edge": {"_type": "link", "_vertex": {"_out_edge": {"_type": "link", "_vertex": {"_select": ["_count(*)"]}}}}}`
	want := fmt.Sprintf("%v: %d vertices", ErrWorkingSet, working+len(f2))
	for _, pe := range newPropEnvs(t, pg, 8) {
		for _, ship := range []int{1, 1 << 30} {
			cfg := DefaultConfig()
			cfg.ShipThreshold = ship
			// Room for the roots and the first hop, not the second.
			cfg.MaxWorkingSet = working
			e := NewEngine(pe.s, cfg)
			pe.run(func(c *fabric.Ctx) {
				_, err := e.Execute(c, pe.g, []byte(doc))
				if !errors.Is(err, ErrWorkingSet) || !strings.Contains(err.Error(), want) {
					t.Errorf("%s ship=%d: err = %v, want %q", pe.name, ship, err, want)
				}
			})
		}
	}
}

// TestFrontierFailover: after the primary of some of a traversal's
// frontier regions dies, the traversal routes those owners' batches and
// next hops through the promoted primaries and counts what it counted
// before the failure.
func TestFrontierFailover(t *testing.T) {
	pg := newPropGraph(5, 160)
	doc := `{"_type": "node", "cat": "a", "_out_edge": {"_type": "link", "_vertex": {"_out_edge": {"_type": "link", "_vertex": {"_select": ["_count(*)"]}}}}}`
	f2 := pg.hop(pg.hop(pg.ofCat("a"), anyNode), anyNode)
	pe := newPropEnvs(t, pg, 8)[1]
	e := NewEngine(pe.s, DefaultConfig())
	pe.run(func(c *fabric.Ctx) {
		before, err := e.Execute(c, pe.g, []byte(doc))
		if err != nil || before.Count != int64(len(f2)) {
			t.Errorf("before the failure: %v, %v; want count %d", before, err, len(f2))
			return
		}
		// The machine owning the most second-hop vertices, bar the
		// coordinator.
		f := pe.s.Farm()
		owned := map[fabric.MachineID]int{}
		for _, v := range f2 {
			m, err := f.PrimaryOf(c, pe.ptrs[v].Addr)
			if err != nil {
				t.Error(err)
				return
			}
			if m != c.M {
				owned[m]++
			}
		}
		var victim fabric.MachineID
		for m, n := range owned {
			if n > owned[victim] || (n == owned[victim] && m < victim) {
				victim = m
			}
		}
		f.KillMachine(c, victim)
		after, err := e.Execute(c, pe.g, []byte(doc))
		if err != nil || after.Count != before.Count {
			t.Errorf("after killing m%d: %v, %v; want count %d", victim, after, err, before.Count)
		}
	})
}
