package dr

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/fabric"
	"a1/internal/farm"
)

// graphImage lists a graph's vertices (with their data) and edges, one
// line each, sorted: what two copies of the graph must agree on.
func graphImage(t *testing.T, g *core.Graph) []string {
	t.Helper()
	tx := g.Store().Farm().CreateReadTransaction(g.Store().Farm().Fabric().NewCtx(0, nil))
	defer tx.Abort()
	var vps []core.VertexPtr
	if err := g.ScanVerticesByType(tx, "node", func(_ bond.Value, vp core.VertexPtr) bool {
		vps = append(vps, vp)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, vp := range vps {
		v, err := g.ReadVertex(tx, vp)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, "v "+v.Data.String())
		var dsts []core.VertexPtr
		if err := g.EnumerateEdges(tx, vp, core.DirOut, "link", func(he core.HalfEdge) bool {
			dsts = append(dsts, he.Other)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		src, _ := v.Data.Field(0)
		for _, dst := range dsts {
			_, dpk, err := g.VertexPK(tx, dst)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprintf("e %s -> %s", src.AsString(), dpk.AsString()))
		}
	}
	sort.Strings(out)
	return out
}

// checkRecoveriesMatch recovers e's graph in both modes and compares each
// with the live graph, vertex for vertex and edge for edge.
func checkRecoveriesMatch(t *testing.T, e *drEnv) {
	t.Helper()
	live := graphImage(t, e.graph)
	for _, mode := range bothModes {
		_, g, stats := recoverInto(t, e, mode)
		if got := graphImage(t, g); !slices.Equal(got, live) {
			t.Errorf("%v recovery (tR %d) holds %d lines, live graph %d:\n got %q\nwant %q",
				mode, stats.Watermark, len(got), len(live), got, live)
		}
	}
}

func edgeKey(src, dst string) []byte {
	return edgeRowKey(&Entry{VType: "node", PK: bond.String(src), EType: "link", DstTyp: "node", DstPK: bond.String(dst)})
}

// mutator drives a seeded stream of the five graph mutators (create,
// update and delete vertex, create and delete edge) over its own pool of
// vertex ids. It models the live ids and edges to pick valid targets, and
// remembers, for every ObjectStore row key it wrote, the watermark read
// before the last transaction that wrote it.
type mutator struct {
	e      *drEnv
	c      *fabric.Ctx
	rng    *rand.Rand
	prefix string
	live   map[string]core.VertexPtr
	edges  map[[2]string]bool
	lastW  map[string]uint64
}

func newMutator(e *drEnv, c *fabric.Ctx, seed int64, prefix string) *mutator {
	return &mutator{
		e: e, c: c, rng: rand.New(rand.NewSource(seed)), prefix: prefix,
		live: make(map[string]core.VertexPtr), edges: make(map[[2]string]bool), lastW: make(map[string]uint64),
	}
}

// pickLive returns a random live id, or "" when none is.
func (m *mutator) pickLive() string {
	if len(m.live) == 0 {
		return ""
	}
	ids := make([]string, 0, len(m.live))
	for id := range m.live {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids[m.rng.Intn(len(ids))]
}

// step commits one random transaction.
func (m *mutator) step() error {
	g := m.e.graph
	id := fmt.Sprintf("%s%02d", m.prefix, m.rng.Intn(12))
	label := fmt.Sprintf("l%d", m.rng.Intn(1000))
	var fn func(tx *farm.Tx) error
	var keys [][]byte
	var commit func()
	op := m.rng.Intn(5)
	vp, isLive := m.live[id]
	src, dst := m.pickLive(), m.pickLive()
	edge := [2]string{src, dst}
	switch {
	case !isLive: // create, with an edge from a live vertex in the same transaction
		var created core.VertexPtr
		fn = func(tx *farm.Tx) error {
			var err error
			if created, err = g.CreateVertex(tx, "node", node(id, label)); err != nil || src == "" {
				return err
			}
			return g.CreateEdge(tx, m.live[src], "link", created, bond.Null)
		}
		keys = append(keys, vertexRowKey("node", bond.String(id)))
		if src != "" {
			keys = append(keys, edgeKey(src, id))
		}
		commit = func() {
			m.live[id] = created
			if src != "" {
				m.edges[[2]string{src, id}] = true
			}
		}
	case op == 0:
		fn = func(tx *farm.Tx) error { return g.UpdateVertex(tx, vp, node(id, label)) }
		keys = append(keys, vertexRowKey("node", bond.String(id)))
		commit = func() {}
	case op == 1:
		fn = func(tx *farm.Tx) error { return g.DeleteVertex(tx, vp) }
		keys = append(keys, vertexRowKey("node", bond.String(id)))
		for ed := range m.edges {
			if ed[0] == id || ed[1] == id {
				keys = append(keys, edgeKey(ed[0], ed[1]))
			}
		}
		commit = func() {
			delete(m.live, id)
			for ed := range m.edges {
				if ed[0] == id || ed[1] == id {
					delete(m.edges, ed)
				}
			}
		}
	case !m.edges[edge]:
		fn = func(tx *farm.Tx) error { return g.CreateEdge(tx, m.live[src], "link", m.live[dst], bond.Null) }
		keys = append(keys, edgeKey(src, dst))
		commit = func() { m.edges[edge] = true }
	default:
		fn = func(tx *farm.Tx) error {
			_, err := g.DeleteEdge(tx, m.live[src], "link", m.live[dst])
			return err
		}
		keys = append(keys, edgeKey(src, dst))
		commit = func() { delete(m.edges, edge) }
	}
	w := m.e.os.Watermark()
	if err := farm.RunTransaction(m.c, m.e.store.Farm(), fn); err != nil {
		return fmt.Errorf("op %d on %s: %w", op, id, err)
	}
	commit()
	for _, k := range keys {
		m.lastW[string(k)] = w
	}
	return nil
}

// checkTrimmed checks the trim rule on every key m wrote: that key's last
// write went into the store after m read w, and an insert keeps only one
// version at or below the watermark it saw, so at most one is at or below
// w.
func (m *mutator) checkTrimmed(t *testing.T) {
	t.Helper()
	vt, _ := m.e.os.Table("t/g/vertices")
	et, _ := m.e.os.Table("t/g/edges")
	for k, w := range m.lastW {
		vs := append(vt.Versions([]byte(k)), et.Versions([]byte(k))...)
		below := 0
		for _, r := range vs {
			if r.Ts <= w {
				below++
			}
		}
		if below > 1 {
			t.Errorf("key %x holds %d versions at or below %d, the watermark before its last write", k, below, w)
		}
	}
}

// TestSeededStreamRecoversLiveGraph runs seeded streams of the five
// mutators through store outages and sweeps; after a final sweep both
// recovery modes must rebuild the live graph exactly.
func TestSeededStreamRecoversLiveGraph(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			e := newDREnv(t)
			m := newMutator(e, e.c, seed, "v")
			faults := rand.New(rand.NewSource(-seed))
			for i := 0; i < 150; i++ {
				if faults.Intn(10) == 0 {
					e.os.SetUnavailable(faults.Intn(2) == 0)
				}
				if faults.Intn(7) == 0 {
					e.repl.FlushPending(e.c) // fails during an outage; the log keeps the entries
				}
				if err := m.step(); err != nil {
					t.Fatal(err)
				}
			}
			e.os.SetUnavailable(false)
			if _, err := e.repl.FlushPending(e.c); err != nil {
				t.Fatal(err)
			}
			if n, _ := e.repl.PendingEntries(e.c); n != 0 {
				t.Fatalf("%d entries left after the final sweep", n)
			}
			m.checkTrimmed(t)
			checkRecoveriesMatch(t, e)
		})
	}
}

// TestHotKeyVersionBound: while synchronous flushes keep tR moving, a key
// updated over and over holds at most two versions, and both modes
// recover its last value.
func TestHotKeyVersionBound(t *testing.T) {
	e := newDREnv(t)
	vp := e.addVertex(t, "hot")
	vt, _ := e.os.Table("t/g/vertices")
	key := vertexRowKey("node", bond.String("hot"))
	for i := 0; i < 100; i++ {
		err := farm.RunTransaction(e.c, e.store.Farm(), func(tx *farm.Tx) error {
			return e.graph.UpdateVertex(tx, vp, node("hot", fmt.Sprint("v", i)))
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(vt.Versions(key)); n > 2 {
			t.Fatalf("after update %d the key holds %d versions, want at most 2", i, n)
		}
	}
	for _, mode := range bothModes {
		_, g, _ := recoverInto(t, e, mode)
		rtx := g.Store().Farm().CreateReadTransaction(g.Store().Farm().Fabric().NewCtx(0, nil))
		rvp, ok, err := g.LookupVertex(rtx, "node", bond.String("hot"))
		if err != nil || !ok {
			t.Fatalf("%v: hot vertex missing: %v", mode, err)
		}
		v, err := g.ReadVertex(rtx, rvp)
		if err != nil {
			t.Fatal(err)
		}
		if label, _ := v.Data.Field(1); label.AsString() != "v99" {
			t.Errorf("%v recovered label %q, want v99", mode, label.AsString())
		}
	}
}

// TestDRConcurrentCommitters runs Direct-mode committers, each with its
// own vertices and synchronous flushes, beside a sweeper that drains the
// log through random store outages. The persisted watermark never
// decreases, no key keeps a version the trim should have dropped, and
// after a final sweep both recovery modes rebuild the live graph.
func TestDRConcurrentCommitters(t *testing.T) {
	e := newDREnv(t)
	fab := e.store.Farm().Fabric()
	var muts []*mutator
	for i := 0; i < 4; i++ {
		muts = append(muts, newMutator(e, fab.NewCtx(fabric.MachineID(i+1), nil), int64(i+1), fmt.Sprintf("c%d-", i)))
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, len(muts))
	for _, m := range muts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if err := m.step(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	swept := make(chan error, 1)
	go func() {
		c := fab.NewCtx(5, nil)
		faults := rand.New(rand.NewSource(7))
		var last uint64
		for {
			select {
			case <-done:
				swept <- nil
				return
			default:
			}
			if faults.Intn(8) == 0 {
				e.os.SetUnavailable(faults.Intn(2) == 0)
			}
			e.repl.FlushPending(c) // fails during an outage or on contention; retried next round
			w := e.os.Watermark()
			if w < last {
				swept <- fmt.Errorf("watermark went back from %d to %d", last, w)
				return
			}
			last = w
		}
	}()
	wg.Wait()
	close(done)
	if err := <-swept; err != nil {
		t.Error(err)
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	e.os.SetUnavailable(false)
	if _, err := e.repl.FlushPending(e.c); err != nil {
		t.Fatal(err)
	}
	for _, m := range muts {
		m.checkTrimmed(t)
	}
	checkRecoveriesMatch(t, e)
}
