package dr

import (
	"testing"

	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/fabric"
	"a1/internal/farm"
	"a1/internal/objectstore"
)

var nodeSchema = bond.MustSchema("node",
	bond.FReq(0, "id", bond.TString),
	bond.F(1, "label", bond.TString),
)

type drEnv struct {
	store *core.Store
	graph *core.Graph
	repl  *Replicator
	os    *objectstore.Store
	c     *fabric.Ctx
}

func newDREnv(t *testing.T) *drEnv {
	t.Helper()
	fab := fabric.New(fabric.DefaultConfig(6, fabric.Direct), nil)
	f := farm.Open(fab, farm.Config{RegionSize: 16 << 20})
	t.Cleanup(func() {
		if n := f.PinnedSnapshots(); n != 0 {
			t.Errorf("%d snapshot pins still held at the end of the test", n)
		}
	})
	c := fab.NewCtx(0, nil)
	s, err := core.Open(c, f, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	os := objectstore.New()
	repl, err := NewReplicator(c, f, os)
	if err != nil {
		t.Fatal(err)
	}
	s.SetLogger(repl)
	if err := s.CreateTenant(c, "t"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateGraph(c, "t", "g"); err != nil {
		t.Fatal(err)
	}
	g, err := s.OpenGraph(c, "t", "g")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CreateVertexType(c, "node", nodeSchema, "id", "label"); err != nil {
		t.Fatal(err)
	}
	if err := g.CreateEdgeType(c, "link", nil); err != nil {
		t.Fatal(err)
	}
	if err := repl.EnableGraph(c, g); err != nil {
		t.Fatal(err)
	}
	return &drEnv{store: s, graph: g, repl: repl, os: os, c: c}
}

func node(id, label string) bond.Value {
	return bond.Struct(bond.FV(0, bond.String(id)), bond.FV(1, bond.String(label)))
}

func (e *drEnv) addVertex(t *testing.T, id string) core.VertexPtr {
	t.Helper()
	var vp core.VertexPtr
	err := farm.RunTransaction(e.c, e.store.Farm(), func(tx *farm.Tx) error {
		var err error
		vp, err = e.graph.CreateVertex(tx, "node", node(id, "v"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return vp
}

// recoverInto builds a fresh cluster and recovers the graph into it.
func recoverInto(t *testing.T, e *drEnv, mode Mode) (*core.Store, *core.Graph, *RecoveryStats) {
	t.Helper()
	fab := fabric.New(fabric.DefaultConfig(6, fabric.Direct), nil)
	f := farm.Open(fab, farm.Config{RegionSize: 16 << 20})
	c := fab.NewCtx(0, nil)
	fresh, err := core.Open(c, f, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Recover(c, e.os, fresh, "t", "g", mode)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	g, err := fresh.OpenGraph(c, "t", "g")
	if err != nil {
		t.Fatal(err)
	}
	return fresh, g, stats
}

// bothModes lists the recovery modes; every store recovers either way.
var bothModes = []Mode{BestEffort, Consistent}

func TestSyncReplicationAndFullRecovery(t *testing.T) {
	// Replicate once, through synchronous flushes alone: no sweep runs, so
	// tR is whatever those flushes left.
	e := newDREnv(t)
	a := e.addVertex(t, "a")
	b := e.addVertex(t, "b")
	err := farm.RunTransaction(e.c, e.store.Farm(), func(tx *farm.Tx) error {
		return e.graph.CreateEdge(tx, a, "link", b, bond.Null)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := e.repl.PendingEntries(e.c); n != 0 {
		t.Errorf("pending entries after sync flush = %d, want 0", n)
	}
	if e.repl.SyncFlushes.Load() == 0 {
		t.Error("no synchronous flushes recorded")
	}
	for _, mode := range bothModes {
		t.Run(mode.String(), func(t *testing.T) {
			fresh, g, stats := recoverInto(t, e, mode)
			if stats.Vertices != 2 || stats.Edges != 1 {
				t.Errorf("recovered %d vertices, %d edges (tR %d); want 2, 1", stats.Vertices, stats.Edges, stats.Watermark)
			}
			rtx := fresh.Farm().CreateReadTransaction(fresh.Farm().Fabric().NewCtx(0, nil))
			va, okA, _ := g.LookupVertex(rtx, "node", bond.String("a"))
			_, okB, _ := g.LookupVertex(rtx, "node", bond.String("b"))
			if !okA || !okB {
				t.Fatal("vertices missing after recovery")
			}
			out := 0
			g.EnumerateEdges(rtx, va, core.DirOut, "link", func(core.HalfEdge) bool {
				out++
				return true
			})
			if out != 1 {
				t.Errorf("edges after recovery = %d, want 1", out)
			}
		})
	}
}

func TestSweeperDrainsBacklogAfterOutage(t *testing.T) {
	e := newDREnv(t)
	e.os.SetUnavailable(true) // sync flush path fails
	e.addVertex(t, "x")
	e.addVertex(t, "y")
	if n, _ := e.repl.PendingEntries(e.c); n != 2 {
		t.Fatalf("backlog = %d, want 2", n)
	}
	if e.repl.SyncFailures.Load() != 2 {
		t.Errorf("sync failures = %d, want 2", e.repl.SyncFailures.Load())
	}
	// Sweeper also fails while the store is down.
	if n, err := e.repl.FlushPending(e.c); err == nil || n != 0 {
		t.Errorf("flush during outage: n=%d err=%v", n, err)
	}
	e.os.SetUnavailable(false)
	n, err := e.repl.FlushPending(e.c)
	if err != nil || n != 2 {
		t.Fatalf("flush after outage: n=%d err=%v", n, err)
	}
	if n, _ := e.repl.PendingEntries(e.c); n != 0 {
		t.Errorf("log not drained: %d", n)
	}
	// The rows made it.
	_, g, stats := recoverInto(t, e, BestEffort)
	if stats.Vertices != 2 {
		t.Errorf("recovered %d vertices, want 2", stats.Vertices)
	}
	_ = g
}

func TestUpdateOrderingUnderReplayAndReorder(t *testing.T) {
	// Store v1 then v2 in the same vertex; flush entries out of order and
	// replay them: ObjectStore must end at v2 (paper: conditional upsert).
	e := newDREnv(t)
	e.os.SetUnavailable(true)
	vp := e.addVertex(t, "k")
	err := farm.RunTransaction(e.c, e.store.Farm(), func(tx *farm.Tx) error {
		return e.graph.UpdateVertex(tx, vp, node("k", "v2"))
	})
	if err != nil {
		t.Fatal(err)
	}
	e.os.SetUnavailable(false)
	// Flush the whole backlog twice (simulating replay after a sweeper
	// crash); the second pass is a no-op because flush deletes entries,
	// and re-application is idempotent anyway.
	if _, err := e.repl.FlushPending(e.c); err != nil {
		t.Fatal(err)
	}
	if _, err := e.repl.FlushPending(e.c); err != nil {
		t.Fatal(err)
	}
	tb, _ := e.os.Table("t/g/vertices")
	vs := tb.Versions(vertexRowKey("node", bond.String("k")))
	if len(vs) == 0 {
		t.Fatal("row missing")
	}
	v, _ := bond.Unmarshal(vs[len(vs)-1].Value)
	blob, _ := v.Field(2)
	data, _ := bond.Unmarshal(blob.AsBlob())
	label, _ := data.Field(1)
	if label.AsString() != "v2" {
		t.Errorf("final label = %q, want v2", label.AsString())
	}
}

func TestPaperScenarioPartialEdgeReplication(t *testing.T) {
	// Paper §4 scenario 1: one transaction adds A, B and an edge A->B.
	// A and B replicate; the edge entry does not. Consistent recovery
	// recovers none of them; best-effort recovers A and B without the
	// edge. Both read the same store.
	e := newDREnv(t)
	e.os.SetUnavailable(true) // force everything into the log
	err := farm.RunTransaction(e.c, e.store.Farm(), func(tx *farm.Tx) error {
		a, err := e.graph.CreateVertex(tx, "node", node("A", "v"))
		if err != nil {
			return err
		}
		b, err := e.graph.CreateVertex(tx, "node", node("B", "v"))
		if err != nil {
			return err
		}
		return e.graph.CreateEdge(tx, a, "link", b, bond.Null)
	})
	if err != nil {
		t.Fatal(err)
	}
	e.os.SetUnavailable(false)
	// Replicate exactly the two vertex entries; the edge entry stays
	// unreplicated (the disaster hits now).
	for i := 0; i < 2; i++ {
		seq, entry, ok, err := e.repl.oldestEntry(e.c)
		if err != nil || !ok {
			t.Fatalf("oldest: %v %v", ok, err)
		}
		if entry.Kind != kVertexPut {
			t.Fatalf("entry %d kind = %d, want vertex put", i, entry.Kind)
		}
		if err := e.repl.flushOne(e.c, seq, entry); err != nil {
			t.Fatal(err)
		}
	}
	e.repl.updateWatermark(e.c)

	for _, mode := range bothModes {
		t.Run(mode.String(), func(t *testing.T) {
			_, g, _ := recoverInto(t, e, mode)
			rtx := g.Store().Farm().CreateReadTransaction(g.Store().Farm().Fabric().NewCtx(0, nil))
			va, okA, _ := g.LookupVertex(rtx, "node", bond.String("A"))
			_, okB, _ := g.LookupVertex(rtx, "node", bond.String("B"))
			edges := 0
			if okA {
				g.EnumerateEdges(rtx, va, core.DirOut, "link", func(core.HalfEdge) bool {
					edges++
					return true
				})
			}
			switch mode {
			case Consistent:
				// tR is below the transaction: nothing recovered.
				if okA || okB || edges != 0 {
					t.Errorf("consistent recovery leaked partial tx: A=%v B=%v edges=%d", okA, okB, edges)
				}
			case BestEffort:
				if !okA || !okB {
					t.Errorf("best-effort lost replicated vertices: A=%v B=%v", okA, okB)
				}
				if edges != 0 {
					t.Errorf("best-effort recovered unreplicated edge")
				}
			}
		})
	}
}

func TestPaperScenarioDanglingEdgeDropped(t *testing.T) {
	// Paper §4 scenario 2: A and the edge replicate, B does not.
	// Best-effort recovers A, notices B missing, and drops the edge:
	// internally consistent, not transactionally consistent.
	e := newDREnv(t)
	e.os.SetUnavailable(true)
	err := farm.RunTransaction(e.c, e.store.Farm(), func(tx *farm.Tx) error {
		a, err := e.graph.CreateVertex(tx, "node", node("A", "v"))
		if err != nil {
			return err
		}
		b, err := e.graph.CreateVertex(tx, "node", node("B", "v"))
		if err != nil {
			return err
		}
		return e.graph.CreateEdge(tx, a, "link", b, bond.Null)
	})
	if err != nil {
		t.Fatal(err)
	}
	e.os.SetUnavailable(false)
	// Flush A (entry 1) and the edge (entry 3); skip B (entry 2).
	seqA, entryA, _, _ := e.repl.oldestEntry(e.c)
	if err := e.repl.flushOne(e.c, seqA, entryA); err != nil {
		t.Fatal(err)
	}
	seqB, _, _, _ := e.repl.oldestEntry(e.c) // B's entry — do NOT flush
	// Apply the edge entry, the one after B's in the log.
	edgeSeq, edgeEntry, ok, err := e.nextEntryAfter(seqB)
	if err != nil || !ok {
		t.Fatalf("edge entry lookup: %v %v", ok, err)
	}
	if edgeEntry.Kind != kEdgePut {
		t.Fatalf("expected edge entry, got kind %d", edgeEntry.Kind)
	}
	if err := e.repl.flushOne(e.c, edgeSeq, edgeEntry); err != nil {
		t.Fatal(err)
	}

	_, g, stats := recoverInto(t, e, BestEffort)
	rtx := g.Store().Farm().CreateReadTransaction(g.Store().Farm().Fabric().NewCtx(0, nil))
	va, okA, _ := g.LookupVertex(rtx, "node", bond.String("A"))
	_, okB, _ := g.LookupVertex(rtx, "node", bond.String("B"))
	if !okA {
		t.Fatal("A not recovered")
	}
	if okB {
		t.Fatal("B recovered but was never replicated")
	}
	edges := 0
	g.EnumerateEdges(rtx, va, core.DirOut, "link", func(core.HalfEdge) bool {
		edges++
		return true
	})
	if edges != 0 {
		t.Error("dangling edge recovered")
	}
	if stats.DanglingDrop != 1 {
		t.Errorf("dangling drops = %d, want 1", stats.DanglingDrop)
	}
}

// nextEntryAfter finds the first log entry with seq > after.
func (e *drEnv) nextEntryAfter(after uint64) (uint64, *Entry, bool, error) {
	tx := e.store.Farm().CreateReadTransaction(e.c)
	var seq uint64
	var raw []byte
	err := e.repl.logIdx.Scan(tx, nil, nil, func(k, v []byte) bool {
		s := decodeSeq(k)
		if s <= after {
			return true
		}
		seq = s
		raw = append([]byte(nil), v...)
		return false
	})
	if err != nil || raw == nil {
		return 0, nil, false, err
	}
	p := farm.DecodePtr(raw)
	buf, err := tx.Read(p)
	if err != nil {
		return 0, nil, false, err
	}
	entry, err := decodeEntry(buf.Data())
	if err != nil {
		return 0, nil, false, err
	}
	return seq, entry, true, nil
}

func decodeSeq(k []byte) uint64 {
	var s uint64
	for _, b := range k {
		s = s<<8 | uint64(b)
	}
	return s
}

func TestConsistentRecoveryToWatermark(t *testing.T) {
	// Writes beyond tR must not appear in a consistent recovery.
	e := newDREnv(t)
	e.addVertex(t, "early")
	e.repl.FlushPending(e.c) // tR now covers "early"
	e.os.SetUnavailable(true)
	e.addVertex(t, "late") // stuck in the log; tR stays below it
	e.os.SetUnavailable(false)
	// Disaster strikes before the sweeper runs: recover now.
	_, g, stats := recoverInto(t, e, Consistent)
	rtx := g.Store().Farm().CreateReadTransaction(g.Store().Farm().Fabric().NewCtx(0, nil))
	_, okEarly, _ := g.LookupVertex(rtx, "node", bond.String("early"))
	_, okLate, _ := g.LookupVertex(rtx, "node", bond.String("late"))
	if !okEarly {
		t.Error("pre-watermark vertex lost")
	}
	if okLate {
		t.Error("post-watermark vertex leaked into consistent recovery")
	}
	if stats.Watermark == 0 {
		t.Error("no watermark recorded")
	}
}

func TestDeleteReplicationAndTombstones(t *testing.T) {
	e := newDREnv(t)
	vp := e.addVertex(t, "gone")
	err := farm.RunTransaction(e.c, e.store.Farm(), func(tx *farm.Tx) error {
		return e.graph.DeleteVertex(tx, vp)
	})
	if err != nil {
		t.Fatal(err)
	}
	_, g, stats := recoverInto(t, e, BestEffort)
	rtx := g.Store().Farm().CreateReadTransaction(g.Store().Farm().Fabric().NewCtx(0, nil))
	if _, ok, _ := g.LookupVertex(rtx, "node", bond.String("gone")); ok {
		t.Error("deleted vertex recovered")
	}
	if stats.SkippedRows == 0 {
		t.Error("tombstone not observed during recovery")
	}
	// Offline tombstone GC clears old tombstones.
	tb, _ := e.os.Table("t/g/vertices")
	if n := tb.GCTombstones(^uint64(0)); n != 1 {
		t.Errorf("tombstone GC removed %d rows, want 1", n)
	}
}
