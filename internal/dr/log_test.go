package dr

import (
	"testing"

	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/farm"
)

// pendingEntries reads the whole replication log in sequence order.
func (e *drEnv) pendingEntries(t *testing.T) []*Entry {
	t.Helper()
	var out []*Entry
	var after uint64
	for {
		seq, entry, ok, err := e.nextEntryAfter(after)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, entry)
		after = seq
	}
}

// goldenEntry is the part of a log entry the mutation decides; Seq and Ts
// come from the log and the clock.
type goldenEntry struct {
	kind          uint64
	vtype         string
	pk, data      bond.Value
	etype, dstTyp string
	dstPK         bond.Value
}

// TestLogStreamGolden pins the replication log a fixed script of every
// mutator writes: entry order, kinds and the identities and data each
// carries. The ObjectStore is down, so every entry stays in the log.
func TestLogStreamGolden(t *testing.T) {
	e := newDREnv(t)
	rated := bond.MustSchema("rated", bond.F(0, "score", bond.TInt32))
	if err := e.graph.CreateEdgeType(e.c, "rated", rated); err != nil {
		t.Fatal(err)
	}
	e.os.SetUnavailable(true)
	run := func(fn func(tx *farm.Tx) error) {
		t.Helper()
		if err := farm.RunTransaction(e.c, e.store.Farm(), fn); err != nil {
			t.Fatal(err)
		}
	}
	a, b, c := e.addVertex(t, "A"), e.addVertex(t, "B"), e.addVertex(t, "C")
	run(func(tx *farm.Tx) error { return e.graph.UpdateVertex(tx, a, node("A", "a2")) })
	run(func(tx *farm.Tx) error {
		return e.graph.UpdateVertex(tx, b, bond.Struct(bond.FV(0, bond.String("B"))))
	})
	score := bond.Struct(bond.FV(0, bond.Int32(5)))
	run(func(tx *farm.Tx) error {
		for _, ed := range []struct {
			src   core.VertexPtr
			label string
			dst   core.VertexPtr
			data  bond.Value
		}{
			{a, "link", b, bond.Null},
			{b, "link", c, bond.Null},
			{c, "link", c, bond.Null}, // self-loop
			{c, "link", a, bond.Null},
			{a, "rated", c, score},
		} {
			if err := e.graph.CreateEdge(tx, ed.src, ed.label, ed.dst, ed.data); err != nil {
				return err
			}
		}
		return nil
	})
	run(func(tx *farm.Tx) error {
		_, err := e.graph.DeleteEdge(tx, c, "link", a)
		return err
	})
	run(func(tx *farm.Tx) error { return e.graph.DeleteVertex(tx, b) })
	run(func(tx *farm.Tx) error { return e.graph.DeleteVertex(tx, c) })

	s := bond.String
	nodeA, nodeB, nodeC := node("A", "v"), node("B", "v"), node("C", "v")
	want := []goldenEntry{
		{kVertexPut, "node", s("A"), nodeA, "", "", bond.Null},
		{kVertexPut, "node", s("B"), nodeB, "", "", bond.Null},
		{kVertexPut, "node", s("C"), nodeC, "", "", bond.Null},
		{kVertexPut, "node", s("A"), node("A", "a2"), "", "", bond.Null},
		{kVertexPut, "node", s("B"), bond.Struct(bond.FV(0, s("B"))), "", "", bond.Null},
		{kEdgePut, "node", s("A"), bond.Null, "link", "node", s("B")},
		{kEdgePut, "node", s("B"), bond.Null, "link", "node", s("C")},
		{kEdgePut, "node", s("C"), bond.Null, "link", "node", s("C")},
		{kEdgePut, "node", s("C"), bond.Null, "link", "node", s("A")},
		{kEdgePut, "node", s("A"), score, "rated", "node", s("C")},
		{kEdgeDel, "node", s("C"), bond.Null, "link", "node", s("A")},
		{kEdgeDel, "node", s("B"), bond.Null, "link", "node", s("C")},
		{kEdgeDel, "node", s("A"), bond.Null, "link", "node", s("B")},
		{kVertexDel, "node", s("B"), bond.Null, "", "", bond.Null},
		{kEdgeDel, "node", s("C"), bond.Null, "link", "node", s("C")},
		{kEdgeDel, "node", s("A"), bond.Null, "rated", "node", s("C")},
		{kVertexDel, "node", s("C"), bond.Null, "", "", bond.Null},
	}
	got := e.pendingEntries(t)
	if len(got) != len(want) {
		t.Fatalf("log holds %d entries, want %d", len(got), len(want))
	}
	for i, w := range want {
		en := got[i]
		g := goldenEntry{en.Kind, en.VType, en.PK, en.Data, en.EType, en.DstTyp, en.DstPK}
		if g.kind != w.kind || g.vtype != w.vtype || !g.pk.Equal(w.pk) || !g.data.Equal(w.data) ||
			g.etype != w.etype || g.dstTyp != w.dstTyp || !g.dstPK.Equal(w.dstPK) {
			t.Errorf("entry %d = %+v, want %+v", i, g, w)
		}
	}
}
