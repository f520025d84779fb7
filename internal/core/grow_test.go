package core

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"a1/internal/bond"
	"a1/internal/fabric"
	"a1/internal/farm"
)

// headerAt reads a vertex header in a pinned snapshot of its own.
func headerAt(t *testing.T, g *Graph, c *fabric.Ctx, vp VertexPtr) *vertexHdr {
	t.Helper()
	tx := g.store.farm.CreatePinnedReadTransaction(c)
	defer tx.Abort()
	_, hdr, err := g.readHeader(tx, vp)
	if err != nil {
		t.Fatal(err)
	}
	return hdr
}

// TestEdgeAppendsGrowInPlace: appending edge after edge to one vertex
// grows its inline list in place while the list's slot has room, so the
// list changes address only when its size class is full — each move
// doubles the entries, about log2(n/4) moves for n edges — and a move
// leaves no tombstone behind for a sweep.
func TestEdgeAppendsGrowInPlace(t *testing.T) {
	_, g, c := testGraph(t, 5)
	g.store.cfg.EdgeSpillThreshold = 1 << 10
	f := g.store.farm
	const n = 300
	hub := mustCreateVertex(t, g, c, "film", filmVal("hub", "epic"))
	moves := 0
	var prev farm.Ptr
	var prevCap uint32
	for i := 0; i < n; i++ {
		a := mustCreateVertex(t, g, c, "actor", actorVal(fmt.Sprintf("grow-%03d", i), "usa"))
		mustCreateEdge(t, g, c, hub, "film.actor", a, bond.Null)
		tx := f.CreatePinnedReadTransaction(c)
		_, hdr, err := g.readHeader(tx, hub)
		if err != nil {
			t.Fatal(err)
		}
		list, count, spilled := hdr.listRef(DirOut)
		if spilled || int(count) != i+1 {
			t.Fatalf("after %d appends: count %d, spilled %v", i+1, count, spilled)
		}
		buf, err := tx.Read(list)
		if err != nil {
			t.Fatal(err)
		}
		tx.Abort()
		if i > 0 {
			moved := list.Addr != prev.Addr
			if fits := count*halfEdgeBytes <= prevCap; moved == fits {
				t.Fatalf("append %d: list moved %v with %d bytes needed in a slot of %d", i+1, moved, count*halfEdgeBytes, prevCap)
			}
			if moved {
				moves++
			}
		}
		prev, prevCap = list, buf.Cap()
	}
	if limit := bits.Len(n / initialInlineEntries); moves > limit {
		t.Errorf("%d appends moved the list %d times, want at most %d", n, moves, limit)
	}
	if freed := f.GCVersions(c); freed != 0 {
		t.Errorf("sweep after the appends freed %d slots, want 0 (no tombstones)", freed)
	}
}

// TestUpdateVertexGrowsInPlace: an update whose data grows within its slot
// rewrites the data object in place — the header keeps its data pointer
// and is not written, so a transaction that read only the header still
// commits — and one that outgrows the slot moves the data and frees the
// old slot at commit, leaving no tombstone.
func TestUpdateVertexGrowsInPlace(t *testing.T) {
	_, g, c := testGraph(t, 5)
	f := g.store.farm
	vp := mustCreateVertex(t, g, c, "actor", actorVal("grower", "a"))
	before := headerAt(t, g, c, vp)
	rtx := f.CreatePinnedReadTransaction(c)
	data, err := rtx.Read(before.data)
	if err != nil {
		t.Fatal(err)
	}
	slack := int(data.Cap()) - len(data.Data())
	rtx.Abort()
	if slack < 1 {
		t.Fatalf("data object of %d bytes has no slack in its slot", len(data.Data()))
	}
	update := func(origin string) {
		t.Helper()
		err := farm.RunTransaction(c, f, func(tx *farm.Tx) error {
			return g.UpdateVertex(tx, vp, actorVal("grower", origin))
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	watcher := f.CreateTransaction(c)
	if _, _, err := g.readHeader(watcher, vp); err != nil {
		t.Fatal(err)
	}
	if _, err := watcher.Alloc(8, farm.NilAddr); err != nil { // a write, so Commit validates
		t.Fatal(err)
	}
	used := f.UsedBytes()
	update("ab")
	if got := f.UsedBytes(); got != used {
		t.Errorf("in-place update changed UsedBytes %d → %d", used, got)
	}
	if err := watcher.Commit(); err != nil {
		t.Errorf("a transaction that read the header: %v; the update rewrote the header", err)
	}
	if after := headerAt(t, g, c, vp); *after != *before {
		t.Errorf("header changed by an in-place update: %+v → %+v", *before, *after)
	}

	big := strings.Repeat("b", slack+2) // one byte past the slot ("a" was one)
	update(big)
	moved := headerAt(t, g, c, vp)
	if moved.data.Addr == before.data.Addr {
		t.Fatal("data outgrew its slot but kept its address")
	}
	if freed := f.GCVersions(c); freed != 0 {
		t.Errorf("sweep after the move freed %d slots, want 0 (no tombstone)", freed)
	}
	rtx = f.CreatePinnedReadTransaction(c)
	defer rtx.Abort()
	if _, err := rtx.Read(before.data); !errors.Is(err, farm.ErrBadAddr) {
		t.Errorf("read of the moved-from data: %v, want ErrBadAddr", err)
	}
	v, err := g.ReadVertex(rtx, vp)
	if err != nil {
		t.Fatal(err)
	}
	if origin, _ := v.Data.Field(1); origin.AsString() != big {
		t.Errorf("origin after the move = %v", origin)
	}
}

// TestEdgeSpillLeavesNoTombstone: an inline edge list that spills into the
// edge B-tree is unlinked, not deleted — the header, its only pointer, is
// rewritten in the same transaction — so a load whose lists spill leaves
// nothing for a sweep to collect.
func TestEdgeSpillLeavesNoTombstone(t *testing.T) {
	_, g, c := testGraph(t, 5)
	const hubs, fanout = 3, 40
	if fanout <= g.store.cfg.EdgeSpillThreshold {
		t.Fatalf("fanout %d does not pass the spill threshold %d", fanout, g.store.cfg.EdgeSpillThreshold)
	}
	for h := 0; h < hubs; h++ {
		hub := mustCreateVertex(t, g, c, "film", filmVal(fmt.Sprintf("spill-%d", h), "epic"))
		for i := 0; i < fanout; i++ {
			a := mustCreateVertex(t, g, c, "actor", actorVal(fmt.Sprintf("spill-%d-%02d", h, i), "usa"))
			mustCreateEdge(t, g, c, hub, "film.actor", a, bond.Null)
		}
		if _, count, spilled := headerAt(t, g, c, hub).listRef(DirOut); !spilled || count != fanout {
			t.Fatalf("hub %d: count %d, spilled %v; want %d, true", h, count, spilled, fanout)
		}
	}
	if freed := g.store.farm.GCVersions(c); freed != 0 {
		t.Errorf("sweep after %d spills freed %d slots, want 0 (no tombstones)", hubs, freed)
	}
}

// TestPinnedReadersBesideEdgeGrowth: pinned readers enumerate a hub's
// in-list while writers append to it, both in place and across moves of
// the list to bigger slots. Each reader sees exactly the edge count its
// snapshot's header records — a list freed under a pinned reader would
// fail the read or list another slot's entries — and never fewer edges
// than the snapshot before it.
func TestPinnedReadersBesideEdgeGrowth(t *testing.T) {
	const machines, writers, perWriter, readers = 5, 3, 100, 2
	_, g, c := testGraph(t, machines)
	g.store.cfg.EdgeSpillThreshold = 1 << 10
	f := g.store.farm
	hub := mustCreateVertex(t, g, c, "film", filmVal("hub", "epic"))
	actors := make([][]VertexPtr, writers)
	for w := range actors {
		for i := 0; i < perWriter; i++ {
			actors[w] = append(actors[w], mustCreateVertex(t, g, c, "actor", actorVal(fmt.Sprintf("w%d-%02d", w, i), "usa")))
		}
	}
	errs := make(chan error, writers+readers)
	var writing, reading sync.WaitGroup
	var done atomic.Bool
	var snapshots atomic.Int64
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			wc := f.Fabric().NewCtx(fabric.MachineID(w%machines), nil)
			for _, a := range actors[w] {
				for {
					err := farm.RunTransaction(wc, f, func(tx *farm.Tx) error {
						return g.CreateEdge(tx, a, "film.actor", hub, bond.Null)
					})
					if errors.Is(err, farm.ErrConflict) {
						continue // the retry budget ran out on the hot header
					}
					if err != nil {
						errs <- fmt.Errorf("writer %d: %w", w, err)
						return
					}
					break
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		reading.Add(1)
		go func(r int) {
			defer reading.Done()
			rc := f.Fabric().NewCtx(fabric.MachineID((r+1)%machines), nil)
			last := 0
			for !done.Load() {
				tx := f.CreatePinnedReadTransaction(rc)
				_, in, err := g.EdgeCounts(tx, hub)
				runtime.Gosched() // let a writer commit, perhaps a move, before the list is read
				n, seen := 0, map[farm.Addr]bool{}
				if err == nil {
					err = g.EnumerateEdges(tx, hub, DirIn, "", func(he HalfEdge) bool {
						n++
						seen[he.Other.Addr] = true
						return true
					})
				}
				tx.Abort()
				switch {
				case err != nil:
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				case n != in || len(seen) != in || in < last:
					errs <- fmt.Errorf("reader %d: header counts %d in-edges (previous snapshot %d), list holds %d (%d distinct)", r, in, last, n, len(seen))
					return
				}
				last = in
				snapshots.Add(1)
			}
		}(r)
	}
	writing.Wait()
	done.Store(true)
	reading.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	tx := f.CreatePinnedReadTransaction(c)
	defer tx.Abort()
	if _, in, err := g.EdgeCounts(tx, hub); err != nil || in != writers*perWriter {
		t.Errorf("hub in-edges after the writers = %d, %v; want %d", in, err, writers*perWriter)
	}
	if snapshots.Load() == 0 {
		t.Error("no reader finished a snapshot while the writers ran")
	}
}
