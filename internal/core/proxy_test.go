package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"a1/internal/fabric"
	"a1/internal/farm"
	"a1/internal/sim"
)

// TestProxyCacheTTLRefresh: on the Sim clock, a machine serves each half of
// its graph proxy until that half's TTL lapses. A change written behind the
// proxies' back (not through catPut) is seen only after the TTL, except
// that a type name the directory lacks is re-read at once; an unchanged
// graph row keeps its decoded proxy across expiry.
func TestProxyCacheTTLRefresh(t *testing.T) {
	const ttl = 30 * time.Millisecond
	env := sim.NewEnv(3)
	fab := fabric.New(fabric.DefaultConfig(5, fabric.Sim), env)
	f := farm.Open(fab, farm.Config{RegionSize: 8 << 20})
	// The scenario runs on the simulator's goroutine, so it reports a
	// failed step as an error rather than calling t.Fatal.
	scenario := func(p *sim.Proc) error {
		c, c1, c2 := fab.NewCtx(0, p), fab.NewCtx(1, p), fab.NewCtx(2, p)
		cfg := DefaultConfig()
		cfg.ProxyTTL = ttl
		s, err := Open(c, f, cfg)
		if err != nil {
			return err
		}
		if err := s.CreateTenant(c, "t"); err != nil {
			return err
		}
		if err := s.CreateGraph(c, "t", "g"); err != nil {
			return err
		}
		g, err := s.OpenGraph(c1, "t", "g")
		if err != nil {
			return err
		}
		if err := g.CreateVertexType(c, "actor", actorSchema, "name"); err != nil {
			return err
		}

		// An unchanged graph row keeps the same decoded proxy across expiry.
		m0, err := g.meta(c1)
		if err != nil {
			return err
		}
		c1.Sleep(ttl)
		if m, err := g.meta(c1); err != nil || m != m0 {
			t.Errorf("unchanged row after expiry = %p, %v; want the proxy %p", m, err, m0)
		}

		// Warm machine 1's and 2's type directories, then write a type row
		// and a changed graph row behind the proxies' back.
		for _, cm := range []*fabric.Ctx{c1, c2} {
			if _, err := g.types(cm); err != nil {
				return err
			}
		}
		const studioID = 99
		err = farm.RunTransaction(c, f, func(tx *farm.Tx) error {
			gm := *m0
			gm.State = GraphDeleting
			vt := vertexTypeMeta{ID: studioID, Name: "studio", Schema: filmSchema}
			if err := s.catalog().Put(tx, []byte(g.gKey), gm.encode()); err != nil {
				return err
			}
			return s.catalog().Put(tx, []byte(vtypeKey("t", "g", "studio")), vt.encode())
		})
		if err != nil {
			return err
		}
		if m, err := g.meta(c1); err != nil || m != m0 {
			t.Errorf("graph row within the TTL = %+v, %v; want the old proxy", m, err)
		}
		d, err := g.types(c2)
		if err != nil {
			return err
		}
		if d.vByID[studioID] != nil {
			t.Error("type found by id within the TTL")
		}
		if _, err := g.VertexTypeSchema(c1, "studio"); err != nil {
			t.Errorf("type not found by name at once: %v", err)
		}

		c1.Sleep(ttl)
		if m, err := g.meta(c1); err != nil || m.State != GraphDeleting {
			t.Errorf("graph row after the TTL = %+v, %v; want state %v", m, err, GraphDeleting)
		}
		if d, err = g.types(c2); err != nil {
			return err
		}
		if d.vByID[studioID] == nil {
			t.Error("type not found by id after the TTL")
		}
		return nil
	}
	env.Run(func(p *sim.Proc) {
		if err := scenario(p); err != nil {
			t.Error(err)
		}
	})
}

// TestDropProxiesOn: dropping one machine's proxies, as the loss of its
// process does, makes that machine decode its graph row afresh and leaves
// every other machine's proxy as it was.
func TestDropProxiesOn(t *testing.T) {
	s, g, c := testGraph(t, 5)
	c1, c2 := c.At(1), c.At(2)
	m1, err := g.meta(c1)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := g.meta(c2)
	if err != nil {
		t.Fatal(err)
	}
	s.DropProxiesOn(1)
	if m, err := g.meta(c1); err != nil || m == m1 || m.Name != m1.Name {
		t.Errorf("machine 1 after the drop = %p (%v), %v; want a fresh decode of %q", m, m, err, m1.Name)
	}
	if m, err := g.meta(c2); err != nil || m != m2 {
		t.Errorf("machine 2 after machine 1's drop = %p, %v; want its proxy %p", m, err, m2)
	}
}

// TestDroppedVertexTypeIsGone: after the DeleteType workflow's last steps
// drop a type's trees and its catalog row, the type is gone by name, and no
// write reaches its freed primary index.
func TestDroppedVertexTypeIsGone(t *testing.T) {
	s, g, c := testGraph(t, 5)
	if _, err := g.VertexTypeSchema(c, "film"); err != nil {
		t.Fatal(err)
	}
	if err := s.DropVertexTypeTrees(c, "bing", "films", "film"); err != nil {
		t.Fatal(err)
	}
	if err := s.DropVertexTypeEntry(c, "bing", "films", "film"); err != nil {
		t.Fatal(err)
	}
	s.Farm().GCVersions(c) // reclaim the freed trees, as the workflow's last step does
	if _, err := g.VertexTypeSchema(c, "film"); !errors.Is(err, ErrNoSuchType) {
		t.Errorf("VertexTypeSchema(dropped) err = %v, want ErrNoSuchType", err)
	}
	err := farm.RunTransaction(c, s.farm, func(tx *farm.Tx) error {
		_, err := g.CreateVertex(tx, "film", filmVal("jaws", "thriller"))
		return err
	})
	if !errors.Is(err, ErrNoSuchType) {
		t.Errorf("CreateVertex(dropped) err = %v, want ErrNoSuchType", err)
	}
}

// TestCreateTypeRacesResolvers: machine 0 creates vertex types while every
// other machine keeps re-reading its type directory for the name. A
// rebuild that read the catalog before the create committed must never
// land in the map after the commit dropped the entry: once the create
// returns, every machine's directory holds the type by id as well as by
// name, and every machine can create a vertex of it.
func TestCreateTypeRacesResolvers(t *testing.T) {
	s, g, c := testGraph(t, 5)
	fab := s.Farm().Fabric()
	for round := 0; round < 8; round++ {
		name := fmt.Sprintf("studio%d", round)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for m := 1; m < fab.Machines(); m++ {
			cm := fab.NewCtx(fabric.MachineID(m), nil)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					// Until the create commits, each call misses and re-reads.
					if _, err := g.VertexTypeSchema(cm, name); err != nil && !errors.Is(err, ErrNoSuchType) {
						t.Error(err)
						return
					}
				}
			}()
		}
		err := g.CreateVertexType(c, name, filmSchema, "name")
		close(stop)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		vt, err := g.vertexType(c, name)
		if err != nil {
			t.Fatal(err)
		}
		for m := 0; m < fab.Machines(); m++ {
			cm := fab.NewCtx(fabric.MachineID(m), nil)
			d, err := g.types(cm)
			if err != nil {
				t.Fatal(err)
			}
			if d.vByID[vt.ID] == nil || d.vByName[name] == nil {
				t.Fatalf("machine %d serves a directory without %q after its create returned", m, name)
			}
			vp := mustCreateVertex(t, g, cm, name, filmVal(fmt.Sprintf("%s.m%d", name, m), ""))
			if _, err := g.ReadVertex(s.Farm().CreateReadTransaction(cm), vp); err != nil {
				t.Fatalf("machine %d: reading its %s vertex: %v", m, name, err)
			}
		}
	}
}
