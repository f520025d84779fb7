package query

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/fabric"
	"a1/internal/farm"
)

// The scatter boundary: every fan-out in the engine goes through scatter,
// so one table over one document per caller pins its ship predicate, the
// no_shipping hint and its error path.

var scatterSchema = bond.MustSchema("node",
	bond.FReq(0, "id", bond.TString),
	bond.F(1, "score", bond.TInt64),
	bond.F(2, "cat", bond.TString),
)

// scatterLocal is how many of each hub's leaves live on the coordinator:
// never shipped whatever their number, and enough of them that the cost
// model picks OrderedTraverse for the top-K document.
const scatterLocal = 40

type scatterEnv struct {
	fab *fabric.Fabric
	e   *Engine
	g   *core.Graph
	run func(fn func(c *fabric.Ctx))
}

// newScatterEnv builds, in Sim mode, a 4-machine cluster with placement
// pinned to the creating context's machine. Machine 0 coordinates and
// holds three hubs with scatterLocal leaves each; besides those, hub
// "below" links to ShipThreshold-1 leaves on machine 1, hub "at" to
// ShipThreshold leaves on machine 1, and hub "wide" to ShipThreshold
// leaves on each of machines 1 and 2.
func newScatterEnv(t *testing.T) *scatterEnv {
	t.Helper()
	sc := simNew(t, 4)
	env := &scatterEnv{fab: sc.fab}
	env.run = func(fn func(c *fabric.Ctx)) {
		sc.run(func(p simProc) { fn(sc.fab.NewCtx(0, p.p)) })
	}
	env.run(func(c *fabric.Ctx) {
		cfg := core.DefaultConfig()
		cfg.RandomPlacement = false
		s, err := core.Open(c, sc.farm, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.CreateTenant(c, "t"); err != nil {
			t.Fatal(err)
		}
		if err := s.CreateGraph(c, "t", "g"); err != nil {
			t.Fatal(err)
		}
		if env.g, err = s.OpenGraph(c, "t", "g"); err != nil {
			t.Fatal(err)
		}
		if err := env.g.CreateVertexType(c, "node", scatterSchema, "id", "score"); err != nil {
			t.Fatal(err)
		}
		if err := env.g.CreateEdgeType(c, "link", nil); err != nil {
			t.Fatal(err)
		}
		env.e = NewEngine(s, DefaultConfig())
		threshold := env.e.cfg.ShipThreshold
		score := int64(0)
		for _, hub := range []struct {
			id     string
			remote map[fabric.MachineID]int
		}{
			{"below", map[fabric.MachineID]int{1: threshold - 1}},
			{"at", map[fabric.MachineID]int{1: threshold}},
			{"wide", map[fabric.MachineID]int{1: threshold, 2: threshold}},
		} {
			var hp core.VertexPtr
			leaves := func(cc *fabric.Ctx, n int) {
				err := farm.RunTransaction(cc, sc.farm, func(tx *farm.Tx) error {
					for i := 0; i < n; i++ {
						score++
						vp, err := env.g.CreateVertex(tx, "node", bond.Struct(
							bond.FV(0, bond.String(fmt.Sprintf("%s.m%d.%02d", hub.id, cc.M, i))),
							bond.FV(1, bond.Int64(score)),
							bond.FV(2, bond.String(fmt.Sprintf("c%d", i%4)))))
						if err != nil {
							return err
						}
						if err := env.g.CreateEdge(tx, hp, "link", vp, bond.Null); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			err := farm.RunTransaction(c, sc.farm, func(tx *farm.Tx) error {
				var err error
				hp, err = env.g.CreateVertex(tx, "node", bond.Struct(bond.FV(0, bond.String(hub.id))))
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			leaves(c, scatterLocal)
			for _, m := range []fabric.MachineID{1, 2} {
				leaves(c.At(m), hub.remote[m])
			}
		}
	})
	return env
}

// scatterCallers holds one document per scatter caller, parameterized by
// the hub to start from and an optional `"_hints": {...},` prefix.
var scatterCallers = []struct {
	name string
	doc  string
}{
	{"execLevel 2-hop", `{%s"id": %q, "_out_edge": {"_type": "link", "_vertex": {"_select": ["id"]}}}`},
	{"execOrderedTraverse top-K", `{%s"id": %q, "_out_edge": {"_type": "link", "_vertex": {"_type": "node", "_select": ["id"], "_orderby": "-score", "_limit": 3}}}`},
	{"execGroupedLevel _groupby", `{%s"id": %q, "_out_edge": {"_type": "link", "_vertex": {"_type": "node", "_groupby": "cat", "_select": ["_count(*)"]}}}`},
	{"runPhase _recurse", `{%s"id": %q, "_recurse": {"_type": "link", "_max": 1, "_vertex": {"_select": ["id"]}}}`},
}

// resultDigest flattens a page for equality checks across plans.
func resultDigest(res *Result) string {
	var out []string
	for _, r := range res.Rows {
		out = append(out, r.Values["id"].AsString())
	}
	for _, gr := range res.Groups {
		out = append(out, fmt.Sprint(gr.Keys["cat"].AsString(), "=", gr.Aggregates["_count(*)"].AsInt()))
	}
	sort.Strings(out)
	return strings.Join(out, ",")
}

// TestScatterShipBoundary: per caller, the two sides of the ship
// predicate's threshold and the no_shipping hint.
func TestScatterShipBoundary(t *testing.T) {
	env := newScatterEnv(t)
	for _, caller := range scatterCallers {
		t.Run(caller.name, func(t *testing.T) {
			exec := func(c *fabric.Ctx, hints, hub string) *Result {
				res, err := env.e.Execute(c, env.g, []byte(fmt.Sprintf(caller.doc, hints, hub)))
				if err != nil {
					t.Errorf("%s from %s: %v", caller.name, hub, err)
					return &Result{}
				}
				return res
			}
			env.run(func(c *fabric.Ctx) {
				// One vertex short of the threshold on the remote owner: read
				// from the coordinator, no RPC. At the threshold: one RPC.
				if res := exec(c, "", "below"); res.Stats.RPCs != 0 {
					t.Errorf("batch of ShipThreshold-1: %d RPCs, want 0", res.Stats.RPCs)
				}
				shipped := exec(c, "", "at")
				if shipped.Stats.RPCs != 1 {
					t.Errorf("batch of ShipThreshold: %d RPCs, want 1", shipped.Stats.RPCs)
				}
				if strings.Contains(caller.name, "Ordered") && !strings.HasPrefix(terminalSource(shipped), "OrderedTraverse") {
					t.Errorf("terminal source = %q, want OrderedTraverse (the case is vacuous)", terminalSource(shipped))
				}
				direct := exec(c, `"_hints": {"no_shipping": true}, `, "at")
				if direct.Stats.RPCs != 0 {
					t.Errorf("no_shipping: %d RPCs, want 0", direct.Stats.RPCs)
				}
				if got, want := resultDigest(direct), resultDigest(shipped); got != want || want == "" {
					t.Errorf("no_shipping result %q, shipped %q", got, want)
				}
			})
		})
	}
}

// TestScatterOwnerError: an owner failing its shipped batch is the query's
// error, and nothing the other owners or the coordinator set up for the
// query outlives it.
func TestScatterOwnerError(t *testing.T) {
	env := newScatterEnv(t)
	env.e.cfg.GroupChunk = 1 // every surviving owner parks a run tail
	env.fab.Fail(1)
	for _, caller := range scatterCallers {
		for _, hub := range []string{"at", "wide"} {
			t.Run(caller.name+"/"+hub, func(t *testing.T) {
				bufs := ownerBufsOut.Load()
				env.run(func(c *fabric.Ctx) {
					res, err := env.e.Execute(c, env.g, []byte(fmt.Sprintf(caller.doc, "", hub)))
					if !errors.Is(err, fabric.ErrUnreachable) {
						t.Errorf("Execute = %v, %v; want ErrUnreachable", res, err)
					}
				})
				for m := 0; m < env.fab.Machines(); m++ {
					if n := env.e.PendingResults(fabric.MachineID(m)); n != 0 {
						t.Errorf("PendingResults(m%d) = %d, want 0", m, n)
					}
					if n := env.e.PendingRuns(fabric.MachineID(m)); n != 0 {
						t.Errorf("PendingRuns(m%d) = %d, want 0", m, n)
					}
				}
				if n := env.e.store.Farm().PinnedSnapshots(); n != 0 {
					t.Errorf("snapshot pins left behind: %d", n)
				}
				if n := ownerBufsOut.Load() - bufs; n != 0 {
					t.Errorf("owner splits and frontiers left out of their pools: %d", n)
				}
			})
		}
	}
}

// TestScatterLevelErrorReleasesFrontiers: a level whose batches fail
// after taking their reply frontiers — on every owner, shipped or read
// from the coordinator — fails the query and returns every frontier it
// took, the replies' and the merge's, to the pool.
func TestScatterLevelErrorReleasesFrontiers(t *testing.T) {
	env := newScatterEnv(t)
	doc := `{"id": %q, "_out_edge": {"_type": "link", "_vertex": {"_out_edge": {"_type": "nosuch", "w": 1, "_vertex": {"_select": ["_count(*)"]}}}}}`
	bufs := ownerBufsOut.Load()
	env.run(func(c *fabric.Ctx) {
		for _, hub := range []string{"below", "at", "wide"} {
			if res, err := env.e.Execute(c, env.g, []byte(fmt.Sprintf(doc, hub))); err == nil {
				t.Errorf("%s: Execute = %+v, want an error", hub, res.Stats)
			}
		}
	})
	if n := ownerBufsOut.Load() - bufs; n != 0 {
		t.Errorf("frontiers left out of the pool: %d", n)
	}
}
