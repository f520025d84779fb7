// Disaster recovery walkthrough (paper §4): writes replicate through the
// FaRM-resident replication log into the durable ObjectStore; after a
// simulated datacenter loss a fresh cluster recovers the graph in either
// mode — consistent (snapshot at the durability watermark tR) or
// best-effort (freshest internally-consistent state) — including the
// paper's partial-transaction scenarios.
package main

import (
	"fmt"
	"log"

	"a1"
)

var nodeSchema = a1.NewSchema("node",
	a1.Req(0, "id", a1.TString),
	a1.Opt(1, "note", a1.TString),
)

func main() {
	// Primary cluster with DR enabled; the recovery mode is chosen at Recover.
	db, err := a1.Open(a1.Options{Machines: 9, EnableDR: true})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	var g *a1.Graph
	db.Run(func(c *a1.Ctx) {
		must(db.CreateTenant(c, "t"))
		must(db.CreateGraph(c, "t", "g"))
		g, err = db.OpenGraph(c, "t", "g")
		must(err)
		must(g.CreateVertexType(c, "node", nodeSchema, "id"))
		must(g.CreateEdgeType(c, "link", nil))
		must(db.EnableReplication(c, g))

		// A committed, fully replicated transaction.
		must(db.Transaction(c, func(tx *a1.Tx) error {
			a, err := g.CreateVertex(tx, "node", a1.Record(a1.FV(0, a1.Str("A"))))
			if err != nil {
				return err
			}
			b, err := g.CreateVertex(tx, "node", a1.Record(a1.FV(0, a1.Str("B"))))
			if err != nil {
				return err
			}
			return g.CreateEdge(tx, a, "link", b, a1.Null)
		}))
		n, err := db.FlushReplication(c)
		must(err)
		fmt.Printf("replication log drained: %d async entries (rest flushed synchronously)\n", n)

		// A second transaction commits but its log entries never reach the
		// durable store — the paper's partial-replication scenario.
		db.DurableStore().SetUnavailable(true)
		must(db.Transaction(c, func(tx *a1.Tx) error {
			cN, err := g.CreateVertex(tx, "node", a1.Record(a1.FV(0, a1.Str("C"))))
			if err != nil {
				return err
			}
			a, _, err := g.LookupVertex(tx, "node", a1.Str("A"))
			if err != nil {
				return err
			}
			return g.CreateEdge(tx, a, "link", cN, a1.Null)
		}))
		db.DurableStore().SetUnavailable(false)
		fmt.Println("committed a transaction whose replication is still pending...")
	})

	// 💥 The datacenter burns down. Only the ObjectStore survives.
	store := db.DurableStore()

	// Consistent recovery: exactly the state at the durability watermark.
	fresh1, err := a1.Open(a1.Options{Machines: 9})
	must(err)
	defer fresh1.Close()
	fresh1.Run(func(c *a1.Ctx) {
		stats, err := fresh1.Recover(c, store, "t", "g", a1.RecoverConsistent)
		must(err)
		fmt.Printf("consistent recovery: %d vertices, %d edges (tR=%d)\n",
			stats.Vertices, stats.Edges, stats.Watermark)
		rg, err := fresh1.OpenGraph(c, "t", "g")
		must(err)
		rtx := fresh1.ReadTransaction(c)
		_, hasC, _ := rg.LookupVertex(rtx, "node", a1.Str("C"))
		fmt.Printf("  vertex C (unreplicated tx) present: %v  <- consistent recovery excludes the whole transaction\n", hasC)
	})

	// Best-effort recovery of the same store: at least as fresh, dangling
	// edges dropped.
	fresh2, err := a1.Open(a1.Options{Machines: 9})
	must(err)
	defer fresh2.Close()
	fresh2.Run(func(c *a1.Ctx) {
		stats, err := fresh2.Recover(c, store, "t", "g", a1.RecoverBestEffort)
		must(err)
		fmt.Printf("best-effort recovery: %d vertices, %d edges, %d dangling edges dropped\n",
			stats.Vertices, stats.Edges, stats.DanglingDrop)
		rg, err := fresh2.OpenGraph(c, "t", "g")
		must(err)
		rtx := fresh2.ReadTransaction(c)
		a, _, _ := rg.LookupVertex(rtx, "node", a1.Str("A"))
		edges := 0
		must(rg.EnumerateEdges(rtx, a, a1.DirOut, "link", func(a1.HalfEdge) bool {
			edges++
			return true
		}))
		fmt.Printf("  A's outgoing edges: %d (A->B survived; no dangling A->C)\n", edges)
	})
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
