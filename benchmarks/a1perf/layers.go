package main

import (
	"fmt"
	"math/rand"
	"time"

	"a1"
	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/farm"
	"a1/internal/query"
	"a1/internal/workload"
)

// Per-layer micro-measurements: each times calls into one layer's public
// functions on the workload's own loaded dataset, from outside the
// program. They run after the traced ladder, reads first, then the
// measurements that write.

// sinceUS is the time since t0 in µs.
func sinceUS(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e3 }

// timeEach runs fn n times and returns each call's duration in µs.
func timeEach(n int, fn func(i int) error) ([]float64, error) {
	us := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return nil, err
		}
		us = append(us, sinceUS(t0))
	}
	return us, nil
}

// buildMirror creates the benchmark's own copy of the primary index — the
// same ordered-encoded keys and 12-byte pointer values, in a fresh FaRM
// B-tree — so the farm rung and the farm.btree_* metrics can call
// BTree.Get/Put/Scan directly (the catalog keeps the real tree's
// descriptor private). It returns each Put's duration in µs.
func (cl *cluster) buildMirror(c *a1.Ctx) (*farm.BTree, []float64, error) {
	typ := cl.vertexType()
	var tree *farm.BTree
	err := cl.db.Transaction(c, func(tx *a1.Tx) error {
		var err error
		tree, err = farm.CreateBTree(tx, 0)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	rtx := cl.db.ReadTransaction(c)
	type entry struct{ key, val []byte }
	var entries []entry
	err = cl.g.ScanVerticesByType(rtx, typ, func(pk bond.Value, vp core.VertexPtr) bool {
		val := make([]byte, 12)
		putPtr(val, vp)
		entries = append(entries, entry{bond.OrderedEncode(nil, pk), val})
		return true
	})
	if err != nil {
		return nil, nil, err
	}
	var putUS []float64
	for lo := 0; lo < len(entries); lo += 128 {
		batch := entries[lo:min(lo+128, len(entries))]
		var us []float64
		err := cl.db.Transaction(c, func(tx *a1.Tx) error {
			us = us[:0]
			for _, e := range batch {
				t0 := time.Now()
				if err := tree.Put(tx, e.key, e.val); err != nil {
					return err
				}
				us = append(us, sinceUS(t0))
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		putUS = append(putUS, us...)
	}
	return tree, putUS, nil
}

// readLayers measures the read-side functions of core, farm, bond, stats
// and the query engine's non-executing entry points.
func (cl *cluster) readLayers(c *a1.Ctx, mirror *farm.BTree, schema *bond.Schema, seed int64, m map[string]float64) error {
	g, orc, n := cl.g, cl.orc, cl.sc.microIters
	typ := cl.vertexType()
	r := rand.New(rand.NewSource(seed))
	ids := make([]string, n)
	for i := range ids {
		ids[i] = orc.ids[r.Intn(len(orc.ids))]
	}
	tx := cl.db.ReadTransaction(c)

	// core: lookup, single and batched reads.
	ptrs := make([]core.VertexPtr, n)
	us, err := timeEach(n, func(i int) error {
		vp, ok, err := g.LookupVertex(tx, typ, bond.String(ids[i]))
		if err == nil && !ok {
			err = fmt.Errorf("%s not found", ids[i])
		}
		ptrs[i] = vp
		return err
	})
	if err != nil {
		return err
	}
	m["core.lookup_us"] = median(us)
	vals := make([]bond.Value, n)
	if us, err = timeEach(n, func(i int) error {
		v, err := g.ReadVertex(tx, ptrs[i])
		if err == nil {
			vals[i] = v.Data
		}
		return err
	}); err != nil {
		return err
	}
	m["core.read_vertex_us"] = median(us)
	batch := make([]core.VertexPtr, 256)
	if us, err = timeEach(max(n/64, 4), func(int) error {
		for k := range batch {
			batch[k] = ptrs[r.Intn(n)]
		}
		_, err := g.ReadVertices(tx, batch)
		return err
	}); err != nil {
		return err
	}
	m["core.read_vertices_us_per_vertex"] = median(us) / 256

	// core: edge enumeration over the dataset's inline lists.
	var edges int
	t0 := time.Now()
	for _, vp := range ptrs {
		if err := g.EnumerateEdges(tx, vp, core.DirOut, "", func(core.HalfEdge) bool { edges++; return true }); err != nil {
			return err
		}
	}
	if edges > 0 {
		m["core.enum_edges_ns_per_edge"] = float64(time.Since(t0).Nanoseconds()) / float64(edges)
	}

	// farm: object reads of the same vertices' data objects, and the
	// mirror tree.
	dataPtrs := make([]farm.Ptr, n)
	for i, vp := range ptrs {
		//lint:ignore a1/batchreads the benchmark times farm's per-object read itself, on a Direct cluster where no read crosses a fabric
		hdr, err := tx.ReadSized(vp.Addr, vertexHdrSize)
		if err != nil {
			return err
		}
		dataPtrs[i] = ptrAt(hdr.Data(), 8)
	}
	payloads := make([][]byte, n)
	if us, err = timeEach(n, func(i int) error {
		buf, err := tx.Read(dataPtrs[i])
		if err == nil {
			payloads[i] = buf.Data()
		}
		return err
	}); err != nil {
		return err
	}
	m["farm.tx_read_us"] = median(us)
	keys := make([][]byte, n)
	for i, id := range ids {
		keys[i] = bond.OrderedEncode(nil, bond.String(id))
	}
	if us, err = timeEach(n, func(i int) error {
		_, ok, err := mirror.Get(tx, keys[i])
		if err == nil && !ok {
			err = fmt.Errorf("mirror tree misses %s", ids[i])
		}
		return err
	}); err != nil {
		return err
	}
	m["farm.btree_get_us"] = median(us)
	scanned := 0
	t0 = time.Now()
	if err := mirror.Scan(tx, nil, nil, func(_, _ []byte) bool { scanned++; return true }); err != nil {
		return err
	}
	if scanned != orc.vertices {
		return fmt.Errorf("mirror tree scan saw %d keys, dataset holds %d", scanned, orc.vertices)
	}
	m["farm.btree_scan_ns_per_key"] = float64(time.Since(t0).Nanoseconds()) / float64(scanned)

	// bond: the dataset's own payloads.
	if us, err = timeEach(n, func(i int) error {
		_, err := bond.UnmarshalStruct(schema, payloads[i])
		return err
	}); err != nil {
		return err
	}
	m["bond.unmarshal_struct_ns"] = median(us) * 1e3
	us, _ = timeEach(n, func(i int) error { bond.Marshal(vals[i]); return nil })
	m["bond.marshal_ns"] = median(us) * 1e3
	us, _ = timeEach(n, func(i int) error { bond.OrderedEncode(nil, bond.String(ids[i])); return nil })
	m["bond.ordered_encode_ns"] = median(us) * 1e3

	// stats: the planner's summary, re-aggregated and from the TTL cache.
	statsKey := g.Tenant() + "/" + g.Name()
	us, _ = timeEach(max(n/20, 4), func(int) error {
		cl.db.Store().StatsTracker().Invalidate(statsKey)
		cl.db.Stats(c, g)
		return nil
	})
	m["stats.summary_cold_us"] = median(us)
	us, _ = timeEach(n, func(int) error { cl.db.Stats(c, g); return nil })
	m["stats.summary_cached_us"] = median(us)

	// query: prepare on never-seen documents, explain, and page fetches.
	e := cl.db.Engine()
	if us, err = timeEach(max(n/4, 4), func(i int) error {
		_, err := e.Prepare(c, g, []byte(fmt.Sprintf(`{"id":"a1perf.%d.%d","_select":["id"]}`, seed, i)))
		return err
	}); err != nil {
		return err
	}
	m["query.prepare_us"] = median(us)
	// Parse and explain take the workload's own first read.
	st := newStream(cl.w, orc, seed, 0, 1)
	firstOp := st.next()
	for cl.w.templates[firstOp.tmpl].kind == kindWrite {
		firstOp = st.next()
	}
	doc := []byte(cl.w.templates[firstOp.tmpl].doc)
	if cl.w.templates[firstOp.tmpl].kind == kindQuery {
		doc = []byte(cl.document(firstOp))
	}
	if us, err = timeEach(max(n/4, 4), func(int) error {
		_, err := query.Parse(doc)
		return err
	}); err != nil {
		return err
	}
	m["query.parse_us"] = median(us)
	if us, err = timeEach(max(n/4, 4), func(int) error {
		_, err := e.ExplainPlan(c, g, doc, cl.params(firstOp))
		return err
	}); err != nil {
		return err
	}
	m["query.explain_us"] = median(us)
	paged := fmt.Sprintf(`{"_type":%q,"_limit":3000,"_select":["id"]}`, typ)
	var fetchUS []float64
	for rep := 0; rep < 3; rep++ {
		res, err := e.Execute(c, g, []byte(paged))
		for err == nil && res.Continuation != "" {
			t0 := time.Now()
			res, err = e.Fetch(c, res.Continuation)
			fetchUS = append(fetchUS, sinceUS(t0))
		}
		if err != nil {
			return err
		}
	}
	m["query.fetch_us"] = median(fetchUS)
	return nil
}

// writeLayers measures the write-side functions. Updates come in pairs —
// move a vertex away, move it back — so the dataset the checks know stays
// as loaded. Creations go to a scratch graph of the Zipf schema, which
// then also serves the measurements the film KG has nothing for: scans of
// a secondary index, and a hub whose in-edge list has spilled to a B-tree.
func (cl *cluster) writeLayers(c *a1.Ctx, seed int64, m map[string]float64) error {
	g, orc, n := cl.g, cl.orc, max(cl.sc.microIters/4, 8)
	typ := cl.vertexType()
	r := rand.New(rand.NewSource(seed + 1))
	var updateUS, commitUS []float64
	for i := 0; i < n; i++ {
		id := orc.ids[r.Intn(len(orc.ids))]
		rtx := cl.db.ReadTransaction(c)
		vp, ok, err := g.LookupVertex(rtx, typ, bond.String(id))
		if err != nil || !ok {
			return fmt.Errorf("update %s: found=%v err=%v", id, ok, err)
		}
		v, err := g.ReadVertex(rtx, vp)
		if err != nil {
			return err
		}
		moved := v.Data.WithField(2, bond.Double(-1))
		if cl.w.dataset == datasetZipf {
			moved = zipfValue(id, int32(r.Intn(cl.zipf.Categories)), int64(1<<40+i))
		}
		for _, val := range []bond.Value{moved, v.Data} {
			var inTx time.Duration
			t0 := time.Now()
			err := cl.db.Transaction(c, func(tx *a1.Tx) error {
				cl.txAttempts.Add(1)
				t1 := time.Now()
				err := g.UpdateVertex(tx, vp, val)
				inTx = time.Since(t1)
				return err
			})
			if err != nil {
				return err
			}
			cl.commits.Add(1)
			updateUS = append(updateUS, float64(inTx.Nanoseconds())/1e3)
			commitUS = append(commitUS, float64((time.Since(t0)-inTx).Nanoseconds())/1e3)
		}
	}
	m["core.update_vertex_us"] = median(updateUS)
	m["farm.commit_us"] = median(commitUS)

	if err := cl.db.CreateGraph(c, "bing", "scratch"); err != nil {
		return err
	}
	sg, err := cl.db.OpenGraph(c, "bing", "scratch")
	if err != nil {
		return err
	}
	if err := sg.CreateVertexType(c, "node", workload.ZipfSchema, "id", "category", "score"); err != nil {
		return err
	}
	if err := sg.CreateEdgeType(c, "link", nil); err != nil {
		return err
	}
	created := make([]core.VertexPtr, 0, 4*n)
	var vertexUS, edgeUS []float64
	for lo := 0; lo < 4*n; lo += 128 {
		err := cl.db.Transaction(c, func(tx *a1.Tx) error {
			for i := lo; i < min(lo+128, 4*n); i++ {
				t0 := time.Now()
				vp, err := sg.CreateVertex(tx, "node", zipfValue(zipfNames.VertexID(i), int32(i%50), int64(i)))
				if err != nil {
					return err
				}
				vertexUS = append(vertexUS, sinceUS(t0))
				created = append(created, vp)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	for lo := 1; lo < len(created); lo += 128 {
		err := cl.db.Transaction(c, func(tx *a1.Tx) error {
			for i := lo; i < min(lo+128, len(created)); i++ {
				t0 := time.Now()
				if err := sg.CreateEdge(tx, created[i-1], "link", created[i], bond.Null); err != nil {
					return err
				}
				edgeUS = append(edgeUS, sinceUS(t0))
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	m["core.create_vertex_us"] = median(vertexUS)
	m["core.create_edge_us"] = median(edgeUS)
	if err := cl.scratchScans(c, sg, created, m); err != nil {
		return err
	}

	cl.sweepVersions(c)
	m["farm.gc_us"] = median(cl.gcUS)
	m["farm.gc_freed"] = median(cl.gcFreed)

	t0 := time.Now()
	if _, err := cl.db.Analyze(c, g); err != nil {
		return err
	}
	m["stats.analyze_s"] = time.Since(t0).Seconds()
	return nil
}

// scratchScans measures, on the scratch graph, an equality scan of the
// category index, a descending top-K walk of the score index, and the
// enumeration of a spilled edge list: every other vertex is first linked
// to vertex 0 until its in-list is past the spill threshold.
func (cl *cluster) scratchScans(c *a1.Ctx, sg *a1.Graph, created []core.VertexPtr, m map[string]float64) error {
	hubEdges := cl.db.Store().Config().EdgeSpillThreshold + 200
	for len(created) <= hubEdges {
		// The toy scale creates too few vertices to fill a hub; top up.
		err := cl.db.Transaction(c, func(tx *a1.Tx) error {
			i := len(created)
			vp, err := sg.CreateVertex(tx, "node", zipfValue(zipfNames.VertexID(i), int32(i%50), int64(i)))
			if err == nil {
				created = append(created, vp)
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	for lo := 2; lo <= hubEdges; lo += 128 {
		err := cl.db.Transaction(c, func(tx *a1.Tx) error {
			for i := lo; i < min(lo+128, hubEdges+1); i++ {
				if err := sg.CreateEdge(tx, created[i], "link", created[0], bond.Null); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	tx := cl.db.ReadTransaction(c)
	edges := 0
	t0 := time.Now()
	if err := sg.EnumerateEdges(tx, created[0], core.DirIn, "", func(core.HalfEdge) bool { edges++; return true }); err != nil {
		return err
	}
	if edges < hubEdges-1 {
		return fmt.Errorf("scratch hub has %d in-edges, want %d", edges, hubEdges-1)
	}
	m["core.enum_edges_spilled_ns_per_edge"] = float64(time.Since(t0).Nanoseconds()) / float64(edges)

	us, err := timeEach(max(cl.sc.microIters/10, 4), func(i int) error {
		entries := 0
		err := sg.IndexScan(tx, "node", "category", bond.String(zipfNames.CategoryName(i%50)), func(core.VertexPtr) bool { entries++; return true })
		if err == nil && entries == 0 {
			err = fmt.Errorf("scratch category %d is empty", i%50)
		}
		return err
	})
	if err != nil {
		return err
	}
	m["core.index_scan_ns_per_entry"] = median(us) * 1e3 / float64(len(created)/50)
	if us, err = timeEach(max(cl.sc.microIters/10, 4), func(int) error {
		rows := 0
		return sg.IndexRangeScanBoundsDir(tx, "node", "score", bond.Null, true, bond.Null, true, true,
			func([]byte, core.VertexPtr) bool { rows++; return rows < topK })
	}); err != nil {
		return err
	}
	m["core.ordered_scan_us_per_row"] = median(us) / topK
	return nil
}
