package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"a1"
	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/farm"
	"a1/internal/query"
	"a1/internal/workload"
)

// span is one timed call into a layer. Spans of one traced op share Op;
// Parent is 0 for the op's root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// The spans are recorded here, in the benchmark, around each call into a
// layer — the engine carries no tracing hooks yet.
type tracer struct {
	t0    time.Time
	spans []span
}

func (tr *tracer) begin(parent, op int, name string) int {
	tr.spans = append(tr.spans, span{
		ID: len(tr.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: time.Since(tr.t0).Nanoseconds(),
	})
	return len(tr.spans)
}

func (tr *tracer) end(id int) { tr.spans[id-1].End = time.Since(tr.t0).Nanoseconds() }

func (s span) us() float64 { return float64(s.End-s.Start) / 1e3 }

// rungs, top down. A traced op runs once per rung it has; a layer's self
// time is its rung minus the next rung below it for the same op.
var rungs = []string{"frontend", "query", "core", "farm", "bond"}

// ladder replays ops one client at a time and times each rung.
type ladder struct {
	cl       *cluster
	tr       *tracer
	prepared []*query.Prepared // engine-level twins of the facade statements
	schema   *bond.Schema
	mirror   *farm.BTree // benchmark-built copy of the primary index: id → vertex pointer
	coord    *rand.Rand  // draws the query rung's coordinator
	counters opCounters
}

// opCounters sums Result.Stats over the frontend rung of every traced op.
// One client, fixed stream: these repeat exactly for a seed.
type opCounters struct {
	ops                                   int64
	vertices, objects, remote, rpcs       int64
	rowsShipped, bytesShipped, groupsShip int64
	results                               int64
	localFrac                             float64
	qerrors                               []float64
}

func (k *opCounters) add(out outcome) {
	s := out.stats
	k.ops++
	k.vertices += s.VerticesRead
	k.objects += s.ObjectsRead
	k.remote += s.RemoteReads
	k.rpcs += s.RPCs
	k.rowsShipped += s.RowsShipped
	k.bytesShipped += s.BytesShipped
	k.groupsShip += s.GroupsShipped
	k.results += out.results
	k.localFrac += s.LocalFrac
	for _, l := range s.Levels {
		if l.EstRows < 0 {
			continue
		}
		est, act := float64(max(l.EstRows, 1)), float64(max(l.ActRows, 1))
		k.qerrors = append(k.qerrors, max(est/act, act/est))
	}
}

func newLadder(c *a1.Ctx, cl *cluster, mirror *farm.BTree, seed int64) (*ladder, error) {
	l := &ladder{cl: cl, tr: &tracer{t0: time.Now()}, mirror: mirror, coord: rand.New(rand.NewSource(seed))}
	l.schema = workload.EntitySchema
	if cl.w.dataset == datasetZipf {
		l.schema = workload.ZipfSchema
	}
	l.prepared = make([]*query.Prepared, len(cl.w.templates))
	for i, t := range cl.w.templates {
		if t.kind == kindExec || t.kind == kindDrain {
			var err error
			if l.prepared[i], err = cl.db.Engine().Prepare(c, cl.g, []byte(t.doc)); err != nil {
				return nil, err
			}
		}
	}
	return l, l.checkLayout(c)
}

// Vertex header layout, as internal/core/vertex.go encodes it: the data
// object's fat pointer sits at byte 8 and the inline out-edge list's at
// byte 20 of a 52-byte header. The farm rung needs them to read "the same
// pointers" core reads; checkLayout fails the run if the layout moved.
const vertexHdrSize = 52

func ptrAt(hdr []byte, off int) farm.Ptr {
	return farm.Ptr{
		Addr: farm.Addr(binary.LittleEndian.Uint64(hdr[off:])),
		Size: binary.LittleEndian.Uint32(hdr[off+8:]),
	}
}

func putPtr(dst []byte, p farm.Ptr) {
	binary.LittleEndian.PutUint64(dst, uint64(p.Addr))
	binary.LittleEndian.PutUint32(dst[8:], p.Size)
}

func (l *ladder) checkLayout(c *a1.Ctx) error {
	tx := l.cl.db.ReadTransaction(c)
	vp, ok, err := l.cl.g.LookupVertex(tx, l.cl.vertexType(), bond.String(l.cl.orc.ids[0]))
	if err != nil || !ok {
		return fmt.Errorf("layout check: lookup %s: found=%v err=%v", l.cl.orc.ids[0], ok, err)
	}
	v, err := l.cl.g.ReadVertex(tx, vp)
	if err != nil {
		return err
	}
	datas, err := readObjects(tx, l.schema, []core.VertexPtr{vp}, false)
	if err != nil {
		return err
	}
	got, err := bond.UnmarshalStruct(l.schema, datas[0])
	if err != nil || !got.Equal(v.Data) {
		return fmt.Errorf("layout check: vertex header no longer holds its data pointer at byte 8 (decode err=%v)", err)
	}
	return nil
}

// readObjects is the farm rung of a read: for every vertex pointer, the
// header object and the data object it points to — and, for a vertex whose
// edges were enumerated, its inline out-edge list — through Tx.Read alone,
// each payload then decoded, so the rung nests the bond rung below it. It
// returns the data objects' bytes for that rung.
func readObjects(tx *a1.Tx, schema *bond.Schema, vps []core.VertexPtr, edges bool) ([][]byte, error) {
	datas := make([][]byte, 0, len(vps))
	for _, vp := range vps {
		//lint:ignore a1/batchreads the farm rung replays, object by object, the reads core.ReadVertices issues; callers hand it one owner's partition of the frontier (ladder.fanOut)
		hdr, err := tx.ReadSized(vp.Addr, vertexHdrSize)
		if err != nil {
			return nil, err
		}
		//lint:ignore a1/batchreads the farm rung replays, object by object, the reads core.ReadVertices issues; callers hand it one owner's partition of the frontier (ladder.fanOut)
		data, err := tx.Read(ptrAt(hdr.Data(), 8))
		if err != nil {
			return nil, err
		}
		datas = append(datas, data.Data())
		if _, err := bond.UnmarshalStruct(schema, data.Data()); err != nil {
			return nil, err
		}
		if list := ptrAt(hdr.Data(), 20); edges && !list.IsNil() {
			//lint:ignore a1/batchreads the farm rung replays, object by object, the reads core.ReadVertices issues; callers hand it one owner's partition of the frontier (ladder.fanOut)
			if _, err := tx.Read(list); err != nil {
				return nil, err
			}
		}
	}
	return datas, nil
}

// readSet is what the core rung of one op read, kept so the farm and bond
// rungs can redo exactly that below it: the ids resolved through the
// primary index and, per owner machine, the vertices read.
type readSet struct {
	lookups []string
	parts   []readPart
}

type readPart struct {
	vps   []core.VertexPtr
	edges bool     // out-edges were enumerated too
	datas [][]byte // filled by the farm rung for the bond rung
}

// fanOut runs fn over vps the way the engine ships a level: partitioned by
// the machine that owns each vertex, one concurrent worker per owner,
// each in its own read transaction. A frontier below the engine's ship
// threshold stays with the caller, as it does in the engine.
func (l *ladder) fanOut(c *a1.Ctx, vps []core.VertexPtr, fn func(tx *a1.Tx, part []core.VertexPtr) error) ([][]core.VertexPtr, error) {
	if len(vps) < 4 {
		return [][]core.VertexPtr{vps}, fn(l.cl.db.ReadTransaction(c), vps)
	}
	byOwner := make([][]core.VertexPtr, l.cl.db.Fabric().Machines())
	for _, vp := range vps {
		m, err := l.cl.db.Farm().PrimaryOf(c, vp.Addr)
		if err != nil {
			return nil, err
		}
		byOwner[m] = append(byOwner[m], vp)
	}
	errs := make([]error, len(byOwner))
	c.Parallel(len(byOwner), func(m int, cc *a1.Ctx) {
		if len(byOwner[m]) > 0 {
			errs[m] = fn(l.cl.db.ReadTransaction(cc.At(a1.MachineID(m))), byOwner[m])
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return byOwner, nil
}

// expandLevel is one traversal level by hand: every frontier vertex is
// read and its out-edges of one type enumerated, fanned out by owner; the
// distinct far endpoints come back in first-seen order.
func (l *ladder) expandLevel(c *a1.Ctx, rs *readSet, frontier []core.VertexPtr, etype string) ([]core.VertexPtr, error) {
	var mu sync.Mutex
	seen := map[farm.Addr]bool{}
	var next []core.VertexPtr
	parts, err := l.fanOut(c, frontier, func(tx *a1.Tx, part []core.VertexPtr) error {
		if _, err := l.cl.g.ReadVertices(tx, part); err != nil {
			return err
		}
		var found []core.VertexPtr
		for _, vp := range part {
			err := l.cl.g.EnumerateEdges(tx, vp, core.DirOut, etype, func(he core.HalfEdge) bool {
				found = append(found, he.Other)
				return true
			})
			if err != nil {
				return err
			}
		}
		mu.Lock()
		defer mu.Unlock()
		for _, vp := range found {
			if !seen[vp.Addr] {
				seen[vp.Addr] = true
				next = append(next, vp)
			}
		}
		return nil
	})
	for _, part := range parts {
		rs.parts = append(rs.parts, readPart{vps: part, edges: true})
	}
	return next, err
}

// run executes one op on every rung it has. Only the frontend rung's
// outcome counts as an attempted op; the lower rungs redo its work by hand.
// Whichever of two rungs runs second finds the op's data warm in the CPU
// caches, so the frontend and query rungs swap order on every other op and
// the bias cancels in the median of their difference.
func (l *ladder) run(c *a1.Ctx, n int, o op, t *tally) {
	cl, tr := l.cl, l.tr
	tmpl := &cl.w.templates[o.tmpl]
	root := tr.begin(0, n, tmpl.name)
	defer tr.end(root)

	var out outcome
	frontend := func() error {
		id := tr.begin(root, n, "frontend")
		var err error
		out, err = cl.exec(c, o)
		tr.end(id)
		if err != nil {
			t.fail(err)
			return err
		}
		t.add(1, 0, nil)
		return nil
	}
	if tmpl.kind == kindWrite {
		if frontend() == nil {
			if err := l.writeRungs(c, root, n, o); err != nil {
				t.fail(err)
			}
		}
		return
	}
	query := func() error {
		err := l.queryRung(c, root, n, o)
		if err != nil {
			t.fail(fmt.Errorf("query rung of %s: %w", tmpl.name, err))
		}
		return err
	}
	first, second := frontend, query
	if n%2 == 0 {
		first, second = query, frontend
	}
	if first() != nil || second() != nil {
		return
	}
	l.counters.add(out)
	ordered := len(out.stats.Levels) > 0 && out.stats.Levels[0].Source != "IndexScan"
	if err := l.readRungs(c, root, n, o, ordered); err != nil {
		t.fail(fmt.Errorf("lower rungs of %s: %w", tmpl.name, err))
	}
}

// queryRung runs the op at the engine, below the tier: an ad-hoc document
// goes through Engine.Prepare — canonicalize, plan-cache lookup, parse on
// a miss, exactly what Engine.Execute does with it — then Bind, then
// Engine.Run on a backend drawn like the tier draws one, then every
// continuation page.
func (l *ladder) queryRung(c *a1.Ctx, root, n int, o op) error {
	cl, tr := l.cl, l.tr
	e := cl.db.Engine()
	tmpl := &cl.w.templates[o.tmpl]
	at := c.At(a1.MachineID(l.coord.Intn(cl.db.Fabric().Machines())))
	rung := tr.begin(root, n, "query")
	defer tr.end(rung)
	stmt := l.prepared[o.tmpl]
	if tmpl.kind == kindQuery {
		id := tr.begin(rung, n, "query.plan")
		var err error
		stmt, err = e.Prepare(at, cl.g, []byte(cl.document(o)))
		tr.end(id)
		if err != nil {
			return err
		}
	}
	id := tr.begin(rung, n, "query.bind")
	q, err := stmt.Bind(cl.params(o))
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin(rung, n, "query.run")
	res, err := e.Run(at, cl.g, q)
	tr.end(id)
	if tmpl.name == "group_stream" {
		cl.streamExec.Add(1)
	}
	for err == nil && tmpl.kind == kindDrain && res.Continuation != "" {
		id := tr.begin(rung, n, "query.fetch")
		res, err = e.Fetch(at, res.Continuation)
		tr.end(id)
	}
	return err
}

// readRungs are the core, farm and bond rungs of the read ops that have a
// hand-written walk: the point op, Q1 and the ordered top-K. The core rung
// issues the engine's logical reads through the graph API — every level's
// vertices materialized, with the engine's fan-out — and the rungs below
// redo the same reads one layer down.
func (l *ladder) readRungs(c *a1.Ctx, root, n int, o op, ordered bool) error {
	cl, tr := l.cl, l.tr
	g := cl.g
	name := cl.w.templates[o.tmpl].name
	if name != "point" && name != "q1" && name != "topk_index" {
		return nil
	}
	var rs readSet
	var err error
	id := tr.begin(root, n, "core")
	switch name {
	case "point":
		var v *core.Vertex
		if v, err = walkPoint(cl.db.ReadTransaction(c), g, o.key); err == nil {
			rs = readSet{lookups: []string{o.key}, parts: []readPart{{vps: []core.VertexPtr{v.Ptr}}}}
		}
	case "q1":
		rs.lookups = []string{"steven.spielberg"}
		var start core.VertexPtr
		var films, actors []core.VertexPtr
		if start, err = lookupEntity(cl.db.ReadTransaction(c), g, rs.lookups[0]); err != nil {
			break
		}
		if films, err = l.expandLevel(c, &rs, []core.VertexPtr{start}, "director.film"); err != nil {
			break
		}
		if actors, err = l.expandLevel(c, &rs, films, "film.actor"); err != nil {
			break
		}
		var parts [][]core.VertexPtr
		parts, err = l.fanOut(c, actors, func(tx *a1.Tx, part []core.VertexPtr) error {
			_, err := g.ReadVertices(tx, part)
			return err
		})
		for _, part := range parts {
			rs.parts = append(rs.parts, readPart{vps: part})
		}
	case "topk_index":
		var read []core.VertexPtr
		read, err = walkTopK(cl.db.ReadTransaction(c), g, o.key, ordered)
		rs.parts = []readPart{{vps: read}}
	}
	tr.end(id)
	if err != nil {
		return err
	}

	// farm: the same objects through BTree.Get and Tx.Read alone, decoded,
	// with the same fan-out.
	errs := make([]error, len(rs.parts))
	id = tr.begin(root, n, "farm")
	tx := cl.db.ReadTransaction(c)
	for _, key := range rs.lookups {
		if _, _, err = l.mirror.Get(tx, bond.OrderedEncode(nil, bond.String(key))); err != nil {
			break
		}
	}
	c.Parallel(len(rs.parts), func(i int, cc *a1.Ctx) {
		p := &rs.parts[i]
		p.datas, errs[i] = readObjects(cl.db.ReadTransaction(cc), l.schema, p.vps, p.edges)
	})
	tr.end(id)
	for _, e := range errs {
		if err == nil {
			err = e
		}
	}
	if err != nil {
		return err
	}

	// bond: decoding the same bytes, same fan-out.
	id = tr.begin(root, n, "bond")
	c.Parallel(len(rs.parts), func(i int, _ *a1.Ctx) {
		for _, d := range rs.parts[i].datas {
			if _, errs[i] = bond.UnmarshalStruct(l.schema, d); errs[i] != nil {
				return
			}
		}
	})
	tr.end(id)
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// writeRungs redo the update below the facade. Every rung writes a fresh
// value, so each one moves both secondary indexes like the op itself did.
func (l *ladder) writeRungs(c *a1.Ctx, root, n int, o op) error {
	cl, tr := l.cl, l.tr
	g := cl.g

	// core: the transaction by hand, without the facade's retry loop.
	cat, score := cl.rw.nextWrite(o.idx, o.n, cl.zipf.Categories)
	val := zipfValue(o.key, cat, score)
	rung := tr.begin(root, n, "core")
	tx := cl.db.Farm().CreateTransaction(c)
	id := tr.begin(rung, n, "core.lookup")
	vp, ok, err := g.LookupVertex(tx, "node", bond.String(o.key))
	tr.end(id)
	if err == nil && !ok {
		err = fmt.Errorf("key %s not found", o.key)
	}
	if err == nil {
		id = tr.begin(rung, n, "core.update_vertex")
		err = g.UpdateVertex(tx, vp, val)
		tr.end(id)
	}
	if err != nil {
		tx.Abort()
		tr.end(rung)
		return err
	}
	id = tr.begin(rung, n, "farm.commit")
	err = tx.Commit()
	tr.end(id)
	tr.end(rung)
	if err != nil {
		return err
	}
	cl.rw.ack(o.idx, cat, score)

	// farm: encode the payload and index keys, read the vertex's two
	// objects, rewrite the data object with the bytes it already holds,
	// commit — lock, validate and 3-way replicate with no index work.
	rung = tr.begin(root, n, "farm")
	encodeUpdate(val)
	tx = cl.db.Farm().CreateTransaction(c)
	hdr, err := tx.ReadSized(vp.Addr, vertexHdrSize)
	if err == nil {
		var data *farm.ObjBuf
		if data, err = tx.Read(ptrAt(hdr.Data(), 8)); err == nil {
			_, err = tx.OpenForWrite(data)
		}
	}
	if err != nil {
		tx.Abort()
		tr.end(rung)
		return err
	}
	err = tx.Commit()
	tr.end(rung)
	if err != nil {
		return err
	}

	// bond: the payload and the two index keys the update encodes.
	rung = tr.begin(root, n, "bond")
	encodeUpdate(val)
	tr.end(rung)
	return nil
}

// encodeUpdate is the Bond work of one update: the payload and the two
// secondary-index keys.
func encodeUpdate(val bond.Value) {
	bond.Marshal(val)
	cat, _ := val.Field(1)
	score, _ := val.Field(2)
	bond.OrderedEncode(nil, cat)
	bond.OrderedEncode(nil, score)
}

// metrics folds the trace into the ladder table and the layer metrics the
// ladder gives: the frontend and query spans, the tracing overhead against
// the untraced replay of the same ops, and the per-op counters.
func (l *ladder) metrics(untracedRate float64, m map[string]float64) []ladderRow {
	tr := l.tr
	frontendUS := tr.spansNamed("frontend")
	var total float64
	for _, us := range frontendUS {
		total += us
	}
	if total > 0 && untracedRate > 0 {
		tracedRate := float64(len(frontendUS)) / (total / 1e6)
		m["trace.overhead_pct"] = (untracedRate - tracedRate) / untracedRate * 100
	}
	rows, frontendSelf := tr.table()
	m["frontend.query_us"] = median(frontendUS)
	m["frontend.self_us"] = median(frontendSelf)
	m["query.bind_us"] = median(tr.spansNamed("query.bind"))
	m["query.run_us"] = median(tr.spansNamed("query.run"))
	k := l.counters
	if k.ops > 0 {
		per := func(x int64) float64 { return float64(x) / float64(k.ops) }
		m["query.vertices_read_per_op"] = per(k.vertices)
		m["query.objects_read_per_op"] = per(k.objects)
		m["query.remote_reads_per_op"] = per(k.remote)
		m["query.rpcs_per_op"] = per(k.rpcs)
		m["query.rows_shipped_per_op"] = per(k.rowsShipped)
		m["query.bytes_shipped_per_op"] = per(k.bytesShipped)
		m["query.groups_shipped_per_op"] = per(k.groupsShip)
		m["query.local_frac"] = k.localFrac / float64(k.ops)
		m["query.reads_per_result"] = float64(k.vertices) / float64(max(k.results, 1))
		m["query.qerror_p50"] = median(k.qerrors)
		m["query.qerror_max"] = percentile(k.qerrors, 100)
	}
	return rows
}

// spansNamed returns the durations, in µs, of every span with this name.
func (tr *tracer) spansNamed(name string) []float64 {
	var out []float64
	for _, s := range tr.spans {
		if s.Name == name {
			out = append(out, s.us())
		}
	}
	return out
}

// ladderRow is one template's median rung times and self times, in µs.
type ladderRow struct {
	Template string             `json:"template"`
	Ops      int                `json:"ops"`
	RungUS   map[string]float64 `json:"rung_us"`
	SelfUS   map[string]float64 `json:"self_us"`
}

// table folds the spans into one row per template: for every op the rung
// durations, per op the self times (rung minus the next rung the op has),
// then medians over ops. frontendSelf is the same per-op difference
// between the frontend and query rungs over every op that has both.
func (tr *tracer) table() (rows []ladderRow, frontendSelf []float64) {
	type opRungs struct {
		tmpl string
		us   map[string]float64
	}
	ops := map[int]*opRungs{}
	var order []int
	for _, s := range tr.spans {
		if s.Parent == 0 {
			ops[s.Op] = &opRungs{tmpl: s.Name, us: map[string]float64{}}
			order = append(order, s.Op)
		}
	}
	roots := map[int]bool{}
	for _, s := range tr.spans {
		if s.Parent == 0 {
			roots[s.ID] = true
		}
	}
	for _, s := range tr.spans {
		if roots[s.Parent] {
			ops[s.Op].us[s.Name] = s.us()
		}
	}
	rung := map[string]map[string][]float64{}
	self := map[string]map[string][]float64{}
	count := map[string]int{}
	var tmpls []string
	for _, n := range order {
		o := ops[n]
		if _, ok := rung[o.tmpl]; !ok {
			rung[o.tmpl], self[o.tmpl] = map[string][]float64{}, map[string][]float64{}
			tmpls = append(tmpls, o.tmpl)
		}
		count[o.tmpl]++
		var have []string
		for _, r := range rungs {
			if _, ok := o.us[r]; ok {
				have = append(have, r)
			}
		}
		for i, r := range have {
			rung[o.tmpl][r] = append(rung[o.tmpl][r], o.us[r])
			d := o.us[r]
			if i+1 < len(have) {
				d -= o.us[have[i+1]]
			}
			self[o.tmpl][r] = append(self[o.tmpl][r], d)
			if r == "frontend" && i+1 < len(have) && have[i+1] == "query" {
				frontendSelf = append(frontendSelf, d)
			}
		}
	}
	for _, tmpl := range tmpls {
		row := ladderRow{Template: tmpl, Ops: count[tmpl], RungUS: map[string]float64{}, SelfUS: map[string]float64{}}
		for r, vals := range rung[tmpl] {
			row.RungUS[r] = median(vals)
			row.SelfUS[r] = median(self[tmpl][r])
		}
		rows = append(rows, row)
	}
	return rows, frontendSelf
}

// write stores the spans and the folded ladder under benchmarks/out.
func (tr *tracer) write(path string, rows []ladderRow) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(struct {
		Ladder []ladderRow `json:"ladder"`
		Spans  []span      `json:"spans"`
	}{rows, tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
