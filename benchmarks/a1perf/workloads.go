package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"a1"
	"a1/internal/bench"
	"a1/internal/bond"
	"a1/internal/workload"
)

const (
	datasetFilm = iota
	datasetZipf
)

// How a template reaches the system through the facade.
const (
	kindQuery = iota // ad-hoc document through db.Query: parsed or plan-cached per call
	kindExec         // prepared statement, PreparedQuery.Exec
	kindDrain        // prepared statement, ExecRows … Close over every page
	kindWrite        // db.Transaction: LookupVertex + UpdateVertex
)

type template struct {
	name string
	kind int
	doc  string
}

// op is one call into the system. key is the id, category or root the
// template is bound to; for a write, n draws the category shift.
type op struct {
	tmpl int
	key  string
	idx  int // vertex index behind key, where the check needs it
	n    int
}

func (o op) String() string {
	return strconv.Itoa(o.tmpl) + "|" + o.key + "|" + strconv.Itoa(o.n)
}

// workloadDef fixes one workload: dataset, templates, how ops are drawn,
// and the Sim phase's frozen sizes. cycle is the fixed interleaving of
// template indexes that makes one latency sample; a nil cycle means every
// op is its own sample and pick chooses its template.
type workloadDef struct {
	name      string
	dataset   int
	templates []template
	cycle     []int
	pick      func(s *stream) op
	// Sim phase, frozen on the commit that introduced the benchmark so the
	// phase fits its wall budget: ops per Sim run, and the open-loop
	// reference rate (about a quarter of that commit's sim_sat_ops_per_s).
	nSim    int
	simRate float64
}

func (w *workloadDef) cycleLen() int {
	if w.cycle == nil {
		return 1
	}
	return len(w.cycle)
}

// interleave spreads each template's count evenly over one cycle, so a
// cycle is a fixed order and no template runs in a burst.
func interleave(counts ...int) []int {
	total := 0
	for _, n := range counts {
		total += n
	}
	cycle := make([]int, 0, total)
	done := make([]int, len(counts))
	for pos := 1; pos <= total; pos++ {
		// The template furthest behind its even share goes next.
		best, bestLag := -1, 0.0
		for t, n := range counts {
			lag := float64(pos)*float64(n)/float64(total) - float64(done[t])
			if done[t] < n && (best < 0 || lag > bestLag) {
				best, bestLag = t, lag
			}
		}
		done[best]++
		cycle = append(cycle, best)
	}
	return cycle
}

const (
	pointDoc = `{"id":%q,"_select":["id","name[0]","popularity"]}`
	readDoc  = `{"id":"$who","_select":["id","category","score"]}`

	topkIndexDoc   = `{"_type":"node","category":"$cat","_orderby":"-score","_limit":10,"_select":["id","score"]}`
	groupStreamDoc = `{"_type":"node","_groupby":"score","_select":["_count(*)"],"_limit":100}`
	recurseInDoc   = `{"id":"$root","_recurse":{"_type":"link","_dir":"in","_max":3,"_vertex":{"_select":["_count(*)"]}}}`
	drainDoc       = `{"_type":"node","category":"$cat","_select":["id","score"]}`
	countDoc       = `{"_type":"node","category":"$cat","_select":["_count(*)"]}`
	groupAllDoc    = `{"_type":"node","_groupby":"category","_select":["_count(*)"]}`
)

// Template indexes of the shape and readwrite workloads.
const (
	shTopkIndex = iota
	shTopkTraverse
	shGroupRollup
	shGroupStream
	shRecurseIn
	shDrain

	rwRead  = 0
	rwWrite = 1
)

// zipfNames only renders ids, category names and query documents; its size
// fields are irrelevant here.
var zipfNames = workload.NewZipfGraph(0, 0, 0)

var workloads = []*workloadDef{
	{
		name:      "point",
		dataset:   datasetFilm,
		templates: []template{{"point", kindQuery, pointDoc}},
		pick: func(s *stream) op {
			i := s.r.Intn(len(s.orc.ids))
			return op{key: s.orc.ids[i], idx: i}
		},
		nSim: 2000, simRate: 30000,
	},
	{
		name:    "traverse",
		dataset: datasetFilm,
		templates: []template{
			{"q1", kindQuery, bench.Q1},
			{"q2", kindQuery, bench.Q2},
			{"q3", kindQuery, bench.Q3},
			{"q4", kindQuery, bench.Q4},
		},
		cycle: interleave(4, 16, 16, 1),
		nSim:  185, simRate: 6000,
	},
	{
		name:    "shape",
		dataset: datasetZipf,
		templates: []template{
			shTopkIndex:    {"topk_index", kindExec, topkIndexDoc},
			shTopkTraverse: {"topk_traverse", kindExec, zipfNames.TopKNeighborsQuery(zipfNames.HotCategory(), topK)},
			shGroupRollup:  {"group_rollup", kindExec, zipfNames.TopGroupsQuery(topK)},
			shGroupStream:  {"group_stream", kindExec, groupStreamDoc},
			shRecurseIn:    {"recurse_in", kindExec, recurseInDoc},
			shDrain:        {"drain", kindDrain, drainDoc},
		},
		cycle: interleave(8, 1, 1, 1, 1, 1),
		nSim:  195, simRate: 3500,
	},
	{
		name:    "readwrite",
		dataset: datasetZipf,
		templates: []template{
			rwRead:  {"read", kindExec, readDoc},
			rwWrite: {"write", kindWrite, ""},
		},
		pick: func(s *stream) op {
			if s.r.Float64() < 0.9 {
				i := s.r.Intn(len(s.orc.ids))
				return op{tmpl: rwRead, key: s.orc.ids[i], idx: i}
			}
			// Writes walk a seeded permutation of the keys, client j at
			// positions j, j+clients, …: uniform over the keys, and no two
			// writes in flight ever target the same key, so "the last
			// acknowledged write" of a key is well defined.
			i := s.perm[(s.client+s.writes*s.clients)%len(s.perm)]
			s.writes++
			return op{tmpl: rwWrite, key: s.orc.ids[i], idx: i, n: s.r.Intn(1 << 16)}
		},
		nSim: 4000, simRate: 20000,
	},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// stream is one client's op sequence. Every draw comes from the
// benchmark's own seeded generators; the engine sees only the documents
// and parameters.
type stream struct {
	w       *workloadDef
	orc     *oracle
	r       *rand.Rand
	catCDF  []float64 // shape: cumulative category popularity
	catU    float64   // shape: position of the low-discrepancy category draw
	perm    []int     // readwrite: write-key permutation, shared by all clients of a seed
	pos     int
	client  int
	clients int
	writes  int
}

func newStream(w *workloadDef, orc *oracle, seed int64, client, clients int) *stream {
	// One master generator per seed hands each client its own source and
	// draws the shared write permutation.
	master := rand.New(rand.NewSource(seed))
	var perm []int
	if w.name == "readwrite" {
		perm = master.Perm(len(orc.ids))
	}
	var src int64
	for i := 0; i <= client; i++ {
		src = master.Int63()
	}
	s := &stream{w: w, orc: orc, r: rand.New(rand.NewSource(src)), perm: perm, client: client, clients: clients}
	if w.name == "shape" {
		s.catCDF, s.catU = categoryCDF(orc), s.r.Float64()
	}
	if w.cycle != nil {
		// The seed picks where in the fixed cycle the stream starts.
		s.pos = s.r.Intn(len(w.cycle))
	}
	return s
}

func (s *stream) next() op {
	if s.w.cycle == nil {
		return s.w.pick(s)
	}
	o := op{tmpl: s.w.cycle[s.pos%len(s.w.cycle)]}
	s.pos++
	if s.w.name != "shape" {
		return o
	}
	switch o.tmpl {
	case shTopkIndex:
		o.idx = s.drawCategory()
		o.key = zipfNames.CategoryName(o.idx)
	case shDrain:
		o.key = zipfNames.HotCategory()
	case shRecurseIn:
		o.idx = s.orc.recurseRoot
		o.key = s.orc.ids[o.idx]
	}
	return o
}

// categoryCDF is the Zipf popularity the dataset generator gave the
// categories (P(rank k) ∝ (1+k)^-1.3), over the categories that hold a
// vertex: at toy scale the tail is empty, and an empty root is ErrNoStart,
// not an answer.
func categoryCDF(orc *oracle) []float64 {
	cdf := make([]float64, len(orc.byCat))
	var sum float64
	for k, members := range orc.byCat {
		if len(members) > 0 {
			sum += math.Pow(float64(1+k), -1.3)
		}
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}

// drawCategory draws the next top-K category by popularity. The draws walk
// a golden-ratio sequence from a seeded start instead of being independent:
// a rare tail category costs a Sim top-K ten times a hot one, and with
// independent draws the handful of them in a Sim run moved sim_mean_ms by
// ±6 % from seed to seed. The sequence keeps every stretch of the stream
// at the population's mix.
func (s *stream) drawCategory() int {
	s.catU = math.Mod(s.catU+math.Phi-1, 1)
	return sort.SearchFloat64s(s.catCDF, s.catU)
}

// opsDigest hashes the first n ops of client 0's stream: the fingerprint
// that pins the op generator for a seed.
func opsDigest(w *workloadDef, orc *oracle, seed int64, n int) string {
	s := newStream(w, orc, seed, 0, 2)
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		h.Write([]byte(s.next().String()))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// outcome is what one executed op returned, as far as the per-op counters
// and checks need it.
type outcome struct {
	stats   a1.QueryStats
	results int64 // rows, groups or counted vertices returned
}

// maxAttempts is how often a client sends one op before it gives up.
const maxAttempts = 5

// exec runs one op through the facade and checks its answer. An error is
// an op that failed: the engine refused it, or the answer was wrong.
//
// An op the engine refuses is sent again, as an online client would, up to
// maxAttempts times, backing off 1, 2, 4 and 8 ms; the re-sends are counted
// (client.retried_ops) and their time stays in the op's latency. Beside
// concurrent update transactions the engine refuses about one op in
// 400,000 today, with errors that are gone a moment later (README, finding
// 5); a commit that the host deschedules half-applied keeps refusing for
// as long as it is off the CPU, hence the back-off. The benchmark needs
// workloads on which no op fails for good. A wrong answer is never retried.
func (cl *cluster) exec(c *a1.Ctx, o op) (outcome, error) {
	for attempt := 1; ; attempt++ {
		out, err := cl.execOnce(c, o)
		var wrong *wrongAnswer
		if err == nil || attempt == maxAttempts || errors.As(err, &wrong) {
			return out, err
		}
		cl.retried.Add(1)
		c.Sleep(time.Millisecond << (attempt - 1))
	}
}

// wrongAnswer marks an error of the check, not of the engine.
type wrongAnswer struct{ err error }

func (w *wrongAnswer) Error() string { return "wrong answer: " + w.err.Error() }
func (w *wrongAnswer) Unwrap() error { return w.err }

func (cl *cluster) execOnce(c *a1.Ctx, o op) (outcome, error) {
	t := &cl.w.templates[o.tmpl]
	var res *a1.Result
	var err error
	drained := -1
	switch t.kind {
	case kindQuery:
		res, err = cl.db.Query(c, cl.g, cl.document(o))
	case kindExec:
		res, err = cl.stmts[o.tmpl].Exec(c, cl.params(o))
	case kindDrain:
		res, drained, err = cl.drain(c, o)
	case kindWrite:
		return outcome{}, cl.write(c, o)
	}
	if err != nil {
		if errors.Is(err, a1.ErrThrottled) {
			cl.throttled.Add(1)
		}
		return outcome{}, fmt.Errorf("%s(%s): %w", t.name, o.key, err)
	}
	if t.name == "group_stream" {
		cl.streamExec.Add(1)
	}
	out := outcome{stats: res.Stats, results: int64(len(res.Rows) + len(res.Groups))}
	if res.HasCount {
		out.results = res.Count
	}
	if drained >= 0 {
		out.results = int64(drained)
	}
	if err := cl.check(o, res, drained); err != nil {
		return out, fmt.Errorf("%s(%s): %w", t.name, o.key, &wrongAnswer{err})
	}
	return out, nil
}

// document is the A1QL text of an ad-hoc op: the point template carries
// its id inline, so every id is a distinct document to the plan cache.
func (cl *cluster) document(o op) string {
	if cl.w.name == "point" {
		return fmt.Sprintf(pointDoc, o.key)
	}
	return cl.w.templates[o.tmpl].doc
}

func (cl *cluster) params(o op) a1.Params {
	switch cl.w.templates[o.tmpl].name {
	case "topk_index", "drain":
		return a1.Params{"cat": o.key}
	case "recurse_in":
		return a1.Params{"root": o.key}
	case "read":
		return a1.Params{"who": o.key}
	}
	return nil
}

// drain walks a cursor to its end and closes it, returning the first page
// (whose Stats describe the execution) and the row count.
func (cl *cluster) drain(c *a1.Ctx, o op) (*a1.Result, int, error) {
	rows, err := cl.stmts[o.tmpl].ExecRows(c, cl.params(o))
	if err != nil {
		return nil, 0, err
	}
	n := 0
	for rows.Next(c) {
		n++
	}
	if err := rows.Err(); err != nil {
		_ = rows.Close(c) // the drain already failed; report that error
		return nil, 0, err
	}
	return rows.Result(), n, rows.Close(c)
}

// write is the readwrite update: one optimistic transaction that looks the
// key up and moves it to a new category and score.
func (cl *cluster) write(c *a1.Ctx, o op) error {
	cat, score := cl.rw.nextWrite(o.idx, o.n, cl.zipf.Categories)
	val := zipfValue(o.key, cat, score)
	err := cl.db.Transaction(c, func(tx *a1.Tx) error {
		cl.txAttempts.Add(1)
		vp, ok, err := cl.g.LookupVertex(tx, "node", bond.String(o.key))
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("key %s not found", o.key)
		}
		return cl.g.UpdateVertex(tx, vp, val)
	})
	if err != nil {
		return fmt.Errorf("write(%s): %w", o.key, err)
	}
	cl.commits.Add(1)
	cl.rw.ack(o.idx, cat, score)
	return nil
}

func zipfValue(id string, cat int32, score int64) bond.Value {
	return bond.Struct(
		bond.FV(0, bond.String(id)),
		bond.FV(1, bond.String(zipfNames.CategoryName(int(cat)))),
		bond.FV(2, bond.Int64(score)),
	)
}

// check compares an answer with the oracle's. The invariants hold for any
// seed: they come from the brute-force walk, not from frozen numbers.
func (cl *cluster) check(o op, res *a1.Result, drained int) error {
	orc := cl.orc
	switch cl.w.templates[o.tmpl].name {
	case "point", "read":
		if len(res.Rows) != 1 {
			return fmt.Errorf("%d rows, want 1", len(res.Rows))
		}
		if got := res.Rows[0].Values["id"].AsString(); got != o.key {
			return fmt.Errorf("id %q", got)
		}
	case "q1", "q2", "q4":
		if !res.HasCount || res.Count != orc.q[o.tmpl] {
			return fmt.Errorf("count %d, walk found %d", res.Count, orc.q[o.tmpl])
		}
	case "q3":
		if int64(len(res.Rows)) != orc.q[o.tmpl] {
			return fmt.Errorf("%d rows, walk found %d", len(res.Rows), orc.q[o.tmpl])
		}
	case "topk_index":
		want := orc.byCat[o.idx]
		if len(want) > topK {
			want = want[:topK]
		}
		if len(res.Rows) != len(want) {
			return fmt.Errorf("%d rows, want %d", len(res.Rows), len(want))
		}
		for i, r := range res.Rows {
			if got := r.Values["score"].AsInt(); got != orc.score[want[i]] {
				return fmt.Errorf("row %d score %d, want %d", i, got, orc.score[want[i]])
			}
		}
	case "topk_traverse":
		if len(res.Rows) != len(orc.topNeighbors) {
			return fmt.Errorf("%d rows, want %d", len(res.Rows), len(orc.topNeighbors))
		}
		for i, r := range res.Rows {
			if got := r.Values["score"].AsInt(); got != orc.topNeighbors[i] {
				return fmt.Errorf("row %d score %d, want %d", i, got, orc.topNeighbors[i])
			}
		}
	case "group_rollup":
		// The groups come back largest first and each count is the walk's.
		prev := int64(-1)
		for i, gr := range res.Groups {
			var rank int
			if _, err := fmt.Sscanf(gr.Keys["category"].AsString(), "c%d", &rank); err != nil {
				return err
			}
			n := gr.Aggregates["_count(*)"].AsInt()
			if n != int64(len(orc.byCat[rank])) || (prev >= 0 && n > prev) {
				return fmt.Errorf("group %d: count %d (category holds %d, previous group %d)", i, n, len(orc.byCat[rank]), prev)
			}
			prev = n
		}
		if want := min(topK, nonEmpty(orc.byCat)); len(res.Groups) != want {
			return fmt.Errorf("%d groups, want %d", len(res.Groups), want)
		}
	case "group_stream":
		// Scores are unique, so every group holds one vertex and the page is
		// cut at the limit.
		if want := min(100, orc.vertices); len(res.Groups) != want {
			return fmt.Errorf("%d groups, want %d", len(res.Groups), want)
		}
		for i, gr := range res.Groups {
			if n := gr.Aggregates["_count(*)"].AsInt(); n != 1 {
				return fmt.Errorf("group %d: count %d, want 1", i, n)
			}
		}
	case "recurse_in":
		if !res.HasCount || res.Count != orc.recurseCount {
			return fmt.Errorf("count %d, walk found %d", res.Count, orc.recurseCount)
		}
	case "drain":
		if want := len(orc.byCat[0]); drained != want {
			return fmt.Errorf("drained %d rows, category holds %d", drained, want)
		}
	}
	return nil
}

func nonEmpty(lists [][]int32) int {
	n := 0
	for _, l := range lists {
		if len(l) > 0 {
			n++
		}
	}
	return n
}
