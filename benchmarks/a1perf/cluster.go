package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"a1"
	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/farm"
	"a1/internal/workload"
)

// scale sizes a run. The full scale is the benchmark; the toy scale is the
// same program on hundreds of vertices for the tier-1 smoke test.
type scale struct {
	film         workload.Params
	zipfVertices int
	zipfEdges    int
	setups       int           // Direct set-ups per run; setup_s is their median
	warm         time.Duration // untimed closed-loop warm-up before the window
	simOps       int           // 0 = the workload's frozen N_sim
	ladderOps    int           // traced samples replayed at most
	microIters   int           // iterations of each per-layer micro-measurement
}

func fullScale() *scale {
	return &scale{
		film:         workload.PaperParams(),
		zipfVertices: 10000,
		zipfEdges:    30000,
		setups:       3,
		warm:         time.Second,
		ladderOps:    2000,
		microIters:   2000,
	}
}

func toyScale() *scale {
	return &scale{
		film:         workload.TestParams(),
		zipfVertices: 300,
		zipfEdges:    900,
		setups:       1,
		warm:         20 * time.Millisecond,
		simOps:       50,
		ladderOps:    20,
		microIters:   50,
	}
}

// cluster is one opened database with the workload's dataset loaded and
// its statements prepared. A run opens a Direct cluster (wall clock) and a
// Sim cluster (virtual clock) over the same seeded dataset.
type cluster struct {
	w     *workloadDef
	sc    *scale
	db    *a1.DB
	g     *a1.Graph
	stmts []*a1.PreparedQuery // parallel to w.templates; nil for ad-hoc and write templates
	zipf  *workload.ZipfGraph
	orc   *oracle

	rw         *rwState // readwrite only: what each key was last written to
	txAttempts atomic.Int64
	commits    atomic.Int64
	throttled  atomic.Int64
	retried    atomic.Int64 // re-sends of ops the engine refused (see exec)
	// gcGate lets readwrite's version-GC sweep run only while no op is in
	// flight: ops hold it shared, the sweep exclusively. With the sweep
	// running beside the ops, one run in twenty lost sixteen writes in a
	// row to "truncated btree node" (README, finding 5).
	gcGate     sync.RWMutex
	streamExec atomic.Int64 // executions of a `_limit`-cut group stream (parks run tails by design)
	gcUS       []float64    // version-GC sweeps: duration and slots freed (client 0 only)
	gcFreed    []float64
}

// datasetSeed seeds the dataset generators and the Sim cluster (placement,
// back-off jitter). It is a constant: --seed varies what is asked of the
// system, not what is stored in it. Runs on different seeds are repeats of
// one benchmark whose medians can be compared; with a dataset per seed the
// Zipf graph's shape (hub degrees, category sizes, the recursion root's
// reach) moved the shape workload's numbers by 10–25 % from seed to seed,
// which no bound could hold.
const datasetSeed = 1

// openCluster is what setup_s times on the Direct side: a1.Open, tenant,
// graph, schema, dataset load and statement preparation.
func openCluster(w *workloadDef, sc *scale, sim bool) (*cluster, error) {
	// Direct: the facade's defaults on 8 machines (3 replicas, 2 frontends,
	// no throttle). Sim: 16 machines in 4 racks.
	opts := a1.Options{Machines: 8}
	if sim {
		opts = a1.Options{Machines: 16, Racks: 4, Mode: a1.Sim, Seed: datasetSeed}
	}
	db, err := a1.Open(opts)
	if err != nil {
		return nil, err
	}
	cl := &cluster{w: w, sc: sc, db: db}
	db.Run(func(c *a1.Ctx) {
		if err = db.CreateTenant(c, "bing"); err != nil {
			return
		}
		if err = db.CreateGraph(c, "bing", "bench"); err != nil {
			return
		}
		if cl.g, err = db.OpenGraph(c, "bing", "bench"); err != nil {
			return
		}
		if w.dataset == datasetFilm {
			p := sc.film
			p.Seed = datasetSeed
			err = workload.NewFilmKG(p).Load(c, cl.g)
		} else {
			cl.zipf = workload.NewZipfGraph(sc.zipfVertices, sc.zipfEdges, datasetSeed)
			err = cl.zipf.Load(c, cl.g)
		}
		if err != nil {
			return
		}
		cl.stmts = make([]*a1.PreparedQuery, len(w.templates))
		for i, t := range w.templates {
			if t.kind == kindExec || t.kind == kindDrain {
				if cl.stmts[i], err = db.Prepare(c, cl.g, t.doc); err != nil {
					err = fmt.Errorf("prepare %s: %w", t.name, err)
					return
				}
			}
		}
	})
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("set-up %s: %w", w.name, err)
	}
	return cl, nil
}

// vertexType names the dataset's one vertex type.
func (cl *cluster) vertexType() string {
	if cl.w.dataset == datasetZipf {
		return "node"
	}
	return "entity"
}

// adopt attaches the oracle (built once, on the Direct cluster) and the
// per-cluster write-tracking state.
func (cl *cluster) adopt(orc *oracle) {
	cl.orc = orc
	if cl.w.name == "readwrite" {
		cl.rw = newRWState(orc)
	}
}

// pending sums the engine's continuation and parked-run gauges over every
// machine after one expiry sweep.
func (cl *cluster) pending() (results, runs int) {
	e := cl.db.Engine()
	cl.db.Run(func(c *a1.Ctx) {
		for m := 0; m < cl.db.Fabric().Machines(); m++ {
			id := a1.MachineID(m)
			e.ExpireResults(c.At(id))
			results += e.PendingResults(id)
			runs += e.PendingRuns(id)
		}
	})
	return results, runs
}

// checkLeaks is the leak gauge as a failure. Every cursor is closed by now,
// so no continuation may remain. Parked group-run tails are the one state
// the engine frees by TTL only (groupCursor.close is a no-op by design and
// the 60 s ResultTTL outlives a run): each execution of the `_limit`-cut
// group stream may leave one tail per machine, anything beyond that is a
// leak.
func (cl *cluster) checkLeaks() error {
	results, runs := cl.pending()
	allowed := int(cl.streamExec.Load()) * cl.db.Fabric().Machines()
	if results != 0 || runs > allowed {
		return fmt.Errorf("leak: %d continuations pending (want 0), %d run tails parked (at most %d by TTL design)", results, runs, allowed)
	}
	return nil
}

// oracle is what a brute-force walk over the core API found in the loaded
// dataset: the digests that pin it, and the expected answer of every
// template. It is built once per run on the Direct cluster; the Sim
// cluster holds the same logical dataset, so it shares the oracle.
type oracle struct {
	vertices  int
	edges     int
	userBytes int64 // Σ bond.MarshalSize of every vertex payload (edges carry none)
	digest    string
	ids       []string // every primary key, in primary-index order

	// Film KG: Q1, Q2 and Q4 counts, Q3 row count.
	q [4]int64

	// Zipf graph, by vertex index (id z%07d ↔ index).
	cat          []int32 // category rank at load
	score        []int64
	out, in      [][]int32
	byCat        [][]int32 // vertex indexes per category rank, score descending
	recurseRoot  int
	recurseCount int64
	topNeighbors []int64 // scores of the 10 best out-neighbours of the hot category
}

const topK = 10

func buildOracle(cl *cluster) (*oracle, error) {
	orc := &oracle{}
	var err error
	cl.db.Run(func(c *a1.Ctx) {
		tx := cl.db.ReadTransaction(c)
		if err = orc.scan(tx, cl); err != nil {
			return
		}
		if cl.w.dataset == datasetFilm {
			err = orc.walkFilm(tx, cl.g)
		} else {
			orc.deriveZipf(cl.zipf.Categories)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return orc, nil
}

// scan reads every vertex once through the primary index: ids, payload
// bytes and degrees go into the dataset digest, and the Zipf fields and
// adjacency are kept for the expected answers.
func (o *oracle) scan(tx *a1.Tx, cl *cluster) error {
	g := cl.g
	zipf := cl.w.dataset == datasetZipf
	var ptrs []core.VertexPtr
	err := g.ScanVerticesByType(tx, cl.vertexType(), func(pk bond.Value, vp core.VertexPtr) bool {
		o.ids = append(o.ids, pk.AsString())
		ptrs = append(ptrs, vp)
		return true
	})
	if err != nil {
		return err
	}
	o.vertices = len(ptrs)
	index := make(map[farm.Addr]int32, len(ptrs))
	for i, vp := range ptrs {
		index[vp.Addr] = int32(i)
	}
	if zipf {
		o.cat = make([]int32, len(ptrs))
		o.score = make([]int64, len(ptrs))
		o.out = make([][]int32, len(ptrs))
		o.in = make([][]int32, len(ptrs))
	}
	h := sha256.New()
	var num [8]byte
	for lo := 0; lo < len(ptrs); lo += 256 {
		hi := min(lo+256, len(ptrs))
		vs, err := g.ReadVertices(tx, ptrs[lo:hi])
		if err != nil {
			return err
		}
		for k, v := range vs {
			i := lo + k
			if v == nil {
				return fmt.Errorf("vertex %s vanished during the scan", o.ids[i])
			}
			payload := bond.Marshal(v.Data)
			o.userBytes += int64(len(payload))
			o.edges += v.OutCount
			h.Write([]byte(o.ids[i]))
			h.Write(payload)
			binary.LittleEndian.PutUint32(num[:4], uint32(v.OutCount))
			binary.LittleEndian.PutUint32(num[4:], uint32(v.InCount))
			h.Write(num[:])
			if !zipf {
				continue
			}
			c, _ := v.Data.Field(1)
			s, _ := v.Data.Field(2)
			var rank int32
			if _, err := fmt.Sscanf(c.AsString(), "c%d", &rank); err != nil {
				return fmt.Errorf("vertex %s: category %q: %w", o.ids[i], c.AsString(), err)
			}
			o.cat[i], o.score[i] = rank, s.AsInt()
			err := g.EnumerateEdges(tx, ptrs[i], core.DirOut, "link", func(he core.HalfEdge) bool {
				j := index[he.Other.Addr]
				o.out[i] = append(o.out[i], j)
				o.in[j] = append(o.in[j], int32(i))
				return true
			})
			if err != nil {
				return err
			}
		}
	}
	o.digest = hex.EncodeToString(h.Sum(nil)[:8])
	return nil
}

// deriveZipf computes the expected answers of the shape templates from the
// scanned fields and adjacency.
func (o *oracle) deriveZipf(categories int) {
	o.byCat = make([][]int32, categories)
	for i, c := range o.cat {
		o.byCat[c] = append(o.byCat[c], int32(i))
	}
	for _, members := range o.byCat {
		sort.Slice(members, func(a, b int) bool { return o.score[members[a]] > o.score[members[b]] })
	}
	// topk_traverse: best scores among the distinct out-neighbours of the
	// hot category.
	seen := map[int32]bool{}
	for _, v := range o.byCat[0] {
		for _, n := range o.out[v] {
			if !seen[n] {
				seen[n] = true
				o.topNeighbors = append(o.topNeighbors, o.score[n])
			}
		}
	}
	sort.Slice(o.topNeighbors, func(a, b int) bool { return o.topNeighbors[a] > o.topNeighbors[b] })
	if len(o.topNeighbors) > topK {
		o.topNeighbors = o.topNeighbors[:topK]
	}
	// recurse_in: in-edges land on low-rank hubs, so most vertices have an
	// empty in-reach and the top hubs reach nearly everything. The root is
	// the vertex among ranks 16..255 whose 3-hop in-reach is closest to a
	// tenth of the graph — mid-rank, and a few hundred reads of work.
	target := int64(len(o.cat) / 10)
	best := int64(-1)
	for v := 16; v < 256 && v < len(o.cat); v++ {
		n := o.reachIn(v, 3)
		if best < 0 || abs64(n-target) < abs64(best-target) {
			best, o.recurseRoot = n, v
		}
	}
	o.recurseCount = best
}

// reachIn counts the vertices whose shortest in-direction distance from
// root is within 1..depth — `_recurse` with `_dir: in`, `_min` 1.
func (o *oracle) reachIn(root, depth int) int64 {
	dist := map[int32]int{int32(root): 0}
	frontier := []int32{int32(root)}
	var n int64
	for d := 1; d <= depth && len(frontier) > 0; d++ {
		var next []int32
		for _, v := range frontier {
			for _, u := range o.in[v] {
				if _, ok := dist[u]; !ok {
					dist[u] = d
					next = append(next, u)
					n++
				}
			}
		}
		frontier = next
	}
	return n
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// rwState tracks what every key of the readwrite workload was last
// acknowledged to hold, so a write can always pick a new category and the
// end-of-run check can read every key back.
type rwState struct {
	mu    sync.Mutex
	cat   []int32
	score []int64
	next  int64 // next fresh score; load-time scores are < vertices
}

func newRWState(o *oracle) *rwState {
	return &rwState{
		cat:   append([]int32(nil), o.cat...),
		score: append([]int64(nil), o.score...),
		next:  int64(len(o.cat)),
	}
}

// nextWrite picks the value a write gives key i: a category other than the
// one it holds (shift in 1..categories-1) and a never-used score, so both
// secondary indexes move on every write.
func (s *rwState) nextWrite(i, shift, categories int) (int32, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	return (s.cat[i] + int32(1+shift%(categories-1))) % int32(categories), s.next
}

func (s *rwState) ack(i int, cat int32, score int64) {
	s.mu.Lock()
	s.cat[i], s.score[i] = cat, score
	s.mu.Unlock()
}
