package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"a1"
	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/farm"
)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload: the contract's result line plus
// what identifies the run in a result file.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     int                    `json:"trace"`
	Clients   int                    `json:"clients"`
	Dataset   datasetInfo            `json:"dataset"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// TemplateMS is the median latency of each template inside the window.
	TemplateMS map[string]float64 `json:"template_ms"`
	Slices     []slice            `json:"window_slices,omitempty"`
	// Retried counts re-sends of ops the engine refused (Direct cluster).
	Retried int64       `json:"retried_ops"`
	Ladder  []ladderRow `json:"ladder,omitempty"`
	Errors  []string    `json:"errors,omitempty"`
}

// datasetInfo pins what was loaded and what was asked of it.
type datasetInfo struct {
	Vertices  int    `json:"vertices"`
	Edges     int    `json:"edges"`
	Digest    string `json:"digest"`
	OpsDigest string `json:"ops_digest"`
}

// runConfig is one invocation's flags.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string // where <workload>.trace.json goes
	expected string // path of expected.json; "" skips the drift guard
}

// runWorkload is one run: set-up, closed-loop window, and then either the
// Sim phases (trace off: the end-to-end metrics) or the traced ladder, the
// per-layer measurements and a Sim open-loop pass (trace on).
func runWorkload(cfg runConfig, sc *scale, logf func(string, ...any)) (*runResult, error) {
	w := workloadByName(cfg.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	clients := min(2, runtime.NumCPU())
	res := &runResult{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Clients: clients, Metrics: map[string]metricValue{}}
	if cfg.trace {
		res.Trace = 1
	}
	t := &tally{}
	length := time.Duration(cfg.seconds * float64(time.Second))

	// Set-up, several times over: setup_s is the median, the last cluster
	// is the one measured.
	setups := sc.setups
	if cfg.trace {
		setups = 1
	}
	var cl *cluster
	var setupS []float64
	for i := 0; i < setups; i++ {
		if cl != nil {
			cl.db.Close()
			cl = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if cl, err = openCluster(w, sc, false); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer cl.db.Close()
	usedBytes := cl.db.UsedBytes()
	logf("set-up x%d: %.3f s each (median)", setups, median(append([]float64(nil), setupS...)))

	orc, err := buildOracle(cl)
	if err != nil {
		return nil, err
	}
	cl.adopt(orc)
	res.Dataset = datasetInfo{orc.vertices, orc.edges, orc.digest, opsDigest(w, orc, cfg.seed, 10000)}
	logf("dataset: %d vertices, %d edges, digest %s; first 10k ops digest %s",
		orc.vertices, orc.edges, orc.digest, res.Dataset.OpsDigest)
	if cfg.expected != "" {
		if err := checkExpected(cfg.expected, w.name, cfg.seed, res.Dataset); err != nil {
			return nil, err
		}
	}
	if err := cl.verifySetup(t); err != nil {
		return nil, err
	}

	vals := map[string]float64{}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		err = cl.traceRun(cfg, clients, length, usedBytes, t, vals, res, logf)
	} else {
		vals["setup_s"] = median(setupS)
		vals["store_bytes_per_user_byte"] = float64(usedBytes) / float64(orc.userBytes)
		err = cl.endToEndRun(cfg, clients, length, t, vals, res, logf)
	}
	if err != nil {
		return nil, err
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{vals[d.Name], d.Unit}
	}
	res.Attempted, res.Failed, res.Errors = t.attempted, t.failed, t.errs
	res.Retried = cl.retried.Load()
	res.Correct = t.failed == 0
	return res, nil
}

// endToEndRun is the -trace 0 run after set-up: the timed window, the
// end-of-run checks, the heap, and the two Sim phases.
func (cl *cluster) endToEndRun(cfg runConfig, clients int, length time.Duration,
	t *tally, m map[string]float64, res *runResult, logf func(string, ...any)) error {
	win := cl.measureWindow(cfg.seed, clients, length, t)
	logf("window: %d samples from %d clients in %d slices", len(win.cycleMS()), clients, len(win.slices))
	res.Slices = win.slices
	res.TemplateMS = win.templateMS(cl.w)
	m["wall_ops_per_s"] = overSlices(win.slices, func(s slice) float64 { return s.OpsPerS })
	m["wall_p50_ms"] = overSlices(win.slices, func(s slice) float64 { return s.P50MS })
	m["wall_p95_ms"] = overSlices(win.slices, func(s slice) float64 { return s.P95MS })
	if cl.rw != nil {
		if err := classOrder(win); err != nil {
			t.fail(err)
		}
	}
	if err := cl.finish(t); err != nil {
		return err
	}
	m["heap_mb"] = cl.heapMB()
	runtime.KeepAlive(win) // the sample buffers are part of every run's heap_mb alike
	sim, err := runSim(cl.w, cl.sc, cl.orc, cfg.seed, true, t)
	if err != nil {
		return err
	}
	logf("sim: %.1f s wall", sim.wall.Seconds())
	m["sim_mean_ms"] = sim.meanMS
	m["sim_p90_ms"] = sim.p90MS
	m["sim_sat_ops_per_s"] = sim.satOpsPerS
	return nil
}

// verifySetup checks, once per set-up and through the facade, the
// invariants that are not tied to one op: grouped counts sum to the vertex
// count, and a predicate's `_count(*)` equals what the walk counted.
func (cl *cluster) verifySetup(t *tally) error {
	if cl.w.name != "shape" {
		return nil
	}
	var err error
	cl.db.Run(func(c *a1.Ctx) {
		var res *a1.Result
		if res, err = cl.db.Query(c, cl.g, groupAllDoc); err != nil {
			return
		}
		var sum int64
		for _, gr := range res.Groups {
			sum += gr.Aggregates["_count(*)"].AsInt()
		}
		if sum != int64(cl.orc.vertices) || res.Continuation != "" {
			t.fail(fmt.Errorf("_groupby category counts sum to %d, graph holds %d vertices", sum, cl.orc.vertices))
		} else {
			t.add(1, 0, nil)
		}
		var pq *a1.PreparedQuery
		if pq, err = cl.db.Prepare(c, cl.g, countDoc); err != nil {
			return
		}
		if res, err = pq.Exec(c, a1.Params{"cat": zipfNames.HotCategory()}); err != nil {
			return
		}
		if res.Count != int64(len(cl.orc.byCat[0])) {
			t.fail(fmt.Errorf("_count(*) of the hot category is %d, walk found %d", res.Count, len(cl.orc.byCat[0])))
		} else {
			t.add(1, 0, nil)
		}
	})
	return err
}

// finish runs the end-of-cluster checks: every key of readwrite reads back
// as last acknowledged, and nothing is left pending in the engine.
func (cl *cluster) finish(t *tally) error {
	if cl.rw != nil {
		var bad int64
		var first error
		cl.db.Run(func(c *a1.Ctx) {
			tx := cl.db.ReadTransaction(c)
			for i, id := range cl.orc.ids {
				want := zipfValue(id, cl.rw.cat[i], cl.rw.score[i])
				vp, ok, err := cl.g.LookupVertex(tx, "node", bond.String(id))
				if err == nil && ok {
					var v *core.Vertex
					if v, err = cl.g.ReadVertex(tx, vp); err == nil && v.Data.Equal(want) {
						continue
					}
				}
				bad++
				if first == nil {
					first = fmt.Errorf("read-back of %s: last acknowledged write %v not found (err=%v)", id, want, err)
				}
			}
		})
		t.add(int64(len(cl.orc.ids)), bad, nil)
		if first != nil {
			t.add(0, 0, []string{first.Error()})
		}
	}
	return cl.checkLeaks()
}

// classOrder is readwrite's reading aid made a check: with a 90/10 mix
// wall_p50_ms is a read and wall_p95_ms a write only while the read class
// stays the faster one.
func classOrder(win window) error {
	reads, writes := templateMS(win.recs, rwRead), templateMS(win.recs, rwWrite)
	if r, w := median(reads), median(writes); len(writes) > 0 && r >= w {
		return fmt.Errorf("median read %.4f ms overtakes the median write %.4f ms: wall_p95_ms no longer reads as the write class", r, w)
	}
	return nil
}

// traceRun is the -trace 1 run: a half-length untraced window for the
// client and runtime layer metrics, a single-client untraced replay, the
// traced ladder over the same ops, the leak gauges, the micro-measurements
// and one Sim open-loop pass.
func (cl *cluster) traceRun(cfg runConfig, clients int, length time.Duration, usedBytes uint64,
	t *tally, m map[string]float64, res *runResult, logf func(string, ...any)) error {
	var lad *ladder
	var putUS []float64
	var err error
	cl.db.Run(func(c *a1.Ctx) {
		var mirror *farm.BTree
		if mirror, putUS, err = cl.buildMirror(c); err == nil {
			lad, err = newLadder(c, cl, mirror, cfg.seed)
		}
	})
	if err != nil {
		return err
	}
	m["farm.btree_put_us"] = median(putUS)
	m["farm.used_mb"] = float64(usedBytes) / (1 << 20)

	win := cl.measureWindow(cfg.seed, clients, length/2, t)
	cyc := win.cycleMS()
	m["client.wall_p99_ms"] = sortedPercentile(cyc, 99)
	m["client.wall_max_ms"] = sortedPercentile(cyc, 100)
	m["client.samples"] = float64(len(cyc))
	m["runtime.gc_cycles"] = float64(win.gcCycles)
	m["runtime.gc_pause_ms"] = win.gcPauseMS
	m["query.plan_cache_hit_ratio"] = win.planHits
	res.TemplateMS = win.templateMS(cl.w)

	untracedRate := cl.replay(lad, cfg.seed, length/4, t, m)
	res.Ladder = lad.metrics(untracedRate, m)
	for _, row := range res.Ladder {
		logf("ladder %-14s ops=%-5d rung µs %v  self µs %v", row.Template, row.Ops, fmtMap(row.RungUS), fmtMap(row.SelfUS))
	}
	if cfg.outDir != "" {
		path := filepath.Join(cfg.outDir, cl.w.name+".trace.json")
		if err := lad.tr.write(path, res.Ladder); err != nil {
			return err
		}
		logf("trace: %d spans written to %s", len(lad.tr.spans), path)
	}

	if err := cl.finish(t); err != nil {
		return err
	}
	results, runs := cl.pending()
	m["query.pending_results_after"] = float64(results)
	m["query.pending_runs_after"] = float64(runs)

	cl.db.Run(func(c *a1.Ctx) {
		if err = cl.readLayers(c, lad.mirror, lad.schema, cfg.seed, m); err == nil {
			err = cl.writeLayers(c, cfg.seed, m)
		}
	})
	if err != nil {
		return fmt.Errorf("layer measurements: %w", err)
	}
	m["frontend.throttled"] = float64(cl.throttled.Load())
	m["client.retried_ops"] = float64(cl.retried.Load())
	if commits := cl.commits.Load(); commits > 0 {
		m["farm.tx_attempts_per_commit"] = float64(cl.txAttempts.Load()) / float64(commits)
	}

	sim, err := runSim(cl.w, cl.sc, cl.orc, cfg.seed, false, t)
	if err != nil {
		return err
	}
	m["fabric.sim_rdma_us_per_op"] = sim.rdmaUSPerOp
	m["sim.wall_s"] = sim.wall.Seconds()
	return nil
}

// replay sends the first ops of client 0's stream through one client
// twice: untraced, for at most budget (that pass also gives the allocation
// counts per op), then the same ops on the ladder. It returns the untraced
// pass's ops per second.
func (cl *cluster) replay(lad *ladder, seed int64, budget time.Duration, t *tally, m map[string]float64) (untracedRate float64) {
	w := cl.w
	cl.db.Run(func(c *a1.Ctx) {
		var before, after runtime.MemStats
		st := newStream(w, cl.orc, seed, 0, 1)
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		samples := 0
		for ; samples < cl.sc.ladderOps && time.Since(t0) < budget; samples++ {
			for k := 0; k < w.cycleLen(); k++ {
				if _, err := cl.exec(c, st.next()); err != nil {
					t.fail(err)
				} else {
					t.add(1, 0, nil)
				}
			}
		}
		ops := float64(samples * w.cycleLen())
		untracedRate = ops / time.Since(t0).Seconds()
		runtime.ReadMemStats(&after)
		m["runtime.allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / ops
		m["runtime.bytes_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / ops

		st = newStream(w, cl.orc, seed, 0, 1)
		for n := 1; n <= samples*w.cycleLen(); n++ {
			lad.run(c, n, st.next(), t)
		}
	})
	return untracedRate
}

func fmtMap(m map[string]float64) string {
	s := ""
	for _, r := range rungs {
		if v, ok := m[r]; ok {
			s += fmt.Sprintf("%s=%.1f ", r, v)
		}
	}
	return s
}
