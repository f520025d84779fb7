package main

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"a1"
)

// gcEvery is how many of its own writes client 0 lets pass between
// version-GC sweeps, as an operator's sweeper would run beside the load.
const gcEvery = 2000

// tally counts ops attempted and failed, and keeps the first failures for
// the report.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	errs      []string
}

func (t *tally) add(attempted, failed int64, errs []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += attempted
	t.failed += failed
	for _, e := range errs {
		if len(t.errs) < 5 {
			t.errs = append(t.errs, e)
		}
	}
}

func (t *tally) fail(err error) { t.add(1, 1, []string{err.Error()}) }

// closedLoop drives the Direct cluster with one goroutine per stream, each
// sending its next op only when the previous one returned, for d of wall
// time (a sample in flight at the deadline is finished, not cut). recs,
// when non-nil, receives every op's duration and return time.
func (cl *cluster) closedLoop(streams []*stream, recs []*recorder, d time.Duration, t *tally) {
	var wg sync.WaitGroup
	opened := time.Now()
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := streams[i]
			var attempted, failed int64
			var errs []string
			gcDone := st.writes / gcEvery
			cl.db.Run(func(c *a1.Ctx) {
				deadline := opened.Add(d)
				for time.Now().Before(deadline) {
					for k := 0; k < cl.w.cycleLen(); k++ {
						o := st.next()
						if cl.rw != nil {
							cl.gcGate.RLock()
						}
						t0 := time.Now()
						_, err := cl.exec(c, o)
						end := time.Now()
						if cl.rw != nil {
							cl.gcGate.RUnlock()
						}
						attempted++
						if err != nil {
							failed++
							if len(errs) < 5 {
								errs = append(errs, err.Error())
							}
						}
						if recs != nil {
							recs[i].add(o.tmpl, end.Sub(t0).Nanoseconds(), uint32(end.Sub(opened).Microseconds()))
						}
					}
					if cl.rw != nil && st.client == 0 && st.writes/gcEvery > gcDone {
						gcDone = st.writes / gcEvery
						cl.sweepVersions(c)
					}
				}
			})
			t.add(attempted, failed, errs)
		}(i)
	}
	wg.Wait()
}

// sweepVersions is one operator GC sweep, run while no op is in flight
// (see gcGate); its span and yield are the farm.gc_* layer metrics.
func (cl *cluster) sweepVersions(c *a1.Ctx) {
	cl.gcGate.Lock()
	defer cl.gcGate.Unlock()
	t0 := time.Now()
	freed := cl.db.GCVersions(c)
	cl.gcUS = append(cl.gcUS, sinceUS(t0))
	cl.gcFreed = append(cl.gcFreed, float64(freed))
}

// window is the closed-loop measurement both run modes share: warm-up, a
// forced GC, then the timed window with tracing off.
type window struct {
	recs      []*recorder
	slices    []slice
	gcCycles  uint32
	gcPauseMS float64
	planHits  float64 // plan-cache hit ratio over the window
}

func (cl *cluster) measureWindow(seed int64, clients int, d time.Duration, t *tally) window {
	streams := make([]*stream, clients)
	recs := make([]*recorder, clients)
	// Sample buffers are sized from the window length alone, so their
	// share of heap_mb does not move with throughput.
	capOps := int(d.Seconds()*125000) + 1024
	for i := range streams {
		streams[i] = newStream(cl.w, cl.orc, seed, i, clients)
		recs[i] = newRecorder(cl.w.cycleLen(), capOps)
	}
	cl.closedLoop(streams, nil, cl.sc.warm, t)
	runtime.GC()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	hits0, miss0 := cl.db.Engine().PlanCacheStats()
	w := window{recs: recs}
	cl.closedLoop(streams, recs, d, t)
	w.slices = cutSlices(recs, uint32(d.Microseconds()))
	hits1, miss1 := cl.db.Engine().PlanCacheStats()
	runtime.ReadMemStats(&after)
	w.gcCycles = after.NumGC - before.NumGC
	w.gcPauseMS = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	if lookups := float64(hits1 - hits0 + miss1 - miss0); lookups > 0 {
		w.planHits = float64(hits1-hits0) / lookups
	}
	return w
}

// cycleMS returns every client's cycle durations, sorted.
func (w *window) cycleMS() []float64 {
	var all []float64
	for _, r := range w.recs {
		for _, c := range r.cycles {
			all = append(all, c.ms)
		}
	}
	sort.Float64s(all)
	return all
}

// heapMB is the live heap after a forced collection. The engine's
// TTL-parked continuation state is wiped first: it is garbage the 60 s
// ResultTTL would free, its size follows how many ops the window
// completed, and a faster engine must not read as a bigger heap. What
// remains is the dataset plus anything the run leaked.
func (cl *cluster) heapMB() float64 {
	for m := 0; m < cl.db.Fabric().Machines(); m++ {
		cl.db.Engine().DropResultsOn(a1.MachineID(m))
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// templateMS is the median latency of each of the workload's templates over
// the window.
func (w *window) templateMS(def *workloadDef) map[string]float64 {
	out := make(map[string]float64, len(def.templates))
	for i, tm := range def.templates {
		out[tm.name] = median(templateMS(w.recs, i))
	}
	return out
}
