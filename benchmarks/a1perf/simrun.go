package main

import (
	"math"
	"math/rand"
	"sync"
	"time"

	"a1"
)

// simClients is the closed-loop client count of the saturation run: four
// per machine of the 16-machine Sim cluster.
const simClients = 64

// simPhase is what the virtual clock reports for one workload.
type simPhase struct {
	meanMS      float64
	p90MS       float64
	satOpsPerS  float64
	rdmaUSPerOp float64
	wall        time.Duration
}

func (cl *cluster) simOps() int {
	if cl.sc.simOps > 0 {
		return cl.sc.simOps
	}
	return cl.w.nSim
}

// simWarm runs one cycle's worth of ops so B-tree node caches, catalog
// proxies and the plan cache are as warm as a serving cluster's.
func (cl *cluster) simWarm(st *stream, t *tally) {
	cl.db.Run(func(c *a1.Ctx) {
		for i := 0; i < max(cl.w.cycleLen(), 8); i++ {
			if _, err := cl.exec(c, st.next()); err != nil {
				t.fail(err)
			} else {
				t.add(1, 0, nil)
			}
		}
	})
}

// simOpenLoop offers n ops as a Poisson stream at the workload's frozen
// reference rate. Each op is timed on the virtual clock from the instant
// it was due; the simulated generator is never late, so due and sent
// coincide. Arrival gaps come from the benchmark's own generator.
func (cl *cluster) simOpenLoop(st *stream, seed int64, t *tally) (latMS []float64, rdmaUSPerOp float64) {
	n := cl.simOps()
	gaps := rand.New(rand.NewSource(seed ^ 0x5bd1e995))
	var mu sync.Mutex
	var rdma time.Duration
	cl.db.Run(func(c *a1.Ctx) {
		for i := 0; i < n; i++ {
			c.Sleep(time.Duration(-math.Log(1-gaps.Float64()) / cl.w.simRate * float64(time.Second)))
			o := st.next()
			c.Go("op", func(qc *a1.Ctx) {
				t0 := qc.Now()
				out, err := cl.exec(qc, o)
				lat := qc.Now() - t0
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					t.fail(err)
					return
				}
				t.add(1, 0, nil)
				latMS = append(latMS, float64(lat)/float64(time.Millisecond))
				rdma += out.stats.RDMATime
			})
		}
	})
	if len(latMS) > 0 {
		rdmaUSPerOp = float64(rdma.Microseconds()) / float64(len(latMS))
	}
	return latMS, rdmaUSPerOp
}

// simClosedLoop is the saturation run: simClients virtual clients share
// one op stream, each sending its next op when its previous one returned,
// until n ops are done. It returns ops per virtual second.
func (cl *cluster) simClosedLoop(st *stream, t *tally) float64 {
	n := cl.simOps()
	var mu sync.Mutex
	issued := 0
	start := cl.db.Fabric().Now()
	cl.db.Run(func(c *a1.Ctx) {
		c.Parallel(simClients, func(_ int, cc *a1.Ctx) {
			for {
				mu.Lock()
				if issued >= n {
					mu.Unlock()
					return
				}
				issued++
				o := st.next()
				mu.Unlock()
				if _, err := cl.exec(cc, o); err != nil {
					t.fail(err)
				} else {
					t.add(1, 0, nil)
				}
			}
		})
	})
	virtual := cl.db.Fabric().Now() - start
	if virtual <= 0 {
		return 0
	}
	return float64(n) / virtual.Seconds()
}

// runSim opens the Sim cluster and runs the open-loop phase and, when sat
// is set, the saturation phase.
func runSim(w *workloadDef, sc *scale, orc *oracle, seed int64, sat bool, t *tally) (simPhase, error) {
	t0 := time.Now()
	cl, err := openCluster(w, sc, true)
	if err != nil {
		return simPhase{}, err
	}
	defer cl.db.Close()
	cl.adopt(orc)
	st := newStream(w, orc, seed, 0, 1)
	cl.simWarm(st, t)
	var p simPhase
	lat, rdma := cl.simOpenLoop(st, seed, t)
	p.meanMS, p.p90MS, p.rdmaUSPerOp = mean(lat), percentile(lat, 90), rdma
	if sat {
		p.satOpsPerS = cl.simClosedLoop(st, t)
	}
	if err := cl.finish(t); err != nil {
		return p, err
	}
	p.wall = time.Since(t0)
	return p, nil
}
