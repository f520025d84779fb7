package fabric

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"a1/internal/sim"
)

func simFabric(t *testing.T, machines int) (*Fabric, *sim.Env) {
	t.Helper()
	env := sim.NewEnv(7)
	cfg := DefaultConfig(machines, Sim)
	return New(cfg, env), env
}

func TestIntraRackReadLatency(t *testing.T) {
	f, env := simFabric(t, 32)
	var lat time.Duration
	env.Run(func(p *sim.Proc) {
		c := f.NewCtx(0, p)
		// Machine 0 and machine f.cfg.Racks share rack 0 (round-robin).
		target := MachineID(f.Config().Racks)
		if !f.SameRack(0, target) {
			t.Fatalf("expected same rack for 0 and %d", target)
		}
		start := c.Now()
		if err := c.ReadRemote(target, 256); err != nil {
			t.Fatal(err)
		}
		lat = c.Now() - start
	})
	if lat < 2*time.Microsecond || lat > 8*time.Microsecond {
		t.Errorf("intra-rack 256B read = %v, want ~3-5us", lat)
	}
}

func TestCrossRackReadSlower(t *testing.T) {
	f, env := simFabric(t, 32)
	var intra, cross time.Duration
	env.Run(func(p *sim.Proc) {
		c := f.NewCtx(0, p)
		sameRack := MachineID(f.Config().Racks) // same rack as 0
		otherRack := MachineID(1)               // rack 1
		if f.SameRack(0, otherRack) {
			t.Fatal("machine 1 unexpectedly in rack 0")
		}
		start := c.Now()
		c.ReadRemote(sameRack, 256)
		intra = c.Now() - start
		start = c.Now()
		c.ReadRemote(otherRack, 256)
		cross = c.Now() - start
	})
	if cross <= intra {
		t.Errorf("cross-rack read (%v) should exceed intra-rack (%v)", cross, intra)
	}
	if cross > 25*time.Microsecond {
		t.Errorf("cross-rack read = %v, want < 25us per paper", cross)
	}
}

func TestLocalReadIsCheap(t *testing.T) {
	f, env := simFabric(t, 8)
	var local, remote time.Duration
	env.Run(func(p *sim.Proc) {
		c := f.NewCtx(0, p)
		start := c.Now()
		c.ReadRemote(0, 256)
		local = c.Now() - start
		start = c.Now()
		c.ReadRemote(1, 256)
		remote = c.Now() - start
	})
	if local == 0 || remote/local < 10 {
		t.Errorf("remote/local ratio = %v/%v, want >= 10x (paper: 20x-100x)", remote, local)
	}
}

func TestOpStatsAccounting(t *testing.T) {
	f, env := simFabric(t, 8)
	var stats OpStats
	env.Run(func(p *sim.Proc) {
		c := f.NewCtx(0, p).WithStats(&stats)
		c.ReadRemote(0, 100) // local
		c.ReadRemote(1, 100) // remote
		c.ReadRemote(2, 100) // remote
	})
	if got := stats.LocalReads.Load(); got != 1 {
		t.Errorf("local reads = %d, want 1", got)
	}
	if got := stats.RemoteReads.Load(); got != 2 {
		t.Errorf("remote reads = %d, want 2", got)
	}
	if stats.RDMAReadTime.Load() <= 0 {
		t.Error("RDMA read time not accounted")
	}
	if f := stats.LocalFraction(); f < 0.3 || f > 0.4 {
		t.Errorf("local fraction = %v, want 1/3", f)
	}
}

func TestRPCRunsHandlerOnTarget(t *testing.T) {
	f, env := simFabric(t, 8)
	var handlerM MachineID = -1
	env.Run(func(p *sim.Proc) {
		c := f.NewCtx(0, p)
		err := c.RPC(5, 128, func(sc *Ctx) (int, error) {
			handlerM = sc.M
			sc.Work(3 * time.Microsecond)
			return 64, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	if handlerM != 5 {
		t.Errorf("handler ran on %v, want m5", handlerM)
	}
}

func TestFailedMachineUnreachable(t *testing.T) {
	f, env := simFabric(t, 8)
	f.Fail(3)
	env.Run(func(p *sim.Proc) {
		c := f.NewCtx(0, p)
		if err := c.ReadRemote(3, 64); err != ErrUnreachable {
			t.Errorf("read from failed machine: err = %v, want ErrUnreachable", err)
		}
		if err := c.RPC(3, 64, func(sc *Ctx) (int, error) { return 0, nil }); err != ErrUnreachable {
			t.Errorf("rpc to failed machine: err = %v, want ErrUnreachable", err)
		}
		f.Restore(3)
		if err := c.ReadRemote(3, 64); err != nil {
			t.Errorf("read after restore: %v", err)
		}
	})
}

func TestCPUQueueingUnderLoad(t *testing.T) {
	// Saturating one machine's workers with RPCs must produce queueing
	// delay — the mechanism behind the latency/throughput hockey stick.
	env := sim.NewEnv(7)
	cfg := DefaultConfig(8, Sim)
	cfg.CPUWorkers = 2
	f := New(cfg, env)
	work := 100 * time.Microsecond
	var last time.Duration
	env.Run(func(p *sim.Proc) {
		c := f.NewCtx(0, p)
		c.Parallel(8, func(i int, cc *Ctx) {
			cc.RPC(1, 64, func(sc *Ctx) (int, error) {
				sc.Work(work)
				return 0, nil
			})
			if d := cc.Now(); d > last {
				last = d
			}
		})
	})
	// 8 jobs of >=100us on 2 workers need >= 400us of virtual time.
	if last < 4*work {
		t.Errorf("8x%v on 2 workers finished at %v, want >= %v", work, last, 4*work)
	}
}

// TestIdleWorkers: in Sim mode a machine's idle workers are its pool less
// the ones a Work holds, and concurrent reads overlap; Direct mode reports
// no idle worker, and no overlap.
func TestIdleWorkers(t *testing.T) {
	f, env := simFabric(t, 2)
	var idle, during, other, after int
	var overlaps bool
	env.Run(func(p *sim.Proc) {
		c := f.NewCtx(0, p)
		idle, overlaps = c.IdleWorkers(), c.Overlaps()
		c.Parallel(2, func(i int, cc *Ctx) {
			if i == 0 {
				cc.Work(10 * time.Microsecond)
				return
			}
			cc.Sleep(time.Microsecond) // inside body 0's Work
			during, other = cc.IdleWorkers(), cc.At(1).IdleWorkers()
		})
		after = c.IdleWorkers()
	})
	w := f.Config().CPUWorkers
	if idle != w || during != w-1 || other != w || after != w || !overlaps {
		t.Errorf("Sim: idle %d, during a Work %d (other machine %d), after %d, overlaps %v; want %d, %d (%d), %d, true",
			idle, during, other, after, overlaps, w, w-1, w, w)
	}
	d := New(DefaultConfig(2, Direct), nil).NewCtx(0, nil)
	if n := d.IdleWorkers(); n != 0 || d.Overlaps() {
		t.Errorf("Direct: idle %d, overlaps %v; want 0, false", n, d.Overlaps())
	}
}

// TestParallelDirectMode: every body runs exactly once, with its own index
// and — when there are several — its own copy of the caller's context.
func TestParallelDirectMode(t *testing.T) {
	f := New(DefaultConfig(4, Direct), nil)
	c := f.NewCtx(2, nil)
	ran := 0
	c.Parallel(1, func(i int, cc *Ctx) { ran++ })
	if ran != 1 {
		t.Errorf("a single body ran %d times", ran)
	}
	for _, n := range []int{2, 16} {
		runs := make([]atomic.Int32, n)
		c.Parallel(n, func(i int, cc *Ctx) {
			runs[i].Add(1)
			if cc == c || cc.M != 2 {
				t.Errorf("body %d: context %p on %v, caller's %p on m2", i, cc, cc.M, c)
			}
			cc.M = 3 // a body's context is its own
		})
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Errorf("n=%d: body %d ran %d times", n, i, got)
			}
		}
	}
	if c.M != 2 {
		t.Errorf("caller's context moved to %v", c.M)
	}
}

// TestParallelNested: fan-out three deep and eight wide from bodies that
// run on reused workers completes, every leaf once — Parallel never waits
// for a worker, so a body fanning out cannot deadlock the pool.
func TestParallelNested(t *testing.T) {
	f := New(DefaultConfig(8, Direct), nil)
	c := f.NewCtx(0, nil)
	c.Parallel(8, func(int, *Ctx) {}) // park workers for the bursts below to reuse
	if len(idleFanWorkers) == 0 {
		t.Fatal("no worker parked after a fan-out")
	}
	for round := 0; round < 20; round++ {
		var leaves [8 * 8 * 8]atomic.Int32
		c.Parallel(8, func(i int, c1 *Ctx) {
			c1.Parallel(8, func(j int, c2 *Ctx) {
				c2.Parallel(8, func(k int, _ *Ctx) { leaves[i*64+j*8+k].Add(1) })
			})
		})
		for i := range leaves {
			if got := leaves[i].Load(); got != 1 {
				t.Fatalf("round %d: leaf %d ran %d times", round, i, got)
			}
		}
	}
}

// TestParallelWorkersBounded: after a thousand bursts the goroutines left
// over are the parked workers, never more than the idle bound.
func TestParallelWorkersBounded(t *testing.T) {
	f := New(DefaultConfig(8, Direct), nil)
	c := f.NewCtx(0, nil)
	base := runtime.NumGoroutine()
	var done sync.WaitGroup
	for client := 0; client < 4; client++ {
		done.Add(1)
		go func() {
			defer done.Done()
			for i := 0; i < 250; i++ {
				c.Parallel(8, func(int, *Ctx) {})
			}
		}()
	}
	done.Wait()
	// A worker that finds the idle set full exits after its last Done:
	// give the exiting ones a moment.
	bound := base + maxIdleFanWorkers
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > bound && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > bound {
		t.Errorf("%d goroutines after the bursts, want at most %d (baseline %d + idle bound %d)", n, bound, base, maxIdleFanWorkers)
	}
}

// TestParallelSimMode: in Sim every body is its own simulated process, and
// the bodies overlap in virtual time.
func TestParallelSimMode(t *testing.T) {
	f, env := simFabric(t, 4)
	var elapsed time.Duration
	procs := map[*sim.Proc]int{}
	env.Run(func(p *sim.Proc) {
		c := f.NewCtx(1, p)
		start := c.Now()
		c.Parallel(4, func(i int, cc *Ctx) {
			procs[cc.P]++
			if cc.M != 1 {
				t.Errorf("body %d on %v, want m1", i, cc.M)
			}
			cc.Sleep(time.Millisecond)
		})
		elapsed = c.Now() - start
	})
	if len(procs) != 4 {
		t.Errorf("4 bodies ran on %d processes", len(procs))
	}
	if elapsed != time.Millisecond {
		t.Errorf("4 concurrent 1ms bodies took %v of virtual time, want 1ms", elapsed)
	}
}

func TestDirectModeOpsAreImmediate(t *testing.T) {
	f := New(DefaultConfig(4, Direct), nil)
	c := f.NewCtx(0, nil)
	if err := c.ReadRemote(2, 1024); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteRemote(1, 1024); err != nil {
		t.Fatal(err)
	}
	if err := c.RPC(3, 64, func(sc *Ctx) (int, error) {
		if sc.M != 3 {
			t.Errorf("handler machine = %v", sc.M)
		}
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := f.Metrics.RemoteReads.Load(); got != 1 {
		t.Errorf("remote reads = %d, want 1", got)
	}
}

func TestGoBackgroundActivity(t *testing.T) {
	f, env := simFabric(t, 4)
	done := false
	env.Run(func(p *sim.Proc) {
		c := f.NewCtx(0, p)
		w := c.Go("bg", func(bc *Ctx) {
			bc.Sleep(time.Millisecond)
			done = true
		})
		w.Wait(c)
	})
	if !done {
		t.Error("background activity did not complete")
	}
}
