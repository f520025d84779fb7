package sim

import (
	"testing"
	"time"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	env := NewEnv(1)
	var at []time.Duration
	env.Run(func(p *Proc) {
		at = append(at, p.Now())
		p.Sleep(5 * time.Microsecond)
		at = append(at, p.Now())
		p.Sleep(10 * time.Millisecond)
		at = append(at, p.Now())
	})
	want := []time.Duration{0, 5 * time.Microsecond, 10*time.Millisecond + 5*time.Microsecond}
	for i, w := range want {
		if at[i] != w {
			t.Errorf("step %d: now = %v, want %v", i, at[i], w)
		}
	}
}

func TestChildrenRunConcurrentlyInVirtualTime(t *testing.T) {
	env := NewEnv(1)
	var end time.Duration
	env.Run(func(p *Proc) {
		// 10 children each sleeping 1ms should overlap, not serialize.
		Parallel(p, 10, func(i int, cp *Proc) {
			cp.Sleep(time.Millisecond)
		})
		end = p.Now()
	})
	if end != time.Millisecond {
		t.Errorf("parallel children finished at %v, want 1ms", end)
	}
}

func TestEventOrderingIsDeterministic(t *testing.T) {
	run := func() []int {
		env := NewEnv(42)
		var order []int
		env.Run(func(p *Proc) {
			for i := 0; i < 20; i++ {
				i := i
				d := time.Duration(env.Rand().Intn(100)) * time.Microsecond
				p.Go("child", func(cp *Proc) {
					cp.Sleep(d)
					order = append(order, i)
				})
			}
		})
		return order
	}
	a, b := run(), run()
	if len(a) != 20 || len(b) != 20 {
		t.Fatalf("lengths = %d, %d, want 20", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a, b)
		}
	}
}

func TestJoinWait(t *testing.T) {
	env := NewEnv(1)
	env.Run(func(p *Proc) {
		done := false
		j := p.Go("slow", func(cp *Proc) {
			cp.Sleep(3 * time.Millisecond)
			done = true
		})
		j.Wait(p)
		if !done {
			t.Error("Wait returned before child finished")
		}
		if p.Now() != 3*time.Millisecond {
			t.Errorf("now = %v, want 3ms", p.Now())
		}
		// Waiting on an already-finished join must not block.
		j.Wait(p)
	})
}

func TestResourceQueueing(t *testing.T) {
	env := NewEnv(1)
	var finish []time.Duration
	env.Run(func(p *Proc) {
		r := NewResource(env, 2)
		// 4 jobs of 10ms on a capacity-2 resource: two waves.
		Parallel(p, 4, func(i int, cp *Proc) {
			r.Use(cp, 10*time.Millisecond, nil)
			finish = append(finish, cp.Now())
		})
	})
	want := []time.Duration{10 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond, 20 * time.Millisecond}
	if len(finish) != len(want) {
		t.Fatalf("finished %d jobs, want %d", len(finish), len(want))
	}
	for i, w := range want {
		if finish[i] != w {
			t.Errorf("job %d finished at %v, want %v", i, finish[i], w)
		}
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	env := NewEnv(1)
	var order []int
	env.Run(func(p *Proc) {
		r := NewResource(env, 1)
		for i := 0; i < 5; i++ {
			i := i
			p.Go("job", func(cp *Proc) {
				r.Acquire(cp)
				order = append(order, i)
				cp.Sleep(time.Millisecond)
				r.Release(cp)
			})
		}
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want FIFO", order)
		}
	}
}

// TestResourceIdle: Idle counts the free units, and reads 0 while a
// process waits for one, though a unit is about to free.
func TestResourceIdle(t *testing.T) {
	env := NewEnv(1)
	var seen []int
	env.Run(func(p *Proc) {
		r := NewResource(env, 2)
		seen = append(seen, r.Idle())
		r.Acquire(p)
		seen = append(seen, r.Idle())
		j := p.Go("hold", func(cp *Proc) { r.Use(cp, 10*time.Millisecond, nil) })
		w := p.Go("wait", func(cp *Proc) {
			cp.Sleep(0) // let hold take the last unit
			r.Use(cp, time.Millisecond, nil)
		})
		p.Sleep(time.Millisecond) // hold runs; wait queues behind it
		seen = append(seen, r.Idle())
		r.Release(p) // the waiter takes the unit at once
		seen = append(seen, r.Idle())
		j.Wait(p)
		w.Wait(p)
		seen = append(seen, r.Idle())
	})
	want := []int{2, 1, 0, 0, 2}
	if len(seen) != len(want) {
		t.Fatalf("Idle read %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("Idle read %v, want %v", seen, want)
		}
	}
}

func TestDeadlockDetection(t *testing.T) {
	env := NewEnv(1)
	called := false
	env.Stuck = func(e *Env) { called = true }
	env.Run(func(p *Proc) {
		r := NewResource(env, 1)
		r.Acquire(p)
		r.Acquire(p) // nobody will ever Release
	})
	if !called {
		t.Error("deadlock hook not called")
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Add(time.Duration(i) * time.Millisecond)
	}
	if h.N() != 100 {
		t.Fatalf("N = %d", h.N())
	}
	if m := h.Mean(); m != 50500*time.Microsecond {
		t.Errorf("mean = %v, want 50.5ms", m)
	}
	if p := h.Percentile(99); p != 99*time.Millisecond {
		t.Errorf("p99 = %v, want 99ms", p)
	}
	if p := h.Percentile(50); p != 50*time.Millisecond {
		t.Errorf("p50 = %v, want 50ms", p)
	}
	if mx := h.Max(); mx != 100*time.Millisecond {
		t.Errorf("max = %v, want 100ms", mx)
	}
}

// TestYieldInterleaving: a zero-length Sleep yields to every process
// already scheduled at the same instant.
func TestYieldInterleaving(t *testing.T) {
	env := NewEnv(1)
	var order []string
	env.Run(func(p *Proc) {
		p.Go("a", func(cp *Proc) {
			order = append(order, "a1")
			cp.Sleep(0)
			order = append(order, "a2")
		})
		p.Go("b", func(cp *Proc) {
			order = append(order, "b1")
			cp.Sleep(0)
			order = append(order, "b2")
		})
	})
	want := []string{"a1", "b1", "a2", "b2"}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}
