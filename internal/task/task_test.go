package task

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/fabric"
	"a1/internal/farm"
	"a1/internal/workload"
)

func newRuntime(t *testing.T) (*Runtime, *core.Store, *fabric.Ctx) {
	t.Helper()
	fab := fabric.New(fabric.DefaultConfig(6, fabric.Direct), nil)
	f := farm.Open(fab, farm.Config{RegionSize: 16 << 20})
	t.Cleanup(func() {
		if n := f.PinnedSnapshots(); n != 0 {
			t.Errorf("%d snapshot pins still held at the end of the test", n)
		}
	})
	c := fab.NewCtx(0, nil)
	s, err := core.Open(c, f, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(c, f)
	if err != nil {
		t.Fatal(err)
	}
	return rt, s, c
}

func TestEnqueueAndRunPending(t *testing.T) {
	rt, _, c := newRuntime(t)
	var ran atomic.Int32
	rt.Register("noop", func(c *fabric.Ctx, rt *Runtime, tk *Task) error {
		ran.Add(1)
		if tk.Arg("x") != "1" {
			t.Errorf("args lost: %v", tk.Args)
		}
		return nil
	})
	for i := 0; i < 5; i++ {
		if err := rt.Enqueue(c, Spec{Kind: "noop", Args: map[string]string{"x": "1"}}); err != nil {
			t.Fatal(err)
		}
	}
	n, err := rt.RunPending(c)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 || ran.Load() != 5 {
		t.Errorf("ran %d/%d tasks, want 5", n, ran.Load())
	}
	if qn, _ := rt.QueueLen(c); qn != 0 {
		t.Errorf("queue left %d entries", qn)
	}
}

func TestHandlerErrorRetries(t *testing.T) {
	rt, _, c := newRuntime(t)
	var attempts atomic.Int32
	rt.Register("flaky", func(c *fabric.Ctx, rt *Runtime, tk *Task) error {
		if attempts.Add(1) < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err := rt.Enqueue(c, Spec{Kind: "flaky"}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RunPending(c); err != nil {
		t.Fatal(err)
	}
	if attempts.Load() != 3 {
		t.Errorf("attempts = %d, want 3", attempts.Load())
	}
}

func TestUnknownKindFails(t *testing.T) {
	rt, _, c := newRuntime(t)
	if err := rt.Enqueue(c, Spec{Kind: "mystery"}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RunPending(c); !errors.Is(err, ErrNoHandler) {
		t.Errorf("err = %v, want ErrNoHandler", err)
	}
}

func TestSpawnGroupContinuation(t *testing.T) {
	rt, _, c := newRuntime(t)
	var childRuns, contRuns atomic.Int32
	rt.Register("child", func(c *fabric.Ctx, rt *Runtime, tk *Task) error {
		childRuns.Add(1)
		return nil
	})
	rt.Register("cont", func(c *fabric.Ctx, rt *Runtime, tk *Task) error {
		if childRuns.Load() != 4 {
			t.Errorf("continuation ran with %d/4 children done", childRuns.Load())
		}
		contRuns.Add(1)
		return nil
	})
	children := make([]Spec, 4)
	for i := range children {
		children[i] = Spec{Kind: "child"}
	}
	if err := rt.SpawnGroup(c, children, Spec{Kind: "cont"}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RunPending(c); err != nil {
		t.Fatal(err)
	}
	if contRuns.Load() != 1 {
		t.Errorf("continuation ran %d times, want 1", contRuns.Load())
	}
}

func TestRescheduleKeepsGroupOpen(t *testing.T) {
	rt, _, c := newRuntime(t)
	var steps, contRuns atomic.Int32
	rt.Register("stepper", func(c *fabric.Ctx, rt *Runtime, tk *Task) error {
		if steps.Add(1) < 3 {
			return rt.Reschedule(c, tk, 0)
		}
		return nil
	})
	rt.Register("done", func(c *fabric.Ctx, rt *Runtime, tk *Task) error {
		if steps.Load() != 3 {
			t.Errorf("continuation before stepper finished (%d steps)", steps.Load())
		}
		contRuns.Add(1)
		return nil
	})
	if err := rt.SpawnGroup(c, []Spec{{Kind: "stepper"}}, Spec{Kind: "done"}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RunPending(c); err != nil {
		t.Fatal(err)
	}
	if contRuns.Load() != 1 {
		t.Errorf("continuation ran %d times, want exactly 1", contRuns.Load())
	}
}

func TestBackgroundWorkersDrainQueue(t *testing.T) {
	rt, _, c := newRuntime(t)
	rt.PollInterval = time.Millisecond
	var ran atomic.Int32
	rt.Register("bg", func(c *fabric.Ctx, rt *Runtime, tk *Task) error {
		ran.Add(1)
		return nil
	})
	for i := 0; i < 12; i++ {
		if err := rt.Enqueue(c, Spec{Kind: "bg"}); err != nil {
			t.Fatal(err)
		}
	}
	rt.StartWorkers(c, 2)
	defer rt.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for ran.Load() < 12 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if ran.Load() != 12 {
		t.Errorf("background workers ran %d/12 tasks", ran.Load())
	}
}

func TestDelayedTaskNotClaimedEarly(t *testing.T) {
	rt, _, c := newRuntime(t)
	rt.Register("later", func(c *fabric.Ctx, rt *Runtime, tk *Task) error { return nil })
	if err := rt.Enqueue(c, Spec{Kind: "later", Delay: time.Hour}); err != nil {
		t.Fatal(err)
	}
	tk, err := rt.claim(c, false)
	if err != nil {
		t.Fatal(err)
	}
	if tk != nil {
		t.Error("claimed a task scheduled an hour out")
	}
	tk, err = rt.claim(c, true)
	if err != nil || tk == nil {
		t.Errorf("ignoreDelay claim = %v, %v", tk, err)
	}
}

func TestDeleteGraphWorkflow(t *testing.T) {
	rt, s, c := newRuntime(t)
	w := RegisterWorkflows(rt, s)
	w.DeleteBatch = 8

	if err := s.CreateTenant(c, "bing"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateGraph(c, "bing", "kg"); err != nil {
		t.Fatal(err)
	}
	g, err := s.OpenGraph(c, "bing", "kg")
	if err != nil {
		t.Fatal(err)
	}
	kg := workload.NewFilmKG(workload.TestParams())
	if err := kg.Load(c, g); err != nil {
		t.Fatal(err)
	}
	if kg.Stats.Vertices < 50 || kg.Stats.Edges < 100 {
		t.Fatalf("tiny KG: %+v", kg.Stats)
	}
	usedBefore := s.Farm().UsedBytes()

	if err := w.DeleteGraphAsync(c, "bing", "kg"); err != nil {
		t.Fatal(err)
	}
	// Data plane rejects immediately after the state transition.
	err = farm.RunTransaction(c, s.Farm(), func(tx *farm.Tx) error {
		_, err := g.CreateVertex(tx, "entity", bond.Struct(bond.FV(0, bond.String("late"))))
		return err
	})
	if !errors.Is(err, core.ErrGraphDeleting) {
		t.Errorf("create during deletion err = %v", err)
	}

	n, err := rt.RunPending(c)
	if err != nil {
		t.Fatalf("workflow: %v", err)
	}
	t.Logf("workflow executed %d task steps", n)

	// Catalog fully cleaned.
	if _, err := s.OpenGraph(c, "bing", "kg"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("graph still in catalog: %v", err)
	}
	graphs, _ := s.GraphNames(c, "bing")
	if len(graphs) != 0 {
		t.Errorf("graphs = %v", graphs)
	}
	// Storage reclaimed (after version GC inside finalize + here).
	s.Farm().GCVersions(c)
	usedAfter := s.Farm().UsedBytes()
	if usedAfter >= usedBefore {
		t.Errorf("storage not reclaimed: %d -> %d bytes", usedBefore, usedAfter)
	}
	if usedAfter > usedBefore/4 {
		t.Errorf("storage mostly retained: %d -> %d bytes", usedBefore, usedAfter)
	}
	_ = fmt.Sprint(usedBefore, usedAfter)
}

// TestRecreatedGraphForgetsDroppedTypes: a graph deleted by the workflow
// and recreated under the same name starts with no types. Neither a new
// handle nor a handle on the deleted graph may resolve a dropped type, whose
// primary index was freed and whose storage the new graph may reuse.
func TestRecreatedGraphForgetsDroppedTypes(t *testing.T) {
	rt, s, c := newRuntime(t)
	w := RegisterWorkflows(rt, s)
	if err := s.CreateTenant(c, "bing"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateGraph(c, "bing", "kg"); err != nil {
		t.Fatal(err)
	}
	old, err := s.OpenGraph(c, "bing", "kg")
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.NewFilmKG(workload.TestParams()).Load(c, old); err != nil {
		t.Fatal(err)
	}
	if err := w.DeleteGraphAsync(c, "bing", "kg"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RunPending(c); err != nil {
		t.Fatalf("workflow: %v", err)
	}
	if err := s.CreateGraph(c, "bing", "kg"); err != nil {
		t.Fatal(err)
	}
	g, err := s.OpenGraph(c, "bing", "kg")
	if err != nil {
		t.Fatal(err)
	}
	err = farm.RunTransaction(c, s.Farm(), func(tx *farm.Tx) error {
		_, err := g.CreateVertex(tx, "entity", bond.Struct(bond.FV(0, bond.String("late"))))
		return err
	})
	if !errors.Is(err, core.ErrNoSuchType) {
		t.Errorf("CreateVertex(dropped type) on the recreated graph err = %v, want ErrNoSuchType", err)
	}
	_, _, err = old.LookupVertex(s.Farm().CreateReadTransaction(c), "entity", bond.String("late"))
	if !errors.Is(err, core.ErrNoSuchType) {
		t.Errorf("LookupVertex(dropped type) on the old handle err = %v, want ErrNoSuchType", err)
	}
}
