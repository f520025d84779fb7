package query

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/fabric"
	"a1/internal/farm"
)

// The root ordered walk (orderedWalk with a nil batch) reads its index hits
// in overlapped windows. These tests hold it to the sort fallback row for
// row where a window boundary matters — residual predicates that fail on
// most hits, tie-runs across a boundary, the keyless top-up — in Direct
// mode (hits read one at a time) and in Sim mode (windows read
// concurrently), hold that a failed read past the stop surfaces nothing,
// pin what the overlap buys on the Sim clock, and hold the Direct walk to
// the hits it takes.

const walkNodes = 600

// walkNodeSchema: score is the indexed order field (i % 47, so about 13
// vertices share each value); mirror holds the same value unindexed, the
// sort fallback's twin; cat is unindexed, for residual predicates: "rare"
// every 30th vertex, "hot" every other 10th, "cold" otherwise. Every 17th
// vertex has neither score nor mirror (keyless: absent from the index).
var walkNodeSchema = bond.MustSchema("wnode",
	bond.FReq(0, "id", bond.TString),
	bond.F(1, "score", bond.TInt64),
	bond.F(2, "mirror", bond.TInt64),
	bond.F(3, "cat", bond.TString),
)

func loadWalkGraph(c *fabric.Ctx, f *farm.Farm) (*core.Graph, *Engine, error) {
	s, err := core.Open(c, f, core.DefaultConfig())
	if err == nil {
		err = s.CreateTenant(c, "t")
	}
	if err == nil {
		err = s.CreateGraph(c, "t", "g")
	}
	var g *core.Graph
	if err == nil {
		g, err = s.OpenGraph(c, "t", "g")
	}
	if err == nil {
		err = g.CreateVertexType(c, "wnode", walkNodeSchema, "id", "score")
	}
	if err != nil {
		return nil, nil, err
	}
	for lo := 0; lo < walkNodes; lo += 100 {
		err = farm.RunTransaction(c, f, func(tx *farm.Tx) error {
			for i := lo; i < lo+100; i++ {
				cat := "cold"
				switch {
				case i%30 == 0:
					cat = "rare"
				case i%10 == 0:
					cat = "hot"
				}
				fields := []bond.FieldValue{
					bond.FV(0, bond.String(fmt.Sprintf("w%03d", i))),
					bond.FV(3, bond.String(cat)),
				}
				if i%17 != 0 {
					fields = append(fields, bond.FV(1, bond.Int64(int64(i%47))), bond.FV(2, bond.Int64(int64(i%47))))
				}
				if _, err := g.CreateVertex(tx, "wnode", bond.Struct(fields...)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
	}
	return g, NewEngine(s, DefaultConfig()), nil
}

// walkCases are the documents the parity tests run, each once per
// direction; the sort fallback runs the same document ordered by mirror.
var walkCases = []struct{ name, doc string }{
	// 1 keyed hit in 15 passes: about 80 hits for 6 rows, in windows of 6,
	// 12, 24, 48.
	{"residual", `{"_type": "wnode", "cat": "hot", "_orderby": "%sscore", "_limit": 4, "_skip": 2, "_select": ["id", "score"]}`},
	// Most hits pass: the target is reached inside the second window (9,
	// then 18 hits), whose hits past the stop are read and dropped.
	{"overread", `{"_type": "wnode", "cat": "cold", "_orderby": "%sscore", "_limit": 6, "_skip": 3, "_select": ["id", "score", "cat"]}`},
	// The first window (7 hits) ends inside the top score's run of about
	// 12, so the boundary tie-run is read across the next window.
	{"tie-run", `{"_type": "wnode", "_orderby": "%sscore", "_limit": 4, "_skip": 3, "_select": ["id", "score"]}`},
	// 38 keyed hot vertices for a target of 40: the walk exhausts the
	// index and tops up with the 2 keyless hot ones.
	{"keyless", `{"_type": "wnode", "cat": "hot", "_orderby": "%sscore", "_limit": 37, "_skip": 3, "_select": ["id", "score", "cat"]}`},
}

// walkRun is one parity case's outcome: the walk's rows and source, and
// the sort fallback's rows.
type walkRun struct {
	label      string
	src        string
	walk, sort []Row
	err        error
}

// runWalkCases runs every case in both directions, through the walk and
// the sort fallback. It reports no test failure itself, so a Sim process
// body can call it.
func runWalkCases(c *fabric.Ctx, e *Engine, g *core.Graph) []walkRun {
	var out []walkRun
	for _, wc := range walkCases {
		for _, dir := range []string{"-", ""} {
			r := walkRun{label: fmt.Sprintf("%s %sscore", wc.name, dir)}
			doc := fmt.Sprintf(wc.doc, dir)
			var walk, sorted *Result
			walk, r.err = e.Execute(c, g, []byte(doc))
			if r.err == nil {
				sorted, r.err = e.Execute(c, g, []byte(strings.Replace(doc, "score\"", "mirror\"", 1)))
			}
			if r.err == nil {
				r.walk, r.sort = walk.Rows, sorted.Rows
				if len(walk.Stats.Levels) > 0 {
					r.src = walk.Stats.Levels[0].Source
				}
			}
			out = append(out, r)
		}
	}
	return out
}

func checkWalkRuns(t *testing.T, runs []walkRun) {
	t.Helper()
	if len(runs) != 2*len(walkCases) {
		t.Fatalf("%d runs, want %d", len(runs), 2*len(walkCases))
	}
	for _, r := range runs {
		if r.err != nil {
			t.Fatalf("%s: %v", r.label, r.err)
		}
		if !strings.HasPrefix(r.src, "OrderedIndexScan") {
			t.Errorf("%s: root source %q, want OrderedIndexScan", r.label, r.src)
		}
		if len(r.walk) == 0 {
			t.Errorf("%s: no rows; parity is vacuous", r.label)
		}
		sameRows(t, r.label, r.walk, r.sort)
	}
	keyless := 0
	for _, r := range runs {
		if strings.HasPrefix(r.label, "keyless") {
			for _, row := range r.walk {
				if _, ok := row.Values["score"]; !ok {
					keyless++
				}
			}
		}
	}
	if keyless != 4 {
		t.Errorf("keyless cases surfaced %d keyless rows, want 2 per direction", keyless)
	}
}

func TestOrderedWalkParityDirect(t *testing.T) {
	fab := fabric.New(fabric.DefaultConfig(6, fabric.Direct), nil)
	f := farm.Open(fab, farm.Config{RegionSize: 16 << 20})
	c := fab.NewCtx(0, nil)
	g, e, err := loadWalkGraph(c, f)
	if err != nil {
		t.Fatal(err)
	}
	checkWalkRuns(t, runWalkCases(c, e, g))
}

func TestOrderedWalkParitySim(t *testing.T) {
	sc := simNew(t, 8)
	var runs []walkRun
	sc.run(func(p simProc) {
		c := sc.fab.NewCtx(0, p.p)
		g, e, err := loadWalkGraph(c, sc.farm)
		if err != nil {
			t.Error(err)
			return
		}
		runs = runWalkCases(c, e, g)
	})
	checkWalkRuns(t, runs)
}

// TestOrderedWalkSparseSimElapsed: a category whose 9 top rows lie 282
// hits down the index, on 8 machines at sim seed 13. Read one remote
// vertex per round trip, as the walk did before its windows overlapped,
// it costs 6.46 ms of Sim time; read in windows of up to 64 hits, 0.28 ms
// (319 vertices read, 37 of them past the stop). The bound sits between.
func TestOrderedWalkSparseSimElapsed(t *testing.T) {
	const bound = 1 * time.Millisecond
	doc := `{"_type": "wnode", "cat": "rare", "_orderby": "-score", "_limit": 9, "_select": ["id", "score"]}`
	sc := simNew(t, 8)
	var res *Result
	var err error
	sc.run(func(p simProc) {
		c := sc.fab.NewCtx(0, p.p)
		g, e, lerr := loadWalkGraph(c, sc.farm)
		if lerr != nil {
			err = lerr
			return
		}
		res, err = e.Execute(c, g, []byte(doc))
	})
	if err != nil {
		t.Fatal(err)
	}
	if src := res.Stats.Levels[0].Source; !strings.HasPrefix(src, "OrderedIndexScan") {
		t.Fatalf("root source %q, want OrderedIndexScan", src)
	}
	if len(res.Rows) != 9 {
		t.Fatalf("%d rows, want 9", len(res.Rows))
	}
	if res.Stats.VerticesRead < 250 {
		t.Errorf("walk read %d vertices; the case is not sparse", res.Stats.VerticesRead)
	}
	if res.Stats.Elapsed >= bound {
		t.Errorf("sparse walk took %v of Sim time, want under %v", res.Stats.Elapsed, bound)
	}
}

// poisonWalkHits overwrites the header of each named wnode with bytes no
// header decodes from, so a read of the vertex fails.
func poisonWalkHits(c *fabric.Ctx, f *farm.Farm, g *core.Graph, ids ...string) error {
	return farm.RunTransaction(c, f, func(tx *farm.Tx) error {
		for _, id := range ids {
			vp, ok, err := g.LookupVertex(tx, "wnode", bond.String(id))
			if err != nil || !ok {
				return fmt.Errorf("lookup %s: %v %v", id, ok, err)
			}
			buf, err := tx.Read(vp)
			if err == nil {
				buf, err = tx.OpenForWrite(buf)
			}
			if err != nil {
				return err
			}
			for i := range buf.Data() {
				buf.Data()[i] = 0xff
			}
		}
		return nil
	})
}

// poisonRun is one run of TestOrderedWalkDropsErrorsPastStop.
type poisonRun struct {
	before, after *Result
	deepErr, err  error
}

// runPoisoned runs the top 12 cold rows by descending score, poisons two
// vertices of the score-44 run, then runs it again and runs a walk that
// reaches them.
func runPoisoned(c *fabric.Ctx, f *farm.Farm) (r poisonRun) {
	doc := []byte(`{"_type": "wnode", "cat": "cold", "_orderby": "-score", "_limit": 12, "_select": ["id", "score"]}`)
	g, e, err := loadWalkGraph(c, f)
	if err == nil {
		r.before, err = e.Execute(c, g, doc)
	}
	if err == nil {
		err = poisonWalkHits(c, f, g, "w044", "w091")
	}
	if err == nil {
		r.after, err = e.Execute(c, g, doc)
	}
	if err == nil {
		_, r.deepErr = e.Execute(c, g, []byte(`{"_type": "wnode", "_orderby": "-score", "_limit": 30, "_select": ["id"]}`))
	}
	r.err = err
	return r
}

// TestOrderedWalkDropsErrorsPastStop: the top 12 cold rows lie in the
// score-46 and score-45 runs, 11 keyed hits each, so the walk stops at the
// first score-44 hit, 23 hits down. In Sim mode its second window (hits 13
// to 36) reads on into the score-44 run, whatever the address order within
// each run. With two vertices of that run poisoned, so that reading them
// fails, the walk returns the rows it returned before, as a walk reading
// one hit at a time would, never having read them; a walk that does reach
// them surfaces the error. In Direct mode the walk reads one hit at a
// time: it reads the 22 hits it takes and never reaches the poisoned ones.
func TestOrderedWalkDropsErrorsPastStop(t *testing.T) {
	check := func(t *testing.T, r poisonRun, windowed bool) {
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.deepErr == nil {
			t.Fatal("a walk through the poisoned vertices succeeded; the case is vacuous")
		}
		if read := r.after.Stats.VerticesRead; windowed && read <= 22 {
			t.Errorf("walk read %d vertices, none past the stop; the case is vacuous", read)
		} else if !windowed && read != 22 {
			t.Errorf("walk read %d vertices, want the 22 hits it took", read)
		}
		sameRows(t, "poisoned past the stop", r.after.Rows, r.before.Rows)
	}
	t.Run("Direct", func(t *testing.T) {
		fab := fabric.New(fabric.DefaultConfig(6, fabric.Direct), nil)
		f := farm.Open(fab, farm.Config{RegionSize: 16 << 20})
		check(t, runPoisoned(fab.NewCtx(0, nil), f), false)
	})
	t.Run("Sim", func(t *testing.T) {
		sc := simNew(t, 8)
		var r poisonRun
		sc.run(func(p simProc) { r = runPoisoned(sc.fab.NewCtx(0, p.p), sc.farm) })
		check(t, r, true)
	})
}

// walkHitsTaken is how many vertices a walk that reads one hit at a time
// reads for target rows of the wnode vertices whose cat is cat ("": any),
// walking the score index descending when desc: every hit of each score
// run down to the run that completes the target, and, when the index runs
// out first, every keyless vertex in the top-up. It follows
// loadWalkGraph's rules, not the engine.
func walkHitsTaken(cat string, desc bool, target int) int {
	var hits, admitted [47]int // by score
	keyless := 0
	for i := 0; i < walkNodes; i++ {
		if i%17 == 0 {
			keyless++
			continue
		}
		c := "cold"
		switch {
		case i%30 == 0:
			c = "rare"
		case i%10 == 0:
			c = "hot"
		}
		hits[i%47]++
		if cat == "" || c == cat {
			admitted[i%47]++
		}
	}
	reads, rows := 0, 0
	for j := range hits {
		s := j
		if desc {
			s = len(hits) - 1 - j
		}
		reads, rows = reads+hits[s], rows+admitted[s]
		if rows >= target {
			return reads
		}
	}
	return reads + keyless
}

// TestOrderedWalkDirectReadsHitsTaken: in Direct mode, where a read is a
// synchronous copy and a window would hide no latency, the root walk
// reads one hit at a time, so it reads exactly the hits it takes, none past
// the stop, on every parity case.
func TestOrderedWalkDirectReadsHitsTaken(t *testing.T) {
	fab := fabric.New(fabric.DefaultConfig(6, fabric.Direct), nil)
	f := farm.Open(fab, farm.Config{RegionSize: 16 << 20})
	c := fab.NewCtx(0, nil)
	g, e, err := loadWalkGraph(c, f)
	if err != nil {
		t.Fatal(err)
	}
	// walkCases' residual filters and limit+skip, in order.
	cases := []struct {
		cat    string
		target int
	}{{"hot", 6}, {"cold", 9}, {"", 7}, {"hot", 40}}
	for i, wc := range walkCases {
		for _, dir := range []string{"-", ""} {
			doc := fmt.Sprintf(wc.doc, dir)
			res, err := e.Execute(c, g, []byte(doc))
			if err != nil {
				t.Fatalf("%s: %v", doc, err)
			}
			if src := res.Stats.Levels[0].Source; !strings.HasPrefix(src, "OrderedIndexScan") {
				t.Errorf("%s: root source %q, want OrderedIndexScan", doc, src)
			}
			want := walkHitsTaken(cases[i].cat, dir == "-", cases[i].target)
			if res.Stats.VerticesRead != int64(want) {
				t.Errorf("%s: read %d vertices, want the %d hits it took", doc, res.Stats.VerticesRead, want)
			}
		}
	}
}
