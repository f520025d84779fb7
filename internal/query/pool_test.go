package query

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"a1/internal/bond"
	"a1/internal/farm"
)

// Buffer-pool ownership: rows that escape into results are never reclaimed,
// so concurrent streams and pool churn must not be able to corrupt them.
// These tests are most meaningful under -race, but the content checks catch
// cross-contamination (a pooled map or key slice handed to two owners) even
// without it.

func TestConcurrentCursorPagingNoCrosstalk(t *testing.T) {
	const vertices = 150
	e, g, c := newCursorEnv(t, vertices, 7)

	// Ground truth, single-threaded.
	expect := make(map[string]float64, vertices)
	rows, err := e.QueryRows(c, g, []byte(`{"_type": "entity", "_select": ["id", "popularity"]}`))
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next(c) {
		r := rows.Row()
		expect[r.Values["id"].AsString()] = r.Values["popularity"].AsFloat()
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(expect) != vertices {
		t.Fatalf("reference scan saw %d rows, want %d", len(expect), vertices)
	}

	// Concurrent streams over the same engine: every page allocation and
	// release on every stream goes through the shared pool. Each reader
	// checks rows as they arrive AND retains every escaped Values map to
	// re-verify after the stream — a pooled buffer reclaimed while still
	// referenced would show up as a mutated or emptied map.
	const readers = 4
	var wg sync.WaitGroup
	errCh := make(chan error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows, err := e.QueryRows(c, g, []byte(`{"_type": "entity", "_select": ["id", "popularity"]}`))
			if err != nil {
				errCh <- err
				return
			}
			kept := make([]map[string]bond.Value, 0, vertices)
			ids := make([]string, 0, vertices)
			for rows.Next(c) {
				r := rows.Row()
				id := r.Values["id"].AsString()
				if pop, ok := expect[id]; !ok || r.Values["popularity"].AsFloat() != pop {
					errCh <- fmt.Errorf("row %q carries another row's values", id)
					return
				}
				kept = append(kept, r.Values)
				ids = append(ids, id)
			}
			if err := rows.Err(); err != nil {
				errCh <- err
				return
			}
			if len(kept) != vertices {
				errCh <- fmt.Errorf("streamed %d rows, want %d", len(kept), vertices)
				return
			}
			for j, m := range kept {
				if len(m) != 2 || m["id"].AsString() != ids[j] || m["popularity"].AsFloat() != expect[ids[j]] {
					errCh <- fmt.Errorf("escaped row %q mutated after the stream moved on", ids[j])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

func TestContinuationRowsOutlivePoolChurn(t *testing.T) {
	const vertices = 60
	e, g, c := newCursorEnv(t, vertices, 10)

	res, err := e.Execute(c, g, []byte(`{"_type": "entity", "_select": ["id", "popularity"]}`))
	if err != nil {
		t.Fatal(err)
	}
	var kept []map[string]bond.Value
	var ids []string
	keep := func(rows []Row) {
		for _, r := range rows {
			kept = append(kept, r.Values)
			ids = append(ids, r.Values["id"].AsString())
		}
	}
	keep(res.Rows)

	// Between Fetch calls, churn the pool hard with queries that build,
	// prune, and release rows (orderby+limit exercises topK and the merge
	// release paths). If any continuation-cached page shared buffers with
	// the pool, this reuse would scribble over it before resume.
	token := res.Continuation
	for token != "" {
		for i := 0; i < 4; i++ {
			if _, err := e.Execute(c, g, []byte(`{"_type": "entity", "_select": ["id"], "_orderby": "-popularity", "_limit": 5}`)); err != nil {
				t.Fatal(err)
			}
		}
		page, err := e.Fetch(c, token)
		if err != nil {
			t.Fatal(err)
		}
		keep(page.Rows)
		token = page.Continuation
	}

	if len(kept) != vertices {
		t.Fatalf("resumed stream yielded %d rows, want %d", len(kept), vertices)
	}
	seen := map[string]bool{}
	for i, m := range kept {
		id := ids[i]
		if seen[id] {
			t.Errorf("duplicate row %q across resumed pages", id)
		}
		seen[id] = true
		if len(m) != 2 || m["id"].AsString() != id {
			t.Errorf("row %q corrupted by pool churn between pages", id)
		}
	}
}

// TestOwnerBuffersSurviveErrorChurn: concurrent traversals of every shape
// churn the frontier pool, some failing partway — a level past
// MaxWorkingSet, a level whose batches fail — and every frontier a query
// took is back in the pool when it returns, while the queries that
// succeed stay exact.
func TestOwnerBuffersSurviveErrorChurn(t *testing.T) {
	pg := newPropGraph(6, 160)
	pe := newPropEnvs(t, pg, 8)[0]
	cases := append(pg.cases(pe.ptrs), propCase{name: "failing level",
		doc: `{"_type": "node", "cat": "a", "_out_edge": {"_type": "link", "_vertex": {"_out_edge": {"_type": "nosuch", "w": 1, "_vertex": {"_select": ["_count(*)"]}}}}}`})
	tight := DefaultConfig()
	tight.MaxWorkingSet = len(pg.ofCat("a")) + 1
	shipAll := DefaultConfig()
	shipAll.ShipThreshold = 1
	engines := []*Engine{NewEngine(pe.s, DefaultConfig()), NewEngine(pe.s, shipAll), NewEngine(pe.s, tight)}
	bufs := ownerBufsOut.Load()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := pe.fab.NewCtx(0, nil)
			for i := 0; i < 3*len(cases); i++ {
				e, pc := engines[i%len(engines)], cases[(w+i)%len(cases)]
				res, err := e.Execute(c, pe.g, []byte(pc.doc))
				switch {
				case e == engines[2] || pc.digest == "":
					if err == nil {
						t.Errorf("%s: no error", pc.name)
					}
				case err != nil:
					t.Errorf("%s: %v", pc.name, err)
				case propDigest(res, pc.source != "") != pc.digest:
					t.Errorf("%s: %s, want %s", pc.name, propDigest(res, pc.source != ""), pc.digest)
				}
			}
		}()
	}
	wg.Wait()
	if n := ownerBufsOut.Load() - bufs; n != 0 {
		t.Errorf("frontiers left out of the pool: %d", n)
	}
}

// TestAddrSetVsMap checks addrSet against a plain map through fills,
// pooled resets (generation bumps), growth, and the generation counter's
// wrap: after a reset nothing of the previous fill reads as present, however
// large that fill was.
func TestAddrSetVsMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var nilSet *addrSet
	if nilSet.has(farm.MakeAddr(1, 64)) || new(addrSet).has(farm.MakeAddr(1, 64)) {
		t.Fatal("nil or zero set reports a member")
	}
	s := new(addrSet)
	for round := 0; round < 300; round++ {
		if round == 150 {
			s.gen = ^uint32(0) - 2 // the counter wraps within the next rounds
		}
		n := []int{1, 3, 40, 700, 9000}[rng.Intn(5)]
		model := map[farm.Addr]bool{}
		var prev []farm.Addr
		for i := 0; i < n; i++ {
			// Addresses as the engine sees them: few regions, 32-byte
			// aligned offsets, with repeats.
			a := farm.MakeAddr(farm.RegionID(1+rng.Intn(24)), uint32(rng.Intn(n*2+8))*32)
			if fresh := s.add(a); fresh == model[a] {
				t.Fatalf("round %d: add(%v) fresh=%v, model has=%v", round, a, fresh, model[a])
			}
			model[a] = true
			prev = append(prev, a)
			if s.len() != len(model) {
				t.Fatalf("round %d: len %d, model %d", round, s.len(), len(model))
			}
		}
		for i := 0; i < 200; i++ {
			a := farm.MakeAddr(farm.RegionID(1+rng.Intn(24)), uint32(rng.Intn(n*2+8))*32)
			if s.has(a) != model[a] {
				t.Fatalf("round %d: has(%v) = %v, model %v", round, a, s.has(a), model[a])
			}
		}
		putAddrSet(s)
		s = getAddrSet() // this set again, or another goroutine's
		if s.len() != 0 {
			t.Fatalf("round %d: pooled set has len %d", round, s.len())
		}
		for _, a := range prev {
			if s.has(a) {
				t.Fatalf("round %d: %v survived the reset", round, a)
			}
		}
	}
}
