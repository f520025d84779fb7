package query

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"a1/internal/core"
	"a1/internal/fabric"
)

// Continuation lifecycle coverage. Every kind of page source goes through
// the same ttlStore and the same turnPage, so one table drives all of them
// through every way a continuation can end and asserts the same end state.

func TestReleaseExpiredToken(t *testing.T) {
	e, g, c := newRangeEnv(t)
	e.cfg.PageSize = 10
	e.cfg.ResultTTL = 20 * time.Millisecond
	res, err := e.Execute(c, g, []byte(`{"_type": "item", "_select": ["id"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Continuation == "" {
		t.Fatal("expected a continuation (100 rows, page size 10)")
	}
	if n := e.PendingResults(0); n != 1 {
		t.Fatalf("PendingResults = %d, want 1", n)
	}
	time.Sleep(30 * time.Millisecond)
	if n := e.ExpireResults(c); n != 1 {
		t.Fatalf("ExpireResults swept %d entries, want 1", n)
	}
	if n := e.PendingResults(0); n != 0 {
		t.Fatalf("PendingResults after sweep = %d, want 0", n)
	}
	// Releasing a token whose state the sweeper already dropped is not an
	// error (the cursor Close path races the sweeper by design).
	if err := e.Release(c, res.Continuation); err != nil {
		t.Fatalf("Release(expired) = %v, want nil", err)
	}
	if _, err := e.Fetch(c, res.Continuation); !errors.Is(err, ErrBadToken) {
		t.Fatalf("Fetch(expired) = %v, want ErrBadToken", err)
	}

	// An expired entry that the sweeper has not visited yet is also
	// refused by Fetch (expiry is checked on access, not only on sweep).
	res, err = e.Execute(c, g, []byte(`{"_type": "item", "_select": ["id"]}`))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if _, err := e.Fetch(c, res.Continuation); !errors.Is(err, ErrBadToken) {
		t.Fatalf("Fetch(lapsed, unswept) = %v, want ErrBadToken", err)
	}
	if err := e.Release(c, res.Continuation); err != nil {
		t.Fatalf("Release(consumed) = %v, want nil", err)
	}
}

// pagedCase is one kind of page source: an engine configured so that doc
// pages out through it, and how many rows or groups the full result holds.
type pagedCase struct {
	e     *Engine
	g     *core.Graph
	c     *fabric.Ctx
	doc   string
	total int
	// unordered: rows arrive in discovery order, which follows reply
	// arrival within an iteration, so pages compare as a multiset.
	unordered bool
}

const (
	skewGroupsPagedDoc   = `{"_hints": {"page_size": 10}, "_type": "product", "_groupby": "category", "_select": ["_count(*)"]}`
	skewGroupsLimitDoc   = `{"_hints": {"page_size": 10}, "_type": "product", "_groupby": "category", "_select": ["_count(*)"], "_limit": 30}`
	skewOrderedGroupsDoc = `{"_hints": {"page_size": 10}, "_type": "product", "_groupby": "category", "_select": ["_sum(score)"], "_orderby": "-_sum(score)"}`
)

var pagedSources = []struct {
	name string
	open func(t *testing.T) pagedCase
}{
	{"row slice", func(t *testing.T) pagedCase {
		e, g, c := newRangeEnv(t)
		e.cfg.PageSize = 5
		return pagedCase{e, g, c, `{"_type": "item", "_select": ["id"]}`, rangeItems, true}
	}},
	{"ordered-traverse rows", func(t *testing.T) pagedCase {
		e, _, g, c := newTopOrderEnv(t, 8)
		return pagedCase{e, g, c, topOrderPagedDoc, 64, false}
	}},
	{"group slice", func(t *testing.T) pagedCase {
		e, _, g, c := newSkewEnv(t)
		return pagedCase{e, g, c, skewOrderedGroupsDoc, 81, false}
	}},
	{"streamed groups", func(t *testing.T) pagedCase {
		e, _, g, c := newSkewEnv(t)
		e.cfg.GroupChunk = 8 // workers park run tails the pages pull
		return pagedCase{e, g, c, skewGroupsPagedDoc, 81, false}
	}},
	{"_limit cut mid-stream", func(t *testing.T) pagedCase {
		e, _, g, c := newSkewEnv(t)
		e.cfg.GroupChunk = 8 // the cut leaves every machine's run tail parked
		return pagedCase{e, g, c, skewGroupsLimitDoc, 30, false}
	}},
	{"ordered groups past MaxWorkingSet", func(t *testing.T) pagedCase {
		e, _, g, c := newSkewEnv(t)
		e.cfg.MaxWorkingSet = 40 // below the 81 groups the coordinator sorts
		return pagedCase{e, g, c, skewOrderedGroupsDoc, 81, false}
	}},
	{"parked recursion", func(t *testing.T) pagedCase {
		cfg := DefaultConfig()
		cfg.PageSize = 2
		e, g, c := newRecurseEnv(t, cfg)
		total := len(oracleSet(bfsDist(recurseEdges(), 0, false, -1), 1, 5))
		return pagedCase{e, g, c, recurseDoc(recurseID(0), 1, 5, ""), total, true}
	}},
}

func (pc pagedCase) machines() int { return pc.e.store.Farm().Fabric().Machines() }

// firstPage executes the case's document and insists on a continuation.
func (pc pagedCase) firstPage(t *testing.T) *Result {
	t.Helper()
	res, err := pc.e.Execute(pc.c, pc.g, []byte(pc.doc))
	if err != nil {
		t.Fatal(err)
	}
	if res.Continuation == "" {
		t.Fatal("expected a continuation")
	}
	return res
}

func pageLen(res *Result) int { return len(res.Rows) + len(res.Groups) }

// drainImages executes the case's document on e and renders the items of
// every page in order.
func drainImages(t *testing.T, e *Engine, pc pagedCase) []string {
	t.Helper()
	res, err := e.Execute(pc.c, pc.g, []byte(pc.doc))
	var out []string
	for {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, itemImages(res)...)
		if res.Continuation == "" {
			return out
		}
		res, err = e.Fetch(pc.c, res.Continuation)
	}
}

// assertReleased is the end state every lifecycle path must reach at once:
// no continuation or parked run tail on any machine, no snapshot pin.
func (pc pagedCase) assertReleased(t *testing.T) {
	t.Helper()
	for m := 0; m < pc.machines(); m++ {
		if n := pc.e.PendingResults(fabric.MachineID(m)); n != 0 {
			t.Errorf("PendingResults(m%d) = %d, want 0", m, n)
		}
		if n := pc.e.PendingRuns(fabric.MachineID(m)); n != 0 {
			t.Errorf("PendingRuns(m%d) = %d, want 0", m, n)
		}
	}
	if n := pc.e.store.Farm().PinnedSnapshots(); n != 0 {
		t.Errorf("snapshot pins left behind: %d", n)
	}
}

// wrapParked swaps the parked source behind token for wrap(source).
func (pc pagedCase) wrapParked(t *testing.T, token string, wrap func(pageSource) pageSource) {
	t.Helper()
	p, err := decodeToken(token)
	if err != nil {
		t.Fatal(err)
	}
	store := pc.e.caches[pc.c.M]
	src, expires, ok := store.claim(p.ID)
	if !ok {
		t.Fatal("no parked source behind the token")
	}
	store.restore(p.ID, wrap(src), expires)
}

// failingPages is a source whose next page errors; close reaches the
// source it wraps.
type failingPages struct{ pageSource }

func (failingPages) nextPage(*fabric.Ctx, int, *Result) (bool, error) {
	return false, errors.New("page failed")
}

// gatedPages holds its next page until released, so a test can stand
// inside a Fetch.
type gatedPages struct {
	pageSource
	entered, release chan struct{}
}

func (p gatedPages) nextPage(c *fabric.Ctx, n int, res *Result) (bool, error) {
	close(p.entered)
	<-p.release
	return p.pageSource.nextPage(c, n, res)
}

func TestContinuationLifecycle(t *testing.T) {
	scenarios := []struct {
		name string
		run  func(t *testing.T, pc pagedCase)
	}{
		{"drain", func(t *testing.T, pc pagedCase) {
			got := drainImages(t, pc.e, pc)
			if len(got) != pc.total {
				t.Errorf("drained %d, want %d", len(got), pc.total)
			}
			// Whatever the case's Config, the pages hold the default
			// Config's answer.
			if want := drainImages(t, NewEngine(pc.e.store, DefaultConfig()), pc); !equalLines(got, want, pc.unordered) {
				t.Errorf("the pages differ from the default Config's answer (%d vs %d items)", len(got), len(want))
			}
		}},
		{"release mid-stream", func(t *testing.T, pc pagedCase) {
			res := pc.firstPage(t)
			next, err := pc.e.Fetch(pc.c, res.Continuation)
			if err != nil || next.Continuation != res.Continuation {
				t.Fatalf("second page: continuation %q, err %v", next.Continuation, err)
			}
			if err := pc.e.Release(pc.c, res.Continuation); err != nil {
				t.Fatal(err)
			}
			if _, err := pc.e.Fetch(pc.c, res.Continuation); !errors.Is(err, ErrBadToken) {
				t.Errorf("Fetch(released) = %v, want ErrBadToken", err)
			}
			if err := pc.e.Release(pc.c, res.Continuation); err != nil {
				t.Errorf("Release(again) = %v, want nil", err)
			}
		}},
		{"coordinator drop", func(t *testing.T, pc pagedCase) {
			pc.e.cfg.ResultTTL = 20 * time.Millisecond
			res := pc.firstPage(t)
			pc.e.DropResultsOn(pc.c.M)
			if _, err := pc.e.Fetch(pc.c, res.Continuation); !errors.Is(err, ErrBadToken) {
				t.Errorf("Fetch(dropped) = %v, want ErrBadToken", err)
			}
			// Run tails the crashed coordinator parked on other machines
			// can only lapse by TTL.
			time.Sleep(30 * time.Millisecond)
			for m := 0; m < pc.machines(); m++ {
				pc.e.ExpireResults(pc.c.At(fabric.MachineID(m)))
			}
		}},
		{"page error", func(t *testing.T, pc pagedCase) {
			res := pc.firstPage(t)
			pc.wrapParked(t, res.Continuation, func(src pageSource) pageSource { return failingPages{src} })
			if _, err := pc.e.Fetch(pc.c, res.Continuation); err == nil || errors.Is(err, ErrBadToken) {
				t.Errorf("Fetch(failing page) = %v, want the page's error", err)
			}
			if _, err := pc.e.Fetch(pc.c, res.Continuation); !errors.Is(err, ErrBadToken) {
				t.Errorf("Fetch(after failed page) = %v, want ErrBadToken", err)
			}
		}},
		{"racing fetch", func(t *testing.T, pc pagedCase) {
			// One Fetch per token is in flight: the second finds the entry
			// claimed and gets ErrBadToken; the first is unharmed and the
			// token stays good afterwards.
			res := pc.firstPage(t)
			gate := gatedPages{entered: make(chan struct{}), release: make(chan struct{})}
			pc.wrapParked(t, res.Continuation, func(src pageSource) pageSource {
				gate.pageSource = src
				return gate
			})
			done := make(chan error, 1)
			go func() {
				_, err := pc.e.Fetch(pc.c, res.Continuation)
				done <- err
			}()
			<-gate.entered
			if _, err := pc.e.Fetch(pc.c, res.Continuation); !errors.Is(err, ErrBadToken) {
				t.Errorf("racing Fetch = %v, want ErrBadToken", err)
			}
			close(gate.release)
			if err := <-done; err != nil {
				t.Errorf("first Fetch = %v, want nil", err)
			}
			if err := pc.e.Release(pc.c, res.Continuation); err != nil {
				t.Fatal(err)
			}
		}},
		{"sweep under concurrent fetch", func(t *testing.T, pc pagedCase) {
			// Fast readers must see the whole result; slow readers outlive
			// the TTL and are cut off with ErrBadToken, never corrupted.
			pc.e.cfg.ResultTTL = 40 * time.Millisecond
			const streams = 6
			stop := make(chan struct{})
			var sweeper sync.WaitGroup
			sweeper.Add(1)
			go func() {
				defer sweeper.Done()
				for {
					select {
					case <-stop:
						return
					default:
						pc.e.ExpireResults(pc.c)
						time.Sleep(time.Millisecond)
					}
				}
			}()
			var wg sync.WaitGroup
			errCh := make(chan error, streams)
			for s := 0; s < streams; s++ {
				wg.Add(1)
				go func(slow bool) {
					defer wg.Done()
					res, err := pc.e.Execute(pc.c, pc.g, []byte(pc.doc))
					if err != nil {
						errCh <- err
						return
					}
					n := pageLen(res)
					for res.Continuation != "" {
						if slow {
							time.Sleep(10 * time.Millisecond)
						}
						if res, err = pc.e.Fetch(pc.c, res.Continuation); err != nil {
							if !errors.Is(err, ErrBadToken) {
								errCh <- err
							}
							return // swept mid-stream: acceptable for a slow reader
						}
						n += pageLen(res)
					}
					if n != pc.total {
						errCh <- fmt.Errorf("stream drained %d, want %d", n, pc.total)
					}
				}(s%2 == 1)
			}
			wg.Wait()
			close(stop)
			sweeper.Wait()
			close(errCh)
			for err := range errCh {
				t.Error(err)
			}
			// Everything left behind — run tails on the workers included —
			// drains after the TTL.
			time.Sleep(50 * time.Millisecond)
			for m := 0; m < pc.machines(); m++ {
				pc.e.ExpireResults(pc.c.At(fabric.MachineID(m)))
				if n := pc.e.PendingRuns(fabric.MachineID(m)); n != 0 {
					t.Errorf("PendingRuns(m%d) after final sweep = %d, want 0", m, n)
				}
			}
		}},
	}
	for _, src := range pagedSources {
		for _, sc := range scenarios {
			t.Run(src.name+"/"+sc.name, func(t *testing.T) {
				pc := src.open(t)
				sc.run(t, pc)
				pc.assertReleased(t)
			})
		}
	}
}

// TestAbandonedCursorsSweptOnPut: nothing calls ExpireResults in a serving
// process, so state behind cursors nobody fetches again must be reclaimed
// by the next query that parks state on the machine.
func TestAbandonedCursorsSweptOnPut(t *testing.T) {
	for _, src := range pagedSources {
		t.Run(src.name, func(t *testing.T) {
			pc := src.open(t)
			pc.e.cfg.ResultTTL = 20 * time.Millisecond
			for i := 0; i < 3; i++ {
				pc.firstPage(t)
			}
			time.Sleep(30 * time.Millisecond)
			res := pc.firstPage(t) // its put sweeps the three lapsed entries
			if n := pc.e.PendingResults(pc.c.M); n != 1 {
				t.Errorf("PendingResults after the sweeping put = %d, want 1", n)
			}
			if err := pc.e.Release(pc.c, res.Continuation); err != nil {
				t.Fatal(err)
			}
			pc.assertReleased(t)
		})
	}
}

func TestTTLStoreSweepsAtMostOncePerQuarterTTL(t *testing.T) {
	s := newTTLStore[int]()
	const ttl = 40 * time.Second
	if _, lapsed := s.put(ttl/4, ttl, 1); len(lapsed) != 0 { // sweeps (nothing lapsed), expires at 50s
		t.Fatalf("first put returned %v", lapsed)
	}
	s.restore(99, 2, 12*time.Second)
	if _, lapsed := s.put(15*time.Second, ttl, 3); len(lapsed) != 0 {
		t.Fatalf("put inside the quarter-TTL window swept %v", lapsed)
	}
	if _, lapsed := s.put(2*ttl/4, ttl, 4); len(lapsed) != 1 || lapsed[0] != 2 {
		t.Fatalf("put past the window swept %v, want [2]", lapsed)
	}
	if v, _, ok := s.claim(1); !ok || v != 1 {
		t.Fatalf("claim(1) = %d, %v", v, ok)
	}
	if _, _, ok := s.claim(1); ok {
		t.Fatal("second claim of a claimed id succeeded")
	}
	if got := s.drain(); len(got) != 2 || s.len() != 0 {
		t.Fatalf("drain = %v, len %d", got, s.len())
	}
}

// FuzzContinuationToken feeds arbitrary strings as continuation tokens to
// Coordinator, Fetch (on the caller's machine and on the machine the token
// names) and Release, beside one live cursor. Tokens are unauthenticated
// client input, so: nothing panics; every error is CodeBadToken;
// Coordinator accepts exactly the tokens that decode and name a machine
// inside the cluster; and the live cursor still pages to its end
// afterwards, unless the input named its exact coordinator and id.
func FuzzContinuationToken(f *testing.F) {
	for _, tok := range []string{
		"",
		"not a token",
		encodeToken(0, 1, 0),
		encodeToken(0, 1, 7),
		encodeToken(3, 1, 0),
		encodeToken(5, 99, 1),
		encodeToken(6, 1, 0),
		base64.URLEncoding.EncodeToString([]byte(`{"m": -1, "id": 1}`)),
		base64.URLEncoding.EncodeToString([]byte(`{"m": 0, "id": 1, "ps": -3}`)),
		base64.URLEncoding.EncodeToString([]byte(`{"m": 4294967296, "id": 1}`)),
		base64.URLEncoding.EncodeToString([]byte(`{"m": 0, "id": 18446744073709551615, "ps": 9223372036854775807}`)),
		base64.URLEncoding.EncodeToString([]byte(`[1, 2]`)),
		base64.StdEncoding.EncodeToString([]byte(`{"m": 0, "id": 1}`)),
	} {
		f.Add(tok)
	}
	e, g, c := newRangeEnv(f)
	machines := e.store.Farm().Fabric().Machines()
	const doc = `{"_hints": {"page_size": 40}, "_type": "item", "_select": ["id"]}`
	badToken := func(t *testing.T, op string, err error) {
		t.Helper()
		var qe *Error
		if err != nil && (!errors.As(err, &qe) || qe.Code != CodeBadToken) {
			t.Fatalf("%s: %v, want CodeBadToken", op, err)
		}
	}
	f.Fuzz(func(t *testing.T, tok string) {
		res, err := e.Execute(c, g, []byte(doc))
		if err != nil || res.Continuation == "" {
			t.Fatalf("Execute: continuation %q, err %v", res.Continuation, err)
		}
		live, err := decodeToken(res.Continuation)
		if err != nil {
			t.Fatal(err)
		}
		rows := len(res.Rows)

		var p tokenPayload
		raw, err := base64.URLEncoding.DecodeString(tok)
		decodes := err == nil && json.Unmarshal(raw, &p) == nil && p.M >= 0 && p.PS >= 0
		m, err := e.Coordinator(tok)
		badToken(t, "Coordinator", err)
		if want := decodes && int(p.M) < machines; (err == nil) != want || (want && m != fabric.MachineID(p.M)) {
			t.Fatalf("Coordinator(%q) = %v, %v; the token decodes to %+v (%v)", tok, m, err, p, decodes)
		}
		_, ferr := e.Fetch(c, tok)
		badToken(t, "Fetch", ferr)
		if err == nil {
			_, ferr = e.Fetch(c.At(m), tok)
			badToken(t, "Fetch on the token's machine", ferr)
			badToken(t, "Release", e.Release(c.At(m), tok))
		}

		if decodes && p.M == live.M && p.ID == live.ID {
			// The input reached the live cursor: it may have paged or
			// released it. Either way nothing may stay parked.
			badToken(t, "Release(live)", e.Release(c, res.Continuation))
		} else {
			for res.Continuation != "" {
				if res, err = e.Fetch(c, res.Continuation); err != nil {
					t.Fatalf("live cursor after %q: %v", tok, err)
				}
				rows += len(res.Rows)
			}
			if rows != rangeItems {
				t.Fatalf("live cursor paged %d rows after %q, want %d", rows, tok, rangeItems)
			}
		}
		for m := 0; m < machines; m++ {
			if n := e.PendingResults(fabric.MachineID(m)); n != 0 {
				t.Fatalf("PendingResults(m%d) = %d after %q", m, n, tok)
			}
		}
	})
}
