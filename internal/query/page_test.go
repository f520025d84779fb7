package query

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/fabric"
)

// Every kind of paged result goes through the same pager, so one table
// holds them all to the same contract: the pages of any page size
// concatenate to the one-page answer, `_skip`/`_limit` apply exactly once,
// an exactly-full last page carries no continuation, and nothing stays
// parked once the last page is out.

// withPageSize sets a document's `_hints.page_size`.
func withPageSize(doc string, n int) string {
	return fmt.Sprintf(`{"_hints": {"page_size": %d}, %s`, n, strings.TrimPrefix(doc, "{"))
}

// itemImages renders a page's rows or groups as one line each: field name
// and Bond image, names sorted, so two results compare byte for byte.
func itemImages(res *Result) []string {
	line := func(ms ...map[string]bond.Value) string {
		var fields []string
		for _, m := range ms {
			for k, v := range m {
				fields = append(fields, fmt.Sprintf("%s=%x", k, bond.Marshal(v)))
			}
			fields = append(fields, "|")
		}
		sort.Strings(fields)
		return strings.Join(fields, " ")
	}
	var out []string
	for _, r := range res.Rows {
		out = append(out, line(r.Values))
	}
	for _, gr := range res.Groups {
		out = append(out, line(gr.Keys, gr.Aggregates))
	}
	return out
}

func TestPageSourcesPageAlike(t *testing.T) {
	const itemsDoc = `{"_type": "item", "_select": ["id", "score"], "_orderby": "-score"}`
	const groupsDoc = `{"_type": "product", "_groupby": "category", "_select": ["_count(*)", "_sum(score)"]}`
	const orderedGroupsDoc = `{"_type": "product", "_groupby": "category", "_select": ["_sum(score)"], "_orderby": "-_sum(score)"}`
	recurseTotal := len(oracleSet(bfsDist(recurseEdges(), 0, false, -1), 1, 5))
	cases := []struct {
		name string
		open func(t *testing.T) pagedCase
		// full is the document without `_skip`/`_limit`; [lo, hi) is the
		// window of its answer that doc must return.
		full   string
		lo, hi int
	}{
		{name: "materialized rows", full: itemsDoc, hi: rangeItems, open: func(t *testing.T) pagedCase {
			e, g, c := newRangeEnv(t)
			return pagedCase{e, g, c, itemsDoc, rangeItems, false}
		}},
		{name: "materialized rows, _skip and _limit", full: itemsDoc, lo: 7, hi: 67, open: func(t *testing.T) pagedCase {
			e, g, c := newRangeEnv(t)
			return pagedCase{e, g, c, `{"_type": "item", "_select": ["id", "score"], "_orderby": "-score", "_skip": 7, "_limit": 60}`, 60, false}
		}},
		{name: "materialized ordered groups", full: orderedGroupsDoc, hi: 81, open: func(t *testing.T) pagedCase {
			e, _, g, c := newSkewEnv(t)
			return pagedCase{e, g, c, orderedGroupsDoc, 81, false}
		}},
		{name: "streamed groups", full: groupsDoc, hi: 81, open: func(t *testing.T) pagedCase {
			e, _, g, c := newSkewEnv(t)
			e.cfg.GroupChunk = 1
			return pagedCase{e, g, c, groupsDoc, 81, false}
		}},
		{name: "streamed groups, _skip and _limit", full: groupsDoc, lo: 5, hi: 59, open: func(t *testing.T) pagedCase {
			e, _, g, c := newSkewEnv(t)
			e.cfg.GroupChunk = 1
			return pagedCase{e, g, c, `{"_type": "product", "_groupby": "category", "_select": ["_count(*)", "_sum(score)"], "_skip": 5, "_limit": 54}`, 54, false}
		}},
		{name: "ordered groups past MaxWorkingSet", full: orderedGroupsDoc, hi: 81, open: func(t *testing.T) pagedCase {
			e, _, g, c := newSkewEnv(t)
			e.cfg.MaxWorkingSet = 40
			e.cfg.GroupChunk = 4
			return pagedCase{e, g, c, orderedGroupsDoc, 81, false}
		}},
		{name: "recursion", full: recurseDoc(recurseID(0), 1, 5, ""), hi: recurseTotal, open: func(t *testing.T) pagedCase {
			e, g, c := newRecurseEnv(t, DefaultConfig())
			return pagedCase{e, g, c, recurseDoc(recurseID(0), 1, 5, ""), recurseTotal, true}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pc := tc.open(t)
			whole := func(doc string) []string {
				t.Helper()
				res, err := pc.e.Execute(pc.c, pc.g, []byte(withPageSize(doc, 1000)))
				if err != nil {
					t.Fatal(err)
				}
				if res.Continuation != "" {
					t.Fatal("a 1000-item page issued a continuation")
				}
				return itemImages(res)
			}
			want := whole(pc.doc)
			if full := whole(tc.full); len(full) < tc.hi || !equalLines(want, full[tc.lo:tc.hi], pc.unordered) {
				t.Fatalf("one-page answer is not rows [%d, %d) of the unwindowed answer (%d of %d)", tc.lo, tc.hi, len(want), len(full))
			}
			if len(want) != pc.total {
				t.Fatalf("one-page answer has %d items, want %d", len(want), pc.total)
			}
			// Whatever the case's Config, the answer is the default Config's.
			if ref := drainImages(t, NewEngine(pc.e.store, DefaultConfig()), pc); !equalLines(want, ref, pc.unordered) {
				t.Fatalf("one-page answer differs from the default Config's (%d vs %d items)", len(want), len(ref))
			}
			div := pc.total
			for d := 2; d < pc.total; d++ {
				if pc.total%d == 0 {
					div = d
					break
				}
			}
			for _, n := range []int{1, div, pc.total + 5} {
				res, err := pc.e.Execute(pc.c, pc.g, []byte(withPageSize(pc.doc, n)))
				var got []string
				pages := 0
				for {
					if err != nil {
						t.Fatalf("page size %d, page %d: %v", n, pages+1, err)
					}
					pages++
					page := itemImages(res)
					if res.Continuation != "" && len(page) != n {
						t.Fatalf("page size %d: page %d holds %d items and continues", n, pages, len(page))
					}
					got = append(got, page...)
					if res.Continuation == "" {
						break
					}
					res, err = pc.e.Fetch(pc.c, res.Continuation)
				}
				if wantPages := (pc.total + n - 1) / n; pages != wantPages {
					t.Errorf("page size %d: %d pages, want %d (a full last page must not continue)", n, pages, wantPages)
				}
				if !equalLines(got, want, pc.unordered) {
					t.Errorf("page size %d: the pages differ from the one-page answer", n)
				}
				for m := 0; m < pc.machines(); m++ {
					if k := pc.e.PendingResults(fabric.MachineID(m)); k != 0 {
						t.Errorf("page size %d: PendingResults(m%d) = %d", n, m, k)
					}
					if k := pc.e.PendingRuns(fabric.MachineID(m)); k != 0 {
						t.Errorf("page size %d: PendingRuns(m%d) = %d", n, m, k)
					}
				}
			}
			pc.assertReleased(t)
		})
	}
}

// equalLines compares two renderings in order, or as multisets.
func equalLines(a, b []string, unordered bool) bool {
	if unordered {
		a, b = append([]string(nil), a...), append([]string(nil), b...)
		sort.Strings(a)
		sort.Strings(b)
	}
	return strings.Join(a, "\n") == strings.Join(b, "\n")
}

// TestFetchElapsedSim: a continuation page reports the virtual time of its
// own Fetch, like the first page reports its query's. Each case drains a
// result page by page and needs at least one Fetch that did fabric work —
// a remote group-run pull, a `_recurse` step — for the clock to move.
func TestFetchElapsedSim(t *testing.T) {
	cases := []struct {
		name string
		load func(c *fabric.Ctx, sc *simCluster) (*Engine, *core.Graph, error)
		doc  string
		// worked tells a Fetch that crossed the fabric from one that paged
		// buffered items out.
		worked func(s Stats) bool
	}{
		{"remote group-run tails", func(c *fabric.Ctx, sc *simCluster) (*Engine, *core.Graph, error) {
			s, g, err := loadSkew(c, sc.farm)
			if err != nil {
				return nil, nil, err
			}
			cfg := DefaultConfig()
			cfg.GroupChunk = 1
			return NewEngine(s, cfg), g, nil
		}, withPageSize(`{"_type": "product", "_groupby": "category", "_select": ["_count(*)"]}`, 10),
			func(s Stats) bool { return s.GroupsShipped > 0 }},
		{"_recurse steps", func(c *fabric.Ctx, sc *simCluster) (*Engine, *core.Graph, error) {
			s, g, err := loadRecurse(c, sc.farm)
			if err != nil {
				return nil, nil, err
			}
			return NewEngine(s, DefaultConfig()), g, nil
		}, withPageSize(recurseDoc(recurseID(0), 1, 5, ""), 2),
			func(s Stats) bool { return s.Hops > 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := simNew(t, 6)
			sc.run(func(p simProc) {
				c := sc.fab.NewCtx(0, p.p)
				e, g, err := tc.load(c, sc)
				if err != nil {
					t.Error(err)
					return
				}
				res, err := e.Execute(c, g, []byte(tc.doc))
				worked := 0
				for err == nil && res.Continuation != "" {
					start := c.Now()
					res, err = e.Fetch(c, res.Continuation)
					if err != nil {
						break
					}
					if span := c.Now() - start; res.Stats.Elapsed != span {
						t.Errorf("Fetch reports Elapsed %v; the call took %v", res.Stats.Elapsed, span)
					}
					if tc.worked(res.Stats) {
						worked++
						if res.Stats.Elapsed <= 0 {
							t.Errorf("a Fetch that crossed the fabric reports Elapsed %v", res.Stats.Elapsed)
						}
					}
				}
				if err != nil {
					t.Error(err)
				}
				if worked == 0 {
					t.Error("no Fetch crossed the fabric: the case tests nothing")
				}
			})
		})
	}
}
