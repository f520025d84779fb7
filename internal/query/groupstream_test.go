package query

import (
	"errors"
	"sort"
	"strings"
	"testing"
	"time"

	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/fabric"
)

// Streamed grouped aggregation: parity with a brute-force oracle,
// `_having` surface, binding and pushdown, continuation lifecycle for
// parked group runs, and completion of ordered queries past
// MaxWorkingSet. The skew env has 81 groups by category: "hot" with 120
// members and 80 singleton tails (tie-heavy on _count). Integer
// aggregates only — float sums are merge-order sensitive.

func sameGroups(t *testing.T, label string, got, want []GroupRow) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups, want %d", label, len(got), len(want))
	}
	for i := range got {
		for _, m := range []struct {
			name     string
			got, ref map[string]bond.Value
		}{
			{"keys", got[i].Keys, want[i].Keys},
			{"aggregates", got[i].Aggregates, want[i].Aggregates},
		} {
			if len(m.got) != len(m.ref) {
				t.Fatalf("%s: group %d has %d %s, want %d", label, i, len(m.got), m.name, len(m.ref))
			}
			for k, v := range m.ref {
				gv, ok := m.got[k]
				if !ok || !gv.Equal(v) {
					t.Fatalf("%s: group %d %s[%q] = %v, want %v", label, i, m.name, k, gv, v)
				}
			}
		}
	}
}

// groupOracle answers a grouped document over the skew env by brute force:
// it reads every product through the core API, groups and aggregates the
// int64 fields in a Go map, then applies `_having`, the aggregate
// `_orderby` (nulls last, encoded group key as the tie-break), `_skip` and
// `_limit` by hand. Only the parser is shared with the engine.
func groupOracle(t *testing.T, g *core.Graph, c *fabric.Ctx, doc string) []GroupRow {
	t.Helper()
	q, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	tp := q.Root
	field := func(v bond.Value, name string) bond.Value {
		f, ok := skewSchema.FieldByName(name)
		if !ok {
			t.Fatalf("oracle: no field %q", name)
		}
		fv, _ := v.Field(f.ID)
		return fv
	}
	type group struct {
		enc  string
		keys []bond.Value
		aggs []bond.Value
	}
	groups := map[string]*group{}
	tx := g.Store().Farm().CreateReadTransaction(c)
	var ptrs []core.VertexPtr
	if err := g.ScanVerticesByType(tx, "product", func(_ bond.Value, vp core.VertexPtr) bool {
		ptrs = append(ptrs, vp)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for _, vp := range ptrs {
		v, err := g.ReadVertex(tx, vp)
		if err != nil {
			t.Fatal(err)
		}
		var enc []byte
		keys := make([]bond.Value, len(tp.GroupBy))
		for i, fp := range tp.GroupBy {
			keys[i] = field(v.Data, fp.Raw)
			enc = bond.OrderedEncode(enc, keys[i])
		}
		gr := groups[string(enc)]
		if gr == nil {
			gr = &group{enc: string(enc), keys: keys, aggs: make([]bond.Value, len(tp.Aggs))}
			groups[gr.enc] = gr
		}
		for i, a := range tp.Aggs {
			if a.Kind == AggCount {
				gr.aggs[i] = bond.Int64(gr.aggs[i].AsInt() + 1)
				continue
			}
			x, prev := field(v.Data, a.Path.Raw).AsInt(), gr.aggs[i]
			switch {
			case a.Kind == AggSum:
				gr.aggs[i] = bond.Int64(prev.AsInt() + x)
			case prev.IsNull(),
				a.Kind == AggMin && x < prev.AsInt(),
				a.Kind == AggMax && x > prev.AsInt():
				gr.aggs[i] = bond.Int64(x)
			}
		}
	}
	var out []*group
	for _, gr := range groups {
		keep := true
		for _, hp := range tp.Having {
			x, want := gr.aggs[hp.AggIdx].AsInt(), hp.Value.AsInt()
			keep = keep && map[Op]bool{OpEq: x == want, OpNe: x != want, OpGt: x > want,
				OpGe: x >= want, OpLt: x < want, OpLe: x <= want}[hp.Op]
		}
		if keep {
			out = append(out, gr)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		for k, ob := range tp.Orders {
			a, b := out[i].aggs[tp.GroupOrder[k]], out[j].aggs[tp.GroupOrder[k]]
			if a.IsNull() != b.IsNull() {
				return b.IsNull()
			}
			if a.AsInt() != b.AsInt() {
				return (a.AsInt() > b.AsInt()) == ob.Desc
			}
		}
		return out[i].enc < out[j].enc
	})
	out = out[min(tp.Skip, len(out)):]
	if tp.Limit > 0 && len(out) > tp.Limit {
		out = out[:tp.Limit]
	}
	rows := make([]GroupRow, len(out))
	for i, gr := range out {
		rows[i] = GroupRow{Keys: map[string]bond.Value{}, Aggregates: map[string]bond.Value{}}
		for k, fp := range tp.GroupBy {
			rows[i].Keys[fp.Raw] = gr.keys[k]
		}
		for k, a := range tp.Aggs {
			rows[i].Aggregates[a.Raw] = gr.aggs[k]
		}
	}
	return rows
}

// drainGroups executes doc and fetches every continuation page.
func drainGroups(t *testing.T, e *Engine, g *core.Graph, c *fabric.Ctx, doc string) ([]GroupRow, Stats) {
	t.Helper()
	var groups []GroupRow
	var total Stats
	res, err := e.Execute(c, g, []byte(doc))
	for {
		if err != nil {
			t.Fatalf("Execute(%s): %v", doc, err)
		}
		groups = append(groups, res.Groups...)
		total.GroupsShipped += res.Stats.GroupsShipped
		total.GroupsFiltered += res.Stats.GroupsFiltered
		total.PeakGroups = max(total.PeakGroups, res.Stats.PeakGroups)
		if res.Continuation == "" {
			return groups, total
		}
		res, err = e.Fetch(c, res.Continuation)
	}
}

func TestGroupStreamParity(t *testing.T) {
	stream, _, g, c := newSkewEnv(t)
	stream.cfg.PageSize = 7
	stream.cfg.GroupChunk = 8

	docs := []string{
		// Unordered high-tie rollup.
		`{"_type": "product", "_groupby": "category", "_select": ["_count(*)", "_sum(score)"]}`,
		// Multi-key grouping.
		`{"_type": "product", "_groupby": ["category", "score"], "_select": ["_count(*)", "_min(score)"]}`,
		// Ordered by aggregate with 80 ties on count=1.
		`{"_type": "product", "_groupby": "category", "_select": ["_count(*)", "_max(score)"], "_orderby": "-_count(*)"}`,
		// Skip + limit through the pager.
		`{"_type": "product", "_groupby": "category", "_select": ["_count(*)"], "_skip": 5, "_limit": 30}`,
		// _having re-checked at the coordinator after the merge.
		`{"_type": "product", "_groupby": "category", "_select": ["_count(*)", "_max(score)"], "_having": {"_max(score)": {"_ge": 100}}}`,
		// _having on _count: only "hot" survives.
		`{"_type": "product", "_groupby": "category", "_select": ["_count(*)"], "_having": {"_count(*)": {"_gt": 1}}}`,
	}
	for _, doc := range docs {
		got, _ := drainGroups(t, stream, g, c, doc)
		sameGroups(t, doc, got, groupOracle(t, g, c, doc))
	}
}

// TestGroupedTerminalUnreached: a traversal whose frontier dies out before
// the grouped terminal returns no groups — and no scalar aggregates.
func TestGroupedTerminalUnreached(t *testing.T) {
	e, _, g, c := newSkewEnv(t)
	if err := g.CreateEdgeType(c, "rel", nil); err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(c, g, []byte(`{"_type": "product", "category": "hot", "_out_edge": {"_type": "rel",
	  "_vertex": {"_groupby": "category", "_select": ["_count(*)"]}}}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 0 || res.Aggregates != nil || res.HasCount {
		t.Fatalf("groups %v, aggregates %v, has count %v: want none", res.Groups, res.Aggregates, res.HasCount)
	}
}

// TestGroupStreamResidency pins the streaming claim: the coordinator never
// holds the full group set.
func TestGroupStreamResidency(t *testing.T) {
	stream, _, g, c := newSkewEnv(t)
	stream.cfg.PageSize = 10
	stream.cfg.GroupChunk = 8
	_, total := drainGroups(t, stream, g, c, `{"_type": "product", "_groupby": "category", "_select": ["_count(*)"]}`)
	if peak := total.PeakGroups; peak <= 0 || peak >= 81 {
		t.Fatalf("streaming PeakGroups = %d, want in (0, 81): O(page + machines·chunk), not O(groups)", peak)
	}
	// Every group not wholly resident on the coordinator ships exactly one
	// partial state per remote machine holding it; the coordinator's own
	// partials never cross the fabric, so shipped < one-per-(machine,group).
	if shipped := total.GroupsShipped; shipped == 0 || shipped > 5*81 {
		t.Fatalf("GroupsShipped = %d, want in (0, %d]", shipped, 5*81)
	}
}

// TestHavingPushdownCutsShipping: a `_having` a worker's local partial can
// already prove failing — `_max` only grows under merge, so a local max at
// or past the bound is final — ships a key-only tombstone instead of the
// group's partial state.
func TestHavingPushdownCutsShipping(t *testing.T) {
	e, _, g, c := newSkewEnv(t)
	base := `{"_type": "product", "_groupby": "category", "_select": ["_count(*)", "_max(score)"]}`
	having := base[:len(base)-1] + `, "_having": {"_max(score)": {"_lt": 100}}}`
	_, all := drainGroups(t, e, g, c, base)
	got, cut := drainGroups(t, e, g, c, having)
	sameGroups(t, having, got, groupOracle(t, g, c, having))
	if cut.GroupsShipped >= all.GroupsShipped {
		t.Errorf("GroupsShipped = %d with _having, %d without: want strictly fewer", cut.GroupsShipped, all.GroupsShipped)
	}
	if cut.GroupsFiltered == 0 {
		t.Error("GroupsFiltered = 0, want the proven failures counted")
	}
}

func TestHavingValidation(t *testing.T) {
	e, _, g, c := newSkewEnv(t)
	cases := []struct {
		doc  string
		want string
	}{
		{`{"_type": "product", "_select": ["id"], "_having": {"_count(*)": 1}}`,
			"requires _groupby"},
		{`{"_type": "product", "_groupby": "category", "_select": ["_count(*)"], "_having": {"_max(score)": 5}}`,
			"must name a _select aggregate"},
		{`{"_type": "product", "_groupby": "category", "_select": ["_max(score)", "_max(id)"], "_having": {"_max": 5}}`,
			"ambiguous"},
		{`{"_type": "product", "_groupby": "category", "_select": ["_count(*)"], "_having": {"_count(*)": {"_prefix": "1"}}}`,
			"does not support _prefix"},
		{`{"_type": "product", "_groupby": "category", "_select": ["_count(*)"], "_having": {}}`,
			"_having must not be empty"},
	}
	for _, tc := range cases {
		_, err := e.Execute(c, g, []byte(tc.doc))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Execute(%s) err = %v, want containing %q", tc.doc, err, tc.want)
		}
	}
}

func TestHavingParamBinding(t *testing.T) {
	e, _, g, c := newSkewEnv(t)
	p, err := e.Prepare(c, g, []byte(`{"_type": "product", "_groupby": "category",
	  "_select": ["_count(*)"], "_having": {"_count(*)": {"_ge": "$min"}}}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Exec(c, Params{"min": 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 || res.Groups[0].Keys["category"].AsString() != "hot" {
		t.Fatalf("groups = %v, want exactly [hot]", res.Groups)
	}
	if n := res.Groups[0].Aggregates["_count(*)"].AsInt(); n != 120 {
		t.Fatalf("hot count = %d, want 120", n)
	}
	// Rebinding the same prepared query flips the answer: every group
	// passes _count >= 1.
	res, err = p.Exec(c, Params{"min": 1})
	if err != nil {
		t.Fatal(err)
	}
	total := len(res.Groups)
	for res.Continuation != "" {
		if res, err = e.Fetch(c, res.Continuation); err != nil {
			t.Fatal(err)
		}
		total += len(res.Groups)
	}
	if total != 81 {
		t.Fatalf("groups with min=1 = %d, want 81", total)
	}
	if _, err := p.Exec(c, nil); err == nil || !strings.Contains(err.Error(), "unbound parameter $min") {
		t.Fatalf("Exec(nil params) = %v, want unbound parameter", err)
	}
	if _, err := p.Exec(c, Params{"min": 2, "other": 1}); err == nil || !strings.Contains(err.Error(), "unknown parameter $other") {
		t.Fatalf("Exec(extra param) = %v, want unknown parameter", err)
	}
}

func TestHavingExplain(t *testing.T) {
	e, _, g, c := newSkewEnv(t)
	out, err := e.Explain(c, g, []byte(`{"_type": "product", "_groupby": "category",
	  "_select": ["_count(*)"], "_having": {"_count(*)": {"_ge": "$min"}}}`))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Having(") || !strings.Contains(out, "_count(*) >= $min") {
		t.Fatalf("Explain missing having clause:\n%s", out)
	}
}

// TestGroupRunStoreExpiry exercises the worker-side run park directly:
// tails a crashed or slow coordinator never pulls must die by TTL, and a
// pull after expiry is a restartable ErrBadToken.
func TestGroupRunStoreExpiry(t *testing.T) {
	e, _, g, c := newSkewEnv(t)
	e.cfg.ResultTTL = 20 * time.Millisecond
	e.cfg.GroupChunk = 1
	gs := &groupState{}
	id := e.parkRun(c, []groupEntry{{enc: "a", gs: gs}, {enc: "b", gs: gs}})
	if n := e.PendingRuns(c.M); n != 1 {
		t.Fatalf("PendingRuns = %d, want 1", n)
	}
	// Partial pull leaves the rest parked.
	part, more, err := e.pullRun(c, id)
	if err != nil || len(part) != 1 || !more {
		t.Fatalf("pullRun = %d entries, more=%v, err=%v", len(part), more, err)
	}
	time.Sleep(30 * time.Millisecond)
	if n := e.ExpireResults(c); n != 1 {
		t.Fatalf("ExpireResults swept %d runs, want 1", n)
	}
	if _, _, err := e.pullRun(c, id); !errors.Is(err, ErrBadToken) {
		t.Fatalf("pullRun(expired) = %v, want ErrBadToken", err)
	}

	// Draining a run fully removes it without waiting for the sweeper.
	e.cfg.ResultTTL = time.Minute
	id = e.parkRun(c, []groupEntry{{enc: "a", gs: gs}})
	rest, more, err := e.pullRun(c, id)
	if err != nil || len(rest) != 1 || more {
		t.Fatalf("pullRun(all) = %d entries, more=%v, err=%v", len(rest), more, err)
	}
	if n := e.PendingRuns(c.M); n != 0 {
		t.Fatalf("PendingRuns after drain = %d, want 0", n)
	}

	// A tail that lapses while its query pages fails the page that pulls
	// it with a restartable CodeBadToken, and the failed page closes the
	// merge: every other owner's tail is dropped at once, not left to its
	// TTL.
	res, err := e.Execute(c, g, []byte(`{"_hints": {"page_size": 10}, "_type": "product", "_groupby": "category", "_select": ["_count(*)"]}`))
	if err != nil || res.Continuation == "" {
		t.Fatalf("Execute: continuation %q, err %v", res.Continuation, err)
	}
	machines := e.store.Farm().Fabric().Machines()
	lapsed := -1
	for m := machines - 1; m > 0 && lapsed < 0; m-- {
		if e.PendingRuns(fabric.MachineID(m)) > 0 {
			lapsed = m
		}
	}
	if lapsed < 0 {
		t.Fatal("no remote machine parked a run tail")
	}
	e.runs[lapsed].drain()
	for err == nil && res.Continuation != "" {
		res, err = e.Fetch(c, res.Continuation)
	}
	var qe *Error
	if !errors.As(err, &qe) || qe.Code != CodeBadToken {
		t.Fatalf("paging past m%d's lapsed tail: err %v, want CodeBadToken", lapsed, err)
	}
	for m := 0; m < machines; m++ {
		if n := e.PendingRuns(fabric.MachineID(m)); n != 0 {
			t.Errorf("PendingRuns(m%d) after the failed page = %d, want 0", m, n)
		}
		if n := e.PendingResults(fabric.MachineID(m)); n != 0 {
			t.Errorf("PendingResults(m%d) after the failed page = %d, want 0", m, n)
		}
	}
}

// TestGroupMergeOwnerOrder: equal keys from several runs pop in run
// (owner) order, so float `_sum` partials fold in one fixed order whatever
// order the owners' replies arrived in.
func TestGroupMergeOwnerOrder(t *testing.T) {
	e, _, _, c := newSkewEnv(t)
	pat := &VertexPattern{Aggs: []Aggregate{{Kind: AggSum, Raw: "_sum(x)"}}}
	partial := func(x float64) *groupState {
		return &groupState{aggs: []aggState{{count: 1, sum: x, floatSum: true}}}
	}
	// Folded in owner order the sum is (1e16 + -1e16) + 1 = 1; any order
	// that takes the 1 before either large partial rounds it away to 0.
	var runs []workerRun
	for _, x := range []float64{1e16, -1e16, 1} {
		runs = append(runs, workerRun{first: []groupEntry{{enc: "a", gs: partial(x)}, {enc: "b", gs: partial(x)}}})
	}
	cur := newGroupCursor(e, runs, pat)
	for i := range cur.merge.runs {
		if best, err := cur.merge.head(c, &Stats{}, cur); err != nil || best != i {
			t.Fatalf("head = %d, %v; want run %d, the first of the equal heads left", best, err, i)
		}
		cur.merge.pop(i)
	}
	var stats Stats
	enc, gs, ok, err := cur.merged(c, &stats)
	if err != nil || !ok || enc != "b" {
		t.Fatalf("merged = %q, %v, %v; want group b", enc, ok, err)
	}
	if got := finalAggValue(&gs.aggs[0], pat.Aggs[0]).AsFloat(); got != 1 {
		t.Fatalf("_sum over equal heads = %v, want 1 (the owner-order fold)", got)
	}
	if _, _, ok, _ := cur.merged(c, &stats); ok {
		t.Fatal("merge yields a group past the last key")
	}
}

// TestOrderedGroupsPastMaxWorkingSet: an ordered grouped query whose full
// group set exceeds MaxWorkingSet completes, matches the oracle, and
// reports the whole sort buffer as PeakGroups.
func TestOrderedGroupsPastMaxWorkingSet(t *testing.T) {
	stream, _, g, c := newSkewEnv(t)
	doc := `{"_type": "product", "_groupby": "category", "_select": ["_sum(score)"], "_orderby": "-_sum(score)"}`

	// 81 groups > 40: large enough that no single worker's partial set
	// trips the per-batch check, small enough that the coordinator's sort
	// holds more groups than the cap.
	stream.cfg.MaxWorkingSet = 40
	stream.cfg.PageSize = 10
	got, total := drainGroups(t, stream, g, c, doc)
	sameGroups(t, "ordered groups past MaxWorkingSet", got, groupOracle(t, g, c, doc))
	// The merge's inputs (partials of one group on several machines) may
	// peak higher; the sort buffer alone holds all 81.
	if total.PeakGroups < 81 {
		t.Fatalf("PeakGroups = %d, want at least the 81 groups the sort holds", total.PeakGroups)
	}
}
