package query

import (
	"errors"
	"strings"
	"testing"
	"time"

	"a1/internal/bond"
)

// Streamed grouped aggregation: parity with the map-accumulate path,
// `_having` surface + binding, continuation lifecycle for parked group
// runs, and spill-backed completion of ordered queries past
// MaxWorkingSet. The skew env has 81 groups by category: "hot" with 120
// members and 80 singleton tails (tie-heavy on _count). Integer
// aggregates only — float sums are merge-order sensitive on both paths.

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

func TestGroupStreamParity(t *testing.T) {
	stream, mapAcc, g, c := newSkewEnv(t)
	stream.cfg.PageSize = 7
	stream.cfg.GroupChunk = 8
	mapAcc.cfg.NoGroupStreaming = true

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
		var fast []GroupRow
		res, err := stream.Execute(c, g, []byte(doc))
		for {
			if err != nil {
				t.Fatalf("stream Execute(%s): %v", doc, err)
			}
			fast = append(fast, res.Groups...)
			if res.Continuation == "" {
				break
			}
			res, err = stream.Fetch(c, res.Continuation)
		}
		slow, err := mapAcc.Execute(c, g, []byte(doc))
		if err != nil {
			t.Fatalf("map Execute(%s): %v", doc, err)
		}
		if slow.Continuation != "" {
			t.Fatalf("map path paged unexpectedly (PageSize default); doc %s", doc)
		}
		sameGroups(t, doc, fast, slow.Groups)
	}
}

// TestGroupStreamResidency pins the tentpole claim: the streaming
// coordinator never holds the full group set, the map path always does.
func TestGroupStreamResidency(t *testing.T) {
	stream, mapAcc, g, c := newSkewEnv(t)
	stream.cfg.PageSize = 10
	stream.cfg.GroupChunk = 8
	mapAcc.cfg.NoGroupStreaming = true
	doc := `{"_type": "product", "_groupby": "category", "_select": ["_count(*)"]}`

	res, err := stream.Execute(c, g, []byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	peak := res.Stats.PeakGroups
	shipped := res.Stats.GroupsShipped
	for res.Continuation != "" {
		if res, err = stream.Fetch(c, res.Continuation); err != nil {
			t.Fatal(err)
		}
		if res.Stats.PeakGroups > peak {
			peak = res.Stats.PeakGroups
		}
		shipped += res.Stats.GroupsShipped
	}
	slow, err := mapAcc.Execute(c, g, []byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if slow.Stats.PeakGroups != 81 {
		t.Fatalf("map path PeakGroups = %d, want 81", slow.Stats.PeakGroups)
	}
	if peak <= 0 || peak >= 81 {
		t.Fatalf("streaming PeakGroups = %d, want in (0, 81): O(page + machines·chunk), not O(groups)", peak)
	}
	// Every group not wholly resident on the coordinator ships exactly one
	// partial state per remote machine holding it; the coordinator's own
	// partials never cross the fabric, so shipped < one-per-(machine,group).
	if shipped == 0 || shipped > 5*81 {
		t.Fatalf("GroupsShipped = %d, want in (0, %d]", shipped, 5*81)
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
	e, _, _, c := newSkewEnv(t)
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
}

// TestGroupStreamSpill: an ordered grouped query whose full group set
// exceeds MaxWorkingSet fast-fails on the map path but completes on the
// streaming path by spilling sorted runs to the object store.
func TestGroupStreamSpill(t *testing.T) {
	stream, mapAcc, g, c := newSkewEnv(t)
	doc := `{"_type": "product", "_groupby": "category", "_select": ["_sum(score)"], "_orderby": "-_sum(score)"}`

	// Reference: unconstrained map-accumulate ablation.
	mapAcc.cfg.NoGroupStreaming = true
	ref, err := mapAcc.Execute(c, g, []byte(doc))
	if err != nil {
		t.Fatal(err)
	}

	// 81 groups > 40: large enough that no single worker's partial set
	// trips the per-batch check, small enough that the coordinator must
	// spill the sorted buffer (twice) instead of holding all 81.
	mapAcc.cfg.MaxWorkingSet = 40
	if _, err := mapAcc.Execute(c, g, []byte(doc)); !errors.Is(err, ErrWorkingSet) {
		t.Fatalf("map path past MaxWorkingSet = %v, want ErrWorkingSet", err)
	}

	stream.cfg.MaxWorkingSet = 40
	stream.cfg.PageSize = 10
	var got []GroupRow
	var spills int64
	res, err := stream.Execute(c, g, []byte(doc))
	for {
		if err != nil {
			t.Fatalf("streaming spill query: %v", err)
		}
		got = append(got, res.Groups...)
		spills += res.Stats.GroupSpills
		if res.Continuation == "" {
			break
		}
		res, err = stream.Fetch(c, res.Continuation)
	}
	if spills == 0 {
		t.Fatal("GroupSpills = 0, want > 0 (the query must have spilled to complete)")
	}
	sameGroups(t, "spilled ordered groups", got, ref.Groups)
	if names := stream.spill.TableNames(); len(names) != 0 {
		t.Fatalf("spill tables leaked after drain: %v", names)
	}
}

// TestGroupStreamSpillRelease: dropping the continuation mid-stream
// releases the spill tables backing it.
func TestGroupStreamSpillRelease(t *testing.T) {
	stream, _, g, c := newSkewEnv(t)
	stream.cfg.MaxWorkingSet = 40
	stream.cfg.PageSize = 10
	doc := `{"_type": "product", "_groupby": "category", "_select": ["_sum(score)"], "_orderby": "-_sum(score)"}`
	res, err := stream.Execute(c, g, []byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if res.Continuation == "" {
		t.Fatal("expected a continuation")
	}
	if names := stream.spill.TableNames(); len(names) == 0 {
		t.Fatal("expected live spill tables behind the continuation")
	}
	if err := stream.Release(c, res.Continuation); err != nil {
		t.Fatal(err)
	}
	if names := stream.spill.TableNames(); len(names) != 0 {
		t.Fatalf("spill tables leaked after Release: %v", names)
	}
}
