package query

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// canonicalDoc is the plan cache's former key: the document decoded as JSON
// (numbers kept verbatim) and re-serialized, which sorts object keys and
// strips whitespace; anything that fails to decode keys by its raw bytes.
// It stays as the oracle the plan key is checked against: documents it maps
// to equal bytes must get equal plan keys.
func canonicalDoc(doc []byte) []byte {
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	var v interface{}
	if err := dec.Decode(&v); err != nil {
		return doc
	}
	if dec.More() {
		return doc
	}
	canon, err := json.Marshal(v)
	if err != nil {
		return doc
	}
	return canon
}

// planKeyOf runs the plan-key pass over doc.
func planKeyOf(doc []byte) ([]byte, error) {
	var k keyScan
	err := k.run(doc, inPattern, false)
	return k.key, err
}

func testPlanKey(tb testing.TB, doc string) []byte {
	tb.Helper()
	key, err := planKeyOf([]byte(doc))
	if err != nil {
		tb.Fatalf("plan key of %s: %v", doc, err)
	}
	return key
}

// sameQuery reports whether two queries are equal apart from cache and
// binding bookkeeping, plans compared by value.
func sameQuery(a, b *Query) bool {
	strip := func(q *Query) Query {
		c := *q
		c.fromCache, c.bound, c.plan = false, false, nil
		return c
	}
	return reflect.DeepEqual(strip(a), strip(b)) && reflect.DeepEqual(a.Plan(), b.Plan())
}

// samePlanResult checks that the engine's cached path resolves doc exactly
// as Parse does: an equal query, or the same error code and message.
func samePlanResult(t *testing.T, e *Engine, doc []byte) {
	t.Helper()
	want, werr := Parse(doc)
	got, _, gerr := e.plan(doc, true)
	switch {
	case werr != nil || gerr != nil:
		var we, ge *Error
		if !errors.As(werr, &we) || !errors.As(gerr, &ge) || we.Code != ge.Code || werr.Error() != gerr.Error() {
			t.Fatalf("%q: plan error %v, Parse error %v", doc, gerr, werr)
		}
	case !sameQuery(got, want):
		t.Fatalf("%q: cached path built\n%+v\nParse built\n%+v", doc, got.Root, want.Root)
	}
}

// mutateLits gives every literal the plan key lifts a different value of
// the same JSON kind.
func mutateLits(v interface{}, ctx liftCtx) interface{} {
	switch x := v.(type) {
	case map[string]interface{}:
		for k, e := range x {
			x[k] = mutateLits(e, memberCtx(ctx, k))
		}
	case []interface{}:
		for i, e := range x {
			x[i] = mutateLits(e, elemCtx(ctx))
		}
	default:
		if _, _, ok := lift(ctx, v); !ok {
			return v
		}
		switch y := v.(type) {
		case string:
			return y + "~"
		case json.Number:
			if i, err := y.Int64(); err == nil {
				return json.Number(strconv.FormatInt(i^1, 10))
			}
			f, _ := y.Float64()
			return json.Number(strconv.FormatFloat(f/2, 'g', -1, 64))
		case bool:
			return !y
		}
	}
	return v
}

// FuzzPlanKey is the plan cache's differential test. For any document:
//   - the cached path (plan key, shape, bind) resolves it exactly as Parse
//     does, on the miss that parses its shape and on the hit after;
//   - the key pass accepts only valid JSON, and all valid JSON but
//     duplicate keys;
//   - documents the old canonicalDoc maps to equal bytes get equal keys;
//   - a document with every lifted literal changed gets the same key, and
//     served from the first document's shape it still resolves as Parse
//     resolves it: equal keys imply queries that differ only in lifted
//     values.
func FuzzPlanKey(f *testing.F) {
	for _, doc := range []string{q1, q2, q3, q4, `{"id": "x", "n": {"_gt": 1e3}, "_limit": 2}`} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		e := &Engine{plans: newPlanCache()}
		samePlanResult(t, e, doc)
		samePlanResult(t, e, doc)

		key, err := planKeyOf(doc)
		if err == nil && !json.Valid(doc) {
			t.Fatalf("%q: key pass accepted invalid JSON", doc)
		}
		var k keyScan
		if cerr := k.run(doc, inOpaque, true); json.Valid(doc) && cerr != nil && !strings.Contains(cerr.Error(), "duplicate key") {
			t.Fatalf("%q: check pass rejected valid JSON: %v", doc, cerr)
		}
		if err != nil {
			return
		}
		canon := canonicalDoc(doc)
		if ckey, err := planKeyOf(canon); err == nil && !bytes.Equal(key, ckey) {
			t.Fatalf("%q and its canonical form %q: keys %q and %q", doc, canon, key, ckey)
		}
		raw, err := decodeDoc(doc)
		if err != nil {
			return
		}
		variant, err := json.Marshal(mutateLits(raw, inPattern))
		if err != nil {
			t.Fatal(err)
		}
		if vkey, err := planKeyOf(variant); err != nil || !bytes.Equal(key, vkey) {
			t.Fatalf("%q and its literal variant %q: keys %q and %q (%v)", doc, variant, key, vkey, err)
		}
		samePlanResult(t, e, variant)
	})
}

func TestPlanKeyShapes(t *testing.T) {
	same := [][2]string{
		{`{"id": "a", "_select": ["id"]}`, `{"_select":["id"],"id":"b"}`},
		{`{"id": "a"}`, `{"id": "$$x"}`},
		{`{"f": 1}`, `{"f": 2.5e3}`},
		{`{"f": {"_gt": 1, "_lt": 2}}`, `{"f": {"_lt": 7, "_gt": -1}}`},
		{`{"_type": "t", "_limit": 3, "_skip": 0}`, `{"_type": "t", "_limit": 9, "_skip": 4}`},
		{`{"id": "r", "_recurse": {"_type": "e", "_min": 1, "_max": 2}}`, `{"id": "s", "_recurse": {"_type": "e", "_min": 2, "_max": 5}}`},
		{`{"_type": "t", "_groupby": "g", "_select": ["_count(*)"], "_having": {"_count": {"_ge": 2}}}`,
			`{"_type": "t", "_groupby": "g", "_select": ["_count(*)"], "_having": {"_count": {"_ge": 9}}}`},
	}
	for _, p := range same {
		if a, b := testPlanKey(t, p[0]), testPlanKey(t, p[1]); !bytes.Equal(a, b) {
			t.Errorf("%s and %s: keys %q and %q, want equal", p[0], p[1], a, b)
		}
	}
	differ := [][2]string{
		{`{"id": "a"}`, `{"id": "$a"}`},      // a user placeholder is structure
		{`{"id": "a"}`, `{"id": ""}`},        // an empty id plans differently
		{`{"f": 1}`, `{"f": "1"}`},           // the key records the literal's kind
		{`{"f": true}`, `{"f": null}`},       //
		{`{"f": [1]}`, `{"f": [2]}`},         // lists do not lift
		{`{"_type": "a"}`, `{"_type": "b"}`}, // nor do types
		{`{"_limit": 2}`, `{"_limit": 2.0}`}, // nor a count Parse rejects
		{`{"_hints": {"page_size": 2}, "id": "x"}`, `{"_hints": {"page_size": 3}, "id": "x"}`},
	}
	for _, p := range differ {
		if a, b := testPlanKey(t, p[0]), testPlanKey(t, p[1]); bytes.Equal(a, b) {
			t.Errorf("%s and %s: keys both %q, want different", p[0], p[1], a)
		}
	}
}

// TestDocumentFraming: a document is exactly one JSON object with distinct
// keys; a repeated key or trailing data is a parse error, on every path.
func TestDocumentFraming(t *testing.T) {
	env := newTestEnv(t, 3)
	cases := []struct{ doc, want string }{
		{`{"id": "tom.hanks"} garbage`, "trailing data"},
		{`{"id": "tom.hanks"}{"id": "war"}`, "trailing data"},
		{`{"id": "tom.hanks", "id": "war"}`, `duplicate key "id"`},
		{`{"id": "tom.hanks", "\u0069d": "war"}`, `duplicate key "id"`},
		{`{"id": "x", "_out_edge": {"_type": "a", "_type": "b"}}`, `duplicate key "_type"`},
	}
	for _, c := range cases {
		for name, run := range map[string]func() error{
			"Parse":   func() error { _, err := Parse([]byte(c.doc)); return err },
			"Execute": func() error { _, err := env.engine.Execute(env.c, env.graph, []byte(c.doc)); return err },
			"Prepare": func() error { _, err := env.engine.Prepare(env.c, env.graph, []byte(c.doc)); return err },
		} {
			err := run()
			var qe *Error
			if !errors.As(err, &qe) || qe.Code != CodeParse || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s(%s) = %v, want CodeParse %q", name, c.doc, err, c.want)
			}
		}
	}
	// Whitespace after the document is not data.
	if _, err := env.engine.Execute(env.c, env.graph, []byte(" {\"id\": \"tom.hanks\"}\n\t\r ")); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
}

// TestAdHocLiteralsSharePlan: point documents that differ only in `id`
// share one plan — one miss for 2,000 documents — and answer as if each
// were parsed afresh.
func TestAdHocLiteralsSharePlan(t *testing.T) {
	env := newTestEnv(t, 5)
	const doc = `{"id": %q, "_select": ["id", "name[0]", "popularity"]}`
	actors := 0
	for i := 0; i < 2000; i++ {
		id := fmt.Sprintf("actor.%05d", i)
		res, err := env.engine.Execute(env.c, env.graph, []byte(fmt.Sprintf(doc, id)))
		if errors.Is(err, ErrNoStart) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		actors++
		if len(res.Rows) != 1 || res.Rows[0].Values["id"].AsString() != id {
			t.Fatalf("%s: rows = %+v", id, res.Rows)
		}
		if want := i > 0; (res.Stats.PlanCacheHits == 1) != want {
			t.Errorf("%s: PlanCacheHits = %d", id, res.Stats.PlanCacheHits)
		}
	}
	if actors != env.kg.P.ActorPool {
		t.Errorf("%d actors answered, want the test graph's %d", actors, env.kg.P.ActorPool)
	}
	if hits, misses := env.engine.PlanCacheStats(); hits != 1999 || misses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1999/1", hits, misses)
	}

	// Explain of a literal document prints what it printed when every
	// document was parsed afresh, byte for byte, on a hit as on a miss.
	goldens := []struct{ doc, want string }{
		{fmt.Sprintf(doc, "tom.hanks"), "L0 IDLookup(id=\"tom.hanks\") est=1\n" +
			"  Read(fields{id, name, popularity})\n" +
			"  Shape(select id, name[0], popularity)\n"},
		{q3, "L0 IDLookup(id=\"steven.spielberg\") est=1\n" +
			"  Read(none)\n" +
			"  Traverse(out director.film)\n" +
			"  L1 Frontier est=8\n" +
			"    Filter(_type=entity, 2 _match)\n" +
			"    Read(fields{name})\n" +
			"    Shape(select name[0])\n"},
		{`{"_type": "entity", "str_str_map[kind]": "film", "popularity": {"_gt": 2},
			"_orderby": "-popularity", "_limit": 3, "_skip": 1, "_select": ["id"]}`,
			"L0 TypeScan(entity) est=119\n" +
				"  Filter(_type=entity, popularity > 2, str_str_map[kind] = \"film\")\n" +
				"  Read(fields{id, popularity, str_str_map})\n" +
				"  Shape(orderby -popularity; limit 3; skip 1; select id)\n"},
	}
	for _, g := range goldens {
		for pass := 0; pass < 2; pass++ {
			got, err := env.engine.Explain(env.c, env.graph, []byte(g.doc))
			if err != nil {
				t.Fatal(err)
			}
			if got != g.want {
				t.Errorf("pass %d: Explain =\n%s\nwant\n%s", pass, got, g.want)
			}
		}
	}
}

// TestSyntheticParamsStayHidden: lifted literals never surface as
// parameters. A prepared document lists and binds its user placeholders
// only, and a literal-only one binds with no params at all.
func TestSyntheticParamsStayHidden(t *testing.T) {
	env := newTestEnv(t, 3)
	p, err := env.engine.Prepare(env.c, env.graph, []byte(`{"id": "$who", "_out_edge": {"_type": "actor.film",
		"_vertex": {"_type": "entity", "_select": ["id"], "_limit": 2}}}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.ParamNames(); len(got) != 1 || got[0] != "who" {
		t.Errorf("ParamNames = %v, want [who]", got)
	}
	if _, err := p.Exec(env.c, nil); err == nil || !strings.Contains(err.Error(), "$who") {
		t.Errorf("unbound exec err = %v, want one naming $who", err)
	}
	if _, err := p.Exec(env.c, Params{"who": "tom.hanks", "0": 1}); err == nil || !strings.Contains(err.Error(), "$0") {
		t.Errorf("stray bind err = %v, want unknown parameter $0", err)
	}
	res, err := p.Exec(env.c, Params{"who": "tom.hanks"})
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("exec = %v rows, %v; want the 2 the literal _limit allows", len(res.Rows), err)
	}

	lit, err := env.engine.Prepare(env.c, env.graph, []byte(`{"id": "tom.hanks", "_select": ["id"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := lit.ParamNames(); len(got) != 0 {
		t.Errorf("literal ParamNames = %v, want none", got)
	}
	q, err := lit.Bind(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := env.engine.Run(env.c, env.graph, q); err != nil || len(res.Rows) != 1 || res.Rows[0].Values["id"].AsString() != "tom.hanks" {
		t.Errorf("literal prepared run = %+v, %v", res, err)
	}
}
