package query

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// decodeJSON is the reader's oracle: doc decoded by encoding/json with
// UseNumber, and ok as json.Valid reports it — one value, and nothing but
// whitespace after it.
func decodeJSON(doc []byte) (v interface{}, ok bool) {
	if !json.Valid(doc) {
		return nil, false
	}
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	return v, dec.Decode(&v) == nil
}

// canonicalDoc is the plan cache's former key: the document decoded as JSON
// (numbers kept verbatim) and re-serialized, which sorts object keys and
// strips whitespace; anything that fails to decode keys by its raw bytes.
// It stays as an oracle: documents it maps to equal bytes must get equal
// plan keys, and a document and its canonical form must parse alike.
func canonicalDoc(doc []byte) []byte {
	v, ok := decodeJSON(doc)
	if !ok {
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
	_, err := k.run(doc, inPattern, false)
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

// FuzzPlanKey is the plan cache's differential test, with encoding/json
// as the reader's oracle. For any document:
//   - the cached path (plan key, shape, bind) resolves it exactly as Parse
//     does, on the miss that parses its shape and on the hit after;
//   - the reader accepts exactly what encoding/json accepts, except
//     duplicate keys, and decodes it to encoding/json's tree;
//   - a document and its canonicalDoc parse to the same query and get
//     equal keys;
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

		var k keyScan
		tree, err := k.run(doc, inOpaque, true)
		want, valid := decodeJSON(doc)
		switch {
		case err == nil && !valid:
			t.Fatalf("%q: reader accepted invalid JSON", doc)
		case err != nil && valid && !strings.Contains(err.Error(), "duplicate key"):
			t.Fatalf("%q: reader rejected valid JSON: %v", doc, err)
		case err == nil && !reflect.DeepEqual(tree, want):
			t.Fatalf("%q: reader decoded %#v, encoding/json %#v", doc, tree, want)
		case err != nil:
			return
		}
		canon := canonicalDoc(doc)
		if q, err := Parse(doc); err == nil {
			if cq, cerr := Parse(canon); cerr != nil || !sameQuery(q, cq) {
				t.Fatalf("%q and its canonical form %q parse differently (%v)", doc, canon, cerr)
			}
		}
		key, err := planKeyOf(doc)
		if err != nil {
			t.Fatalf("%q: key pass failed where the reader did not: %v", doc, err)
		}
		if ckey, err := planKeyOf(canon); err != nil || !bytes.Equal(key, ckey) {
			t.Fatalf("%q and its canonical form %q: keys %q and %q (%v)", doc, canon, key, ckey, err)
		}
		variant, err := json.Marshal(mutateLits(want, inPattern))
		if err != nil {
			t.Fatal(err)
		}
		if vkey, err := planKeyOf(variant); err != nil || !bytes.Equal(key, vkey) {
			t.Fatalf("%q and its literal variant %q: keys %q and %q (%v)", doc, variant, key, vkey, err)
		}
		samePlanResult(t, e, variant)
	})
}

// corpusDoc reads one FuzzPlanKey corpus file's document.
func corpusDoc(tb testing.TB, path string) []byte {
	tb.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	lines := strings.SplitN(string(raw), "\n", 3)
	if len(lines) < 2 || !strings.HasPrefix(lines[1], "[]byte(") {
		tb.Fatalf("%s: not a []byte corpus entry", path)
	}
	doc, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		tb.Fatalf("%s: %v", path, err)
	}
	return []byte(doc)
}

// TestPlanKeyCorpusGolden holds every FuzzPlanKey corpus entry's Parse
// outcome ("ok" or the error code) and plan key (hex, "-" where the key
// pass fails) to testdata/plankey_golden.txt, recorded when the parser
// still decoded documents with encoding/json. changed lists the entries
// whose outcome has changed since, and why.
func TestPlanKeyCorpusGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/plankey_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		name, outcome, _ := strings.Cut(line, " ")
		want[name] = outcome
	}
	// Parse accepted these, and executing them failed: the root names
	// neither an id nor a _type (top_null is not an object at all).
	for _, name := range []string{"deep_list", "internal_query_plankey_test_18", "internal_query_plankey_test_27",
		"internal_query_plankey_test_7", "internal_query_plankey_test_8", "internal_query_readset_test_2",
		"internal_query_readset_test_4", "internal_query_readset_test_5", "internal_query_readset_test_6",
		"internal_query_readset_test_9", "top_null"} {
		want[name] = "parse" + strings.TrimPrefix(want[name], "ok")
	}
	// The key pass declined documents nested deeper than 128; it now keys
	// everything encoding/json reads.
	want["nested_10000"] = "parse " + hex.EncodeToString([]byte(`{"_select"`+strings.Repeat("[", 9999)+strings.Repeat("]", 9999)+"}"))
	files, err := filepath.Glob("testdata/fuzz/FuzzPlanKey/*")
	if err != nil || len(files) != len(want) {
		t.Fatalf("%d corpus entries, %d golden rows (%v)", len(files), len(want), err)
	}
	for _, f := range files {
		doc := corpusDoc(t, f)
		code, key := "ok", "-"
		if _, err := Parse(doc); err != nil {
			var qe *Error
			if !errors.As(err, &qe) {
				t.Errorf("%s: unclassified error %v", f, err)
				continue
			}
			code = qe.Code.String()
		}
		if k, err := planKeyOf(doc); err == nil {
			key = hex.EncodeToString(k)
		}
		if got, w := code+" "+key, want[filepath.Base(f)]; got != w {
			t.Errorf("%s (%q):\n got %s\nwant %s", filepath.Base(f), doc, got, w)
		}
	}
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
// keys whose root names an id or a _type; invalid JSON, a repeated key,
// trailing data, any other value and a root with neither are parse errors,
// on every path.
func TestDocumentFraming(t *testing.T) {
	env := newTestEnv(t, 3)
	cases := []struct{ doc, want string }{
		{`{"id": "tom.hanks"} garbage`, "trailing data"},
		{`{"id": "tom.hanks"}{"id": "war"}`, "trailing data"},
		{`{"id": "tom.hanks", "id": "war"}`, `duplicate key "id"`},
		{`{"id": "tom.hanks", "\u0069d": "war"}`, `duplicate key "id"`},
		{`{"id": "x", "_out_edge": {"_type": "a", "_type": "b"}}`, `duplicate key "_type"`},
		{`{"id": "x", "_limit": }`, "invalid JSON at byte 22 of 23"},
		{`{"id": "x"`, "invalid JSON at byte 10 of 10"},
		{`{"_select": ` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + "}", "nested deeper than 10000"},
		{`null`, "a document must be a JSON object"},
		{`["id"]`, "a document must be a JSON object"},
		{`{}`, "root pattern requires id or _type"},
		{`{"name": "x"}`, "root pattern requires id or _type"},
		{`{"id": ""}`, "root pattern requires id or _type"},
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
