package query

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/fabric"
)

// evalPredicate is the decode-then-compare evaluator the in-place filter
// replaced, kept verbatim as its oracle: one predicate against a decoded
// value under a schema.
func evalPredicate(v bond.Value, p Predicate, schema *bond.Schema) bool {
	fv, ok := resolvePath(v, p.Path, schema)
	if !ok {
		return false
	}
	if p.Op == OpPrefix {
		fs, fok := fv.Text()
		ps, pok := p.Value.Text()
		return fok && pok && strings.HasPrefix(fs, ps)
	}
	cmp, ok := bond.Compare(fv, p.Value)
	if !ok {
		// Incomparable kinds: only (in)equality by deep-equal is meaningful.
		switch p.Op {
		case OpEq:
			return fv.Equal(p.Value)
		case OpNe:
			return !fv.Equal(p.Value)
		}
		return false
	}
	switch p.Op {
	case OpEq:
		return cmp == 0
	case OpNe:
		return cmp != 0
	case OpGt:
		return cmp > 0
	case OpGe:
		return cmp >= 0
	case OpLt:
		return cmp < 0
	case OpLe:
		return cmp <= 0
	}
	return false
}

// evalPredicates applies all predicates (conjunction).
func evalPredicates(v bond.Value, preds []Predicate, schema *bond.Schema) bool {
	for _, p := range preds {
		if !evalPredicate(v, p, schema) {
			return false
		}
	}
	return true
}

// The differential suite's schema: every scalar kind, a list, a map and a
// nested struct.
var (
	fuzzInner  = bond.MustSchema("inner", bond.F(0, "x", bond.TInt64), bond.F(1, "tag", bond.TString))
	fuzzSchema = bond.MustSchema("fuzz",
		bond.FReq(0, "id", bond.TString),
		bond.F(1, "flag", bond.TBool),
		bond.F(2, "i32", bond.TInt32),
		bond.F(3, "i64", bond.TInt64),
		bond.F(4, "u64", bond.TUInt64),
		bond.F(5, "f32", bond.TFloat),
		bond.F(6, "f64", bond.TDouble),
		bond.F(7, "str", bond.TString),
		bond.F(8, "blob", bond.TBlob),
		bond.F(9, "day", bond.TDate),
		bond.F(10, "names", bond.TListOf(bond.TString)),
		bond.F(11, "nums", bond.TListOf(bond.TInt64)),
		bond.F(12, "attrs", bond.TMapOf(bond.TString, bond.TString)),
		bond.F(13, "inner", bond.TStructOf(fuzzInner)),
	)
	fuzzPaths = []string{
		"id", "flag", "i32", "i64", "u64", "f32", "f64", "str", "blob", "day", "names", "nums", "attrs", "inner",
		"names[0]", "names[1]", "names[3]", "names[-1]", "nums[0]", "nums[2]",
		"attrs[a]", "attrs[b]", "attrs[character]", "attrs[zz]", "str[0]", "names[a]",
		"missing", "missing[0]", "*",
	}
	fuzzOps     = []Op{OpEq, OpNe, OpGt, OpGe, OpLt, OpLe, OpPrefix}
	fuzzInts    = []int64{-1, 0, 1, 2, 1 << 40}
	fuzzFloats  = []float64{-1.5, 0, 1, 2.5, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
	fuzzStrings = []string{"", "a", "ab", "b", "Batman"}
)

// fuzzGen draws every choice from the fuzzer's bytes (zeros once they run
// out), so each input names one stored value, one damage and one filter.
type fuzzGen struct{ b []byte }

func (g *fuzzGen) next() byte {
	if len(g.b) == 0 {
		return 0
	}
	c := g.b[0]
	g.b = g.b[1:]
	return c
}

func (g *fuzzGen) pick(n int) int { return (int(g.next())<<8 | int(g.next())) % n }

// float draws from fuzzFloats on its own pick, so −0.0, NaN and the
// infinities are all reachable.
func (g *fuzzGen) float() float64 { return fuzzFloats[g.pick(len(fuzzFloats))] }

func (g *fuzzGen) scalar(k bond.Kind) bond.Value {
	i := g.pick(len(fuzzInts))
	s := fuzzStrings[i]
	switch k {
	case bond.KindBool:
		return bond.Bool(i%2 == 1)
	case bond.KindInt32:
		return bond.Int32(int32(fuzzInts[i]))
	case bond.KindInt64:
		return bond.Int64(fuzzInts[i])
	case bond.KindUInt64:
		return bond.UInt64(uint64(fuzzInts[i]))
	case bond.KindFloat:
		return bond.Float(float32(g.float()))
	case bond.KindDouble:
		return bond.Double(g.float())
	case bond.KindString:
		return bond.String(s)
	case bond.KindBlob:
		return bond.Blob([]byte(s))
	case bond.KindDate:
		return bond.Date(fuzzInts[i])
	}
	return bond.Null
}

// typed returns a value of type t.
func (g *fuzzGen) typed(t bond.Type) bond.Value {
	switch t.Kind {
	case bond.KindList:
		elems := make([]bond.Value, g.pick(4))
		for i := range elems {
			elems[i] = g.typed(*t.Elem)
		}
		return bond.List(elems...)
	case bond.KindMap:
		entries := make([]bond.MapEntry, g.pick(4))
		for i := range entries {
			entries[i] = bond.MapEntry{Key: bond.String([]string{"a", "b", "character"}[g.pick(3)]), Value: g.typed(*t.Elem)}
		}
		return bond.Map(entries...)
	case bond.KindStruct:
		var fs []bond.FieldValue
		for _, f := range t.Struct.Fields {
			if g.pick(3) > 0 {
				fs = append(fs, bond.FV(f.ID, g.typed(f.Type)))
			}
		}
		return bond.Struct(fs...)
	}
	return g.scalar(t.Kind)
}

// anyValue returns a value of any kind: nulls, list elements of mixed kind
// (null included), maps with non-string keys, structs whose fields may or
// may not match fuzzSchema's types.
func (g *fuzzGen) anyValue(depth int) bond.Value {
	k := bond.Kind(g.pick(int(bond.KindStruct) + 1))
	if depth > 1 && k >= bond.KindList {
		return bond.Null
	}
	switch k {
	case bond.KindList:
		elems := make([]bond.Value, g.pick(4))
		for i := range elems {
			elems[i] = g.anyValue(depth + 1)
		}
		return bond.List(elems...)
	case bond.KindMap:
		entries := make([]bond.MapEntry, g.pick(3))
		for i := range entries {
			entries[i] = bond.MapEntry{Key: g.anyValue(2), Value: g.anyValue(depth + 1)}
		}
		return bond.Map(entries...)
	case bond.KindStruct:
		return g.record(depth + 1)
	}
	return g.scalar(k)
}

// record is a struct over fuzzSchema's ids: fields absent, well typed or of
// any kind, and sometimes an id the schema lacks.
func (g *fuzzGen) record(depth int) bond.Value {
	var fs []bond.FieldValue
	for _, f := range fuzzSchema.Fields {
		switch g.pick(8) {
		case 0, 1:
		case 2:
			fs = append(fs, bond.FV(f.ID, g.anyValue(depth)))
		default:
			fs = append(fs, bond.FV(f.ID, g.typed(f.Type)))
		}
	}
	if g.pick(4) == 0 {
		fs = append(fs, bond.FV(20, g.scalar(bond.KindString)))
	}
	return bond.Struct(fs...)
}

// damage truncates, flips a byte, appends a trailing byte, or keeps data.
func (g *fuzzGen) damage(data []byte) []byte {
	switch g.pick(5) {
	case 1:
		return data[:g.pick(len(data)+1)]
	case 2:
		data[g.pick(len(data))] ^= g.next() | 1
	case 3:
		return append(data, g.next())
	}
	return data
}

func (g *fuzzGen) predicate(t *testing.T) Predicate {
	fp, err := parseFieldPath(fuzzPaths[g.pick(len(fuzzPaths))])
	if err != nil {
		t.Fatal(err)
	}
	p := Predicate{Path: fp, comparison: comparison{Op: fuzzOps[g.pick(len(fuzzOps))]}}
	switch i := g.pick(len(fuzzInts)); g.pick(6) {
	case 0:
		p.Value = bond.Int64(fuzzInts[i])
	case 1:
		p.Value = bond.Double(g.float())
	case 2, 3:
		p.Value = bond.String(fuzzStrings[i])
	case 4:
		p.Value = bond.Bool(i%2 == 1)
	default:
		p.Value = []bond.Value{bond.Null, bond.List(bond.String("a"))}[i%2]
	}
	return p
}

// checkInPlace runs one generated case both ways. A vertex data object:
// the read set's projected decode (a "*" path: the full decode), then
// evalPredicates, against LocateFields and the in-place filter, whose
// survivor decode must also equal the projection. An edge value: Unmarshal
// against Locate.
func checkInPlace(t *testing.T, in []byte) {
	g := &fuzzGen{b: in}
	vertex := g.pick(2) == 0
	var stored bond.Value
	if vertex {
		stored = g.record(0)
	} else {
		stored = g.anyValue(0)
	}
	data := g.damage(bond.Marshal(stored))
	pat := &VertexPattern{}
	for n := 1 + g.pick(2); n > 0; n-- {
		p := g.predicate(t)
		pat.Preds = append(pat.Preds, p)
		pat.Selects = append(pat.Selects, p.Path)
	}
	schema := fuzzSchema
	if !vertex && g.pick(4) == 0 {
		schema = nil // a data-less edge type
	}

	var want bond.Value
	var wantErr error
	f := &inPlace{}
	if vertex {
		read := readSetOf(pat, false)
		if read.All {
			want, wantErr = bond.UnmarshalStruct(schema, data)
		} else {
			var ids []uint16
			for _, name := range read.Fields {
				if fld, ok := schema.FieldByName(name); ok {
					ids = append(ids, fld.ID)
				}
			}
			slices.Sort(ids)
			want, wantErr = bond.UnmarshalStructFields(schema, data, ids)
		}
		f.use(vertexLayout(schema, 0, pat, read))
	} else {
		want, wantErr = bond.Unmarshal(data)
		f.use(edgeLayout(schema, pat.Preds))
	}
	err := f.locate(data)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%x under %v: in-place error %v, decode error %v", data, pat.Preds, err, wantErr)
	}
	if err != nil {
		return
	}
	if got, ok := f.holds(pat.Preds), evalPredicates(want, pat.Preds, schema); got != ok {
		t.Fatalf("%v under %v: in place %v, decoded %v", want, pat.Preds, got, ok)
	}
	if vertex {
		got, err := f.decode()
		if err != nil || (!got.Equal(want) && !(got.IsNull() && want.Len() == 0)) {
			t.Fatalf("survivor decode of %v = %v, %v; want %v", pat.Selects, got, err, want)
		}
	}
}

// FuzzPredicateInPlace holds the in-place filter against the decode it
// replaced: over generated vertex data objects and edge values — every
// stored kind, lists, maps, nested structs, absent fields, null elements,
// mistyped fields and damaged bytes — and predicates of every operator over
// fields, map keys, list indexes and missing paths, the two verdicts agree,
// or both fail with the same error.
func FuzzPredicateInPlace(f *testing.F) {
	for _, seed := range []string{"", "\x00\x01\x00\x02", "\x00\x00\x03\x07\x00\x05\x00\x14\x00\x00",
		"\x00\x01\x00\x01\x00\x02\x00\x02\x00\x03\x00\x04\x00\x05\x00\x16\x00\x00\x00\x02"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(checkInPlace)
}

// TestInPlaceFilterAllocatesNothing: Q2's filter — a map-key string
// predicate on a performance vertex — locates and compares without
// building a value.
func TestInPlaceFilterAllocatesNothing(t *testing.T) {
	q, err := Parse([]byte(`{"id": "x", "_out_edge": {"_type": "e", "_vertex": {"attrs[character]": "Batman", "f64": {"_gt": 1}}}}`))
	if err != nil {
		t.Fatal(err)
	}
	pat := q.Root.Edge.Vertex
	data := bond.Marshal(bond.Struct(
		bond.FV(0, bond.String("perf.1")),
		bond.FV(6, bond.Double(2)),
		bond.FV(10, bond.List(bond.String("perf.1"))),
		bond.FV(12, bond.StringMap(map[string]string{"kind": "performance", "character": "Batman"})),
	))
	f := getInPlace()
	defer putInPlace(f)
	f.use(vertexLayout(fuzzSchema, 0, pat, readSetOf(pat, false)))
	allocs := testing.AllocsPerRun(100, func() {
		if err := f.locate(data); err != nil || !f.holds(pat.Preds) {
			t.Fatalf("filter: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("in-place filter allocated %.1f times per vertex", allocs)
	}
}

// TestLevelIDFilter: an `id` below the root is a key test at its level. A
// traversal level, its `_count(*)` form, a level above a further hop, and
// a `_match` subpattern that also has a predicate (so it is not resolved
// to a pointer up front) keep only the vertex with that key — in Direct
// and in Sim.
func TestLevelIDFilter(t *testing.T) {
	level := func(id, rest string) string {
		return fmt.Sprintf(`{"id": "steven.spielberg", "_out_edge": {"_type": "director.film", "_vertex": {"id": %q, %s}}}`, id, rest)
	}
	const film = "film.spielberg.002"
	castOf := func(t *testing.T, env *testEnv) int64 {
		tx := env.store.Farm().CreateReadTransaction(env.c)
		vp, ok, err := env.graph.LookupVertex(tx, "entity", bond.String(film))
		if err != nil || !ok {
			t.Fatalf("lookup %s: %v %v", film, ok, err)
		}
		seen := map[core.VertexPtr]bool{}
		if err := env.graph.EnumerateEdges(tx, vp, core.DirOut, "film.actor", func(he core.HalfEdge) bool {
			seen[he.Other] = true
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return int64(len(seen))
	}
	direct := newTestEnv(t, 8)
	cast := castOf(t, direct)
	match := func(id, pred string) string {
		return fmt.Sprintf(`{"id": "steven.spielberg", "_out_edge": {"_type": "director.film", "_vertex": {"_match": [
			{"_out_edge": {"_type": "film.actor", "_vertex": {"id": %q%s}}}], "_select": ["_count(*)"]}}}`, id, pred)
	}
	// Without a predicate the subpattern's id resolves to a pointer before
	// the levels run: the answer the key test must reproduce.
	hanks, err := direct.engine.Execute(direct.c, direct.graph, []byte(match("tom.hanks", "")))
	if err != nil || hanks.Count == 0 {
		t.Fatalf("pre-resolved _match: %v, %v", hanks, err)
	}
	const alwaysTrue = `, "popularity": {"_ge": 0}`
	cases := []struct {
		doc   string
		rows  []string // nil: a count case
		count int64
	}{
		{doc: level("no.such.film", `"_select": ["id"]`), rows: []string{}},
		{doc: level(film, `"_select": ["id"]`), rows: []string{film}},
		{doc: level("no.such.film", `"_select": ["_count(*)"]`), count: 0},
		{doc: level(film, `"_select": ["_count(*)"]`), count: 1},
		{doc: level("no.such.film", `"_out_edge": {"_type": "film.actor", "_vertex": {"_select": ["_count(*)"]}}`), count: 0},
		{doc: level(film, `"_out_edge": {"_type": "film.actor", "_vertex": {"_select": ["_count(*)"]}}`), count: cast},
		{doc: match("nobody.at.all", alwaysTrue), count: 0},
		{doc: match("tom.hanks", alwaysTrue), count: hanks.Count},
	}
	check := func(t *testing.T, mode string, res *Result, err error, i int) {
		tc := cases[i]
		if err != nil {
			t.Errorf("%s case %d: %v", mode, i, err)
			return
		}
		if tc.rows == nil {
			if !res.HasCount || res.Count != tc.count {
				t.Errorf("%s case %d: count %d (has %v), want %d\n%s", mode, i, res.Count, res.HasCount, tc.count, tc.doc)
			}
			return
		}
		var got []string
		for _, r := range res.Rows {
			got = append(got, r.Values["id"].AsString())
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.rows) {
			t.Errorf("%s case %d: rows %v, want %v\n%s", mode, i, got, tc.rows, tc.doc)
		}
	}
	for i, tc := range cases {
		res, err := direct.engine.Execute(direct.c, direct.graph, []byte(tc.doc))
		check(t, "direct", res, err, i)
	}
	sim := simQueryEnv(t, 8)
	sim.run(func(c *fabric.Ctx) {
		for i, tc := range cases {
			res, err := sim.engine.Execute(c, sim.graph, []byte(tc.doc))
			check(t, "sim", res, err, i)
		}
	})

	// The level's Explain names the key test and the key's read.
	got, err := direct.engine.Explain(direct.c, direct.graph, []byte(level(film, `"_select": ["name[0]"]`)))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`Filter(id="film.spielberg.002")`, "Read(fields{<key>, name})"} {
		if !strings.Contains(got, want) {
			t.Errorf("Explain missing %q:\n%s", want, got)
		}
	}
}
