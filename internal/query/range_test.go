package query

import (
	"fmt"
	"math"
	"testing"

	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/fabric"
	"a1/internal/farm"
)

// Inequality predicates on secondary-indexed fields served from B-tree
// range scans: the root frontier contains only matching vertices, so
// Stats.VerticesRead tracks the selectivity rather than the type size.

const rangeItems = 100

// itemSchema: score (int64), rating (double), and label (string) are all
// secondary-indexed; bulk (int64) is not.
var itemSchema = bond.MustSchema("item",
	bond.FReq(0, "id", bond.TString),
	bond.F(1, "score", bond.TInt64),
	bond.F(2, "rating", bond.TDouble),
	bond.F(3, "label", bond.TString),
	bond.F(4, "bulk", bond.TInt64),
)

func newRangeEnv(t testing.TB) (*Engine, *core.Graph, *fabric.Ctx) {
	t.Helper()
	fab := fabric.New(fabric.DefaultConfig(6, fabric.Direct), nil)
	f := farm.Open(fab, farm.Config{RegionSize: 16 << 20})
	c := fab.NewCtx(0, nil)
	s, err := core.Open(c, f, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTenant(c, "t"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateGraph(c, "t", "g"); err != nil {
		t.Fatal(err)
	}
	g, err := s.OpenGraph(c, "t", "g")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CreateVertexType(c, "item", itemSchema, "id", "score", "rating", "label"); err != nil {
		t.Fatal(err)
	}
	err = farm.RunTransaction(c, f, func(tx *farm.Tx) error {
		for i := 0; i < rangeItems; i++ {
			_, err := g.CreateVertex(tx, "item", bond.Struct(
				bond.FV(0, bond.String(fmt.Sprintf("item.%03d", i))),
				bond.FV(1, bond.Int64(int64(i))),
				bond.FV(2, bond.Double(float64(i)/2)),
				bond.FV(3, bond.String(fmt.Sprintf("label.%03d", i))),
				bond.FV(4, bond.Int64(int64(i))),
			))
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(s, DefaultConfig()), g, c
}

func runRange(t *testing.T, e *Engine, g *core.Graph, c *fabric.Ctx, doc string) *Result {
	t.Helper()
	res, err := e.Execute(c, g, []byte(doc))
	if err != nil {
		t.Fatalf("%s: %v", doc, err)
	}
	return res
}

func TestIndexedRangePredicates(t *testing.T) {
	e, g, c := newRangeEnv(t)
	cases := []struct {
		doc  string
		want int
	}{
		{`{"_type": "item", "score": {"_ge": 10, "_lt": 20}, "_select": ["id"]}`, 10},
		{`{"_type": "item", "score": {"_gt": 10, "_le": 20}, "_select": ["id"]}`, 10},
		{`{"_type": "item", "score": {"_gt": 94}, "_select": ["id"]}`, 5},
		{`{"_type": "item", "score": {"_le": 4}, "_select": ["id"]}`, 5},
		// Fractional bound on an integer field: > 9.5 means >= 10.
		{`{"_type": "item", "score": {"_gt": 9.5, "_lt": 12.5}, "_select": ["id"]}`, 3},
		// Integer bound on a double field: rating < 5 means score < 10.
		{`{"_type": "item", "rating": {"_lt": 5}, "_select": ["id"]}`, 10},
		{`{"_type": "item", "rating": {"_ge": 49}, "_select": ["id"]}`, 2},
		// String range.
		{`{"_type": "item", "label": {"_ge": "label.090", "_lt": "label.095"}, "_select": ["id"]}`, 5},
		// Contradictory bounds: empty without error.
		{`{"_type": "item", "score": {"_gt": 50, "_lt": 40}, "_select": ["id"]}`, 0},
		// Bound beyond the domain: served as empty via coercion.
		{`{"_type": "item", "score": {"_ge": 1e300}, "_select": ["id"]}`, 0},
	}
	for _, tc := range cases {
		res := runRange(t, e, g, c, tc.doc)
		if len(res.Rows) != tc.want {
			t.Errorf("%s: rows = %d, want %d", tc.doc, len(res.Rows), tc.want)
		}
		// The range scan bounds the frontier: only matching vertices (plus
		// at most boundary over-approximation) are read — never the whole
		// type.
		if tc.want > 0 && res.Stats.VerticesRead >= rangeItems {
			t.Errorf("%s: VerticesRead = %d, want < %d (index range scan)",
				tc.doc, res.Stats.VerticesRead, rangeItems)
		}
	}
}

func TestUnindexedRangeFallsBackToScan(t *testing.T) {
	e, g, c := newRangeEnv(t)
	res := runRange(t, e, g, c, `{"_type": "item", "bulk": {"_ge": 10, "_lt": 20}, "_select": ["id"]}`)
	if len(res.Rows) != 10 {
		t.Errorf("rows = %d, want 10", len(res.Rows))
	}
	if res.Stats.VerticesRead != rangeItems {
		t.Errorf("VerticesRead = %d, want %d (full type scan)", res.Stats.VerticesRead, rangeItems)
	}
	// Same selectivity through the index reads 10x fewer vertices.
	indexed := runRange(t, e, g, c, `{"_type": "item", "score": {"_ge": 10, "_lt": 20}, "_select": ["id"]}`)
	if indexed.Stats.VerticesRead != 10 {
		t.Errorf("indexed VerticesRead = %d, want 10", indexed.Stats.VerticesRead)
	}
}

func TestRangeWithResidualPredicates(t *testing.T) {
	// The non-range predicate still filters the index-served frontier.
	e, g, c := newRangeEnv(t)
	res := runRange(t, e, g, c,
		`{"_type": "item", "score": {"_ge": 10, "_lt": 30}, "label": "label.015", "_select": ["id"]}`)
	if len(res.Rows) != 1 {
		t.Errorf("rows = %d, want 1", len(res.Rows))
	}
	// Equality on an indexed field wins over the range when both exist.
	if res.Stats.VerticesRead > 20 {
		t.Errorf("VerticesRead = %d", res.Stats.VerticesRead)
	}
}

func TestRangeStartResidualExcludesScannedField(t *testing.T) {
	// An IndexRangeScan start consumes the field it scans, so the next
	// level's estimate applies the other predicates' selectivity: here the
	// unindexed bulk field's two bounds, not the scanned score bound.
	e, g, c := newRangeEnv(t)
	if err := g.CreateEdgeType(c, "next", nil); err != nil {
		t.Fatal(err)
	}
	err := farm.RunTransaction(c, e.store.Farm(), func(tx *farm.Tx) error {
		for i := 0; i+1 < rangeItems; i++ {
			a, _, err := g.LookupVertex(tx, "item", bond.String(fmt.Sprintf("item.%03d", i)))
			if err != nil {
				return err
			}
			b, _, err := g.LookupVertex(tx, "item", bond.String(fmt.Sprintf("item.%03d", i+1)))
			if err != nil {
				return err
			}
			if err := g.CreateEdge(tx, a, "next", b, bond.Null); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	res := runRange(t, e, g, c, `{"_type": "item", "bulk": {"_ge": 0, "_lt": 50}, "score": {"_lt": 10},
		"_out_edge": {"_type": "next", "_vertex": {"_select": ["_count(*)"]}}}`)
	lv := res.Stats.Levels
	if len(lv) != 2 || lv[0].Source != "IndexRangeScan(item.score)" {
		t.Fatalf("levels = %+v, want an IndexRangeScan(item.score) start and one hop", lv)
	}
	pc := newPlanContext(c, e, g)
	start, _ := pc.rangeRows("item", "score")
	want := roundEst(start * defaultRangeSel * defaultRangeSel * pc.fanout(&EdgePattern{Type: "next", Out: true}))
	if lv[1].EstRows != want {
		t.Errorf("hop estimate = %d, want %d (residual: the two bulk bounds)", lv[1].EstRows, want)
	}
}

func TestPreparedRangeParamsHitIndexPath(t *testing.T) {
	// Prepared queries with bound range parameters use the same B-tree
	// range scan as literal constants.
	e, g, c := newRangeEnv(t)
	p, err := e.Prepare(c, g, []byte(
		`{"_type": "item", "score": {"_ge": "$lo", "_lt": "$hi"}, "_select": ["id"]}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, bounds := range [][2]int{{10, 20}, {0, 5}, {90, 100}} {
		res, err := p.Exec(c, Params{"lo": bounds[0], "hi": bounds[1]})
		if err != nil {
			t.Fatal(err)
		}
		want := bounds[1] - bounds[0]
		if len(res.Rows) != want {
			t.Errorf("[%d,%d): rows = %d, want %d", bounds[0], bounds[1], len(res.Rows), want)
		}
		if res.Stats.VerticesRead != int64(want) {
			t.Errorf("[%d,%d): VerticesRead = %d, want %d (index range scan)",
				bounds[0], bounds[1], res.Stats.VerticesRead, want)
		}
		if res.Stats.PlanCacheHits != 1 {
			t.Errorf("PlanCacheHits = %d", res.Stats.PlanCacheHits)
		}
	}
}

func TestRangeBoundCoercion(t *testing.T) {
	// coerceRange unit coverage for the widening rules.
	mkSpec := func(lo bond.Value, loInc bool, hi bond.Value, hiInc bool) *rangeSpec {
		return &rangeSpec{field: "f", lo: lo, loInc: loInc, hi: hi, hiInc: hiInc}
	}
	// Fractional double onto int64: (9.5, 12.5) -> [10, 12].
	lo, loInc, hi, hiInc, ok, empty := coerceRange(mkSpec(bond.Double(9.5), false, bond.Double(12.5), false), bond.KindInt64)
	if !ok || empty || lo.AsInt() != 10 || !loInc || hi.AsInt() != 12 || !hiInc {
		t.Errorf("fractional coercion: lo=%v/%v hi=%v/%v ok=%v empty=%v", lo, loInc, hi, hiInc, ok, empty)
	}
	// Out-of-domain low bound on int32: > 2^40 is empty.
	_, _, _, _, ok, empty = coerceRange(mkSpec(bond.Int64(1<<40), false, bond.Null, false), bond.KindInt32)
	if !ok || !empty {
		t.Errorf("int32 overflow lo: ok=%v empty=%v, want served-empty", ok, empty)
	}
	// Out-of-domain high bound widens to unbounded, still served.
	_, _, hi, _, ok, empty = coerceRange(mkSpec(bond.Int64(5), true, bond.Int64(1<<40), false), bond.KindInt32)
	if !ok || empty || !hi.IsNull() {
		t.Errorf("int32 overflow hi: hi=%v ok=%v empty=%v", hi, ok, empty)
	}
	// Negative bound on uint64: lo drops (all uints match), hi empties.
	_, _, _, _, ok, empty = coerceRange(mkSpec(bond.Null, false, bond.Int64(-1), false), bond.KindUInt64)
	if !ok || !empty {
		t.Errorf("uint64 negative hi: ok=%v empty=%v", ok, empty)
	}
	// String bound on a numeric field cannot be served.
	_, _, _, _, ok, _ = coerceRange(mkSpec(bond.String("x"), true, bond.Null, false), bond.KindInt64)
	if ok {
		t.Error("string bound on int field served")
	}
	// Int64 onto double is exact below 2^53.
	lo, loInc, _, _, ok, empty = coerceRange(mkSpec(bond.Int64(7), false, bond.Null, false), bond.KindDouble)
	if !ok || empty || lo.AsFloat() != 7 || loInc {
		t.Errorf("int->double: lo=%v inc=%v ok=%v empty=%v", lo, loInc, ok, empty)
	}
}

func TestRangeBoundDomainEdgesMatchEvaluator(t *testing.T) {
	// Bounds at the domain edges coerce exactly, as bond.Compare orders
	// them: an int64 never reaches 2^63, MaxInt64 and MinInt64 are bounds
	// as written, and a double bound onto an int is stepped past the
	// nearest representable value only when it lies on the wrong side.
	mkSpec := func(lo bond.Value, loInc bool, hi bond.Value, hiInc bool) *rangeSpec {
		return &rangeSpec{field: "f", lo: lo, loInc: loInc, hi: hi, hiInc: hiInc}
	}
	edge := float64(math.MaxInt64) // rounds up to 2^63 exactly
	for _, inc := range []bool{true, false} {
		_, _, _, _, ok, empty := coerceRange(mkSpec(bond.Double(edge), inc, bond.Null, false), bond.KindInt64)
		if !ok || !empty {
			t.Errorf("ge/gt(%v) 2^63 on int64: ok=%v empty=%v, want served empty", inc, ok, empty)
		}
	}
	lo, loInc, _, _, ok, empty := coerceRange(mkSpec(bond.Int64(math.MaxInt64), true, bond.Null, false), bond.KindInt64)
	if !ok || empty || !loInc || lo.AsInt() != math.MaxInt64 {
		t.Errorf("ge MaxInt64 lo = %d/%v ok=%v empty=%v, want MaxInt64 inclusive", lo.AsInt(), loInc, ok, empty)
	}
	_, _, hi, hiInc, ok, empty := coerceRange(mkSpec(bond.Null, false, bond.Int64(math.MinInt64), true), bond.KindInt64)
	if !ok || empty || !hiInc || hi.AsInt() != math.MinInt64 {
		t.Errorf("le MinInt64 hi = %d/%v ok=%v empty=%v, want MinInt64 inclusive", hi.AsInt(), hiInc, ok, empty)
	}
	_, _, _, _, ok, empty = coerceRange(mkSpec(bond.Double(float64(math.MaxUint64)), true, bond.Null, false), bond.KindUInt64)
	if !ok || !empty {
		t.Errorf("ge 2^64 on uint64: ok=%v empty=%v, want served empty", ok, empty)
	}
	// An int above 2^53 onto a double: 2^53+1 lies between 2^53 and
	// 2^53+2, so gt becomes ge 2^53+2 and lt becomes le 2^53.
	lo, loInc, hi, hiInc, ok, empty = coerceRange(mkSpec(bond.Int64(1<<53+1), false, bond.Int64(1<<53+1), false), bond.KindDouble)
	if !ok || empty || lo.AsFloat() != 1<<53+2 || !loInc || hi.AsFloat() != 1<<53 || !hiInc {
		t.Errorf("2^53+1 onto double: lo=%v/%v hi=%v/%v ok=%v empty=%v", lo, loInc, hi, hiInc, ok, empty)
	}
}

// fuzzNumKinds are the numeric kinds FuzzCoerceBound draws constants and
// stored fields from.
var fuzzNumKinds = []bond.Kind{bond.KindInt32, bond.KindInt64, bond.KindDate, bond.KindUInt64, bond.KindFloat, bond.KindDouble}

// fuzzNum builds a value of kind k from raw bits.
func fuzzNum(k bond.Kind, bits uint64) bond.Value {
	switch k {
	case bond.KindInt32:
		return bond.Int32(int32(bits))
	case bond.KindUInt64:
		return bond.UInt64(bits)
	case bond.KindFloat:
		return bond.Float(math.Float32frombits(uint32(bits)))
	case bond.KindDouble:
		return bond.Double(math.Float64frombits(bits))
	}
	return intOfKind(k, int64(bits))
}

// FuzzCoerceBound is a differential check of range-bound coercion: for a
// constant of any numeric kind, a stored kind, an operator and its
// inclusivity, every probed stored value lies inside the coerced range
// exactly when the predicate accepts it under bond.Compare, and
// bond.Compare agrees with exactCmp (big.Float arithmetic, NaN above every
// number). The probes are the
// coerced bound, the kind's domain edges, zero and the constant's own
// conversion to the kind, each with both neighbours.
func FuzzCoerceBound(f *testing.F) {
	f.Add(byte(1), uint64(1<<53+1), byte(5), byte(0))                        // 2^53+1 > double
	f.Add(byte(5), math.Float64bits(1<<63), byte(1), byte(1))                // double 2^63 >= int64
	f.Add(byte(3), uint64(math.MaxUint64), byte(5), byte(3))                 // MaxUint64 <= double
	f.Add(byte(5), math.Float64bits(-0.5), byte(3), byte(2))                 // -0.5 < uint64
	f.Add(byte(5), math.Float64bits(1e300), byte(4), byte(3))                // 1e300 <= float
	f.Add(byte(1), uint64(1<<63), byte(0), byte(1))                          // MinInt64 >= int32
	f.Add(byte(5), math.Float64bits(math.NaN()), byte(5), byte(1))           // NaN >= double
	f.Add(byte(4), uint64(0xFFC00001), byte(1), byte(3))                     // float NaN <= int64
	f.Add(byte(5), math.Float64bits(math.Copysign(0, -1)), byte(4), byte(0)) // -0.0 > float
	f.Add(byte(5), math.Float64bits(math.Inf(1)), byte(5), byte(0))          // +Inf > double
	f.Fuzz(func(t *testing.T, ck byte, bits uint64, sk byte, op byte) {
		c := fuzzNum(fuzzNumKinds[int(ck)%len(fuzzNumKinds)], bits)
		k := fuzzNumKinds[int(sk)%len(fuzzNumKinds)]
		o := []Op{OpGt, OpGe, OpLt, OpLe}[op%4]
		spec := &rangeSpec{field: "f"}
		if o == OpGt || o == OpGe {
			spec.lo, spec.loInc = c, o == OpGe
		} else {
			spec.hi, spec.hiInc = c, o == OpLe
		}
		lo, loInc, hi, hiInc, ok, empty := coerceRange(spec, k)
		inside := func(x bond.Value) bool {
			switch {
			case empty:
				return false
			case !ok:
				return true // the bound admits the whole domain
			}
			if !lo.IsNull() {
				if cmp, _ := bond.Compare(x, lo); cmp < 0 || (cmp == 0 && !loInc) {
					return false
				}
			}
			if !hi.IsNull() {
				if cmp, _ := bond.Compare(x, hi); cmp > 0 || (cmp == 0 && !hiInc) {
					return false
				}
			}
			return true
		}
		if ok && !empty && (!lo.IsNull() && lo.Kind() != k || !hi.IsNull() && hi.Kind() != k) {
			t.Fatalf("%v %v onto %v: bounds %v/%v not of the stored kind", o, c, k, lo, hi)
		}
		min, max, _ := kindEdges(k)
		var probes []bond.Value
		for _, p := range []bond.Value{lo, hi, min, max, bond.Int64(0), c} {
			if p.IsNull() {
				continue
			}
			p = nearest(p, k)
			probes = append(probes, p, step(p, true), step(p, false))
		}
		for _, x := range probes {
			cmp, _ := bond.Compare(x, c)
			if want := exactCmp(x, c); cmp != want {
				t.Fatalf("bond.Compare(%v %v, %v %v) = %d, exact %d", x.Kind(), x, c.Kind(), c, cmp, want)
			}
			if got, want := inside(x), holds(o, cmp); got != want {
				t.Fatalf("%v %v onto %v: stored %v inside [%v/%v, %v/%v] ok=%v empty=%v is %v, predicate says %v",
					o, c, k, x, lo, loInc, hi, hiInc, ok, empty, got, want)
			}
		}
	})
}
