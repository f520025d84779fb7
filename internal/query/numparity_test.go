package query

import (
	"fmt"
	"math"
	"math/big"
	"slices"
	"strings"
	"testing"

	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/fabric"
	"a1/internal/farm"
)

// Cross-plan numeric parity: each numeric field has an unindexed twin
// holding the same values, so one query runs once through an index access
// path (IndexScan, IndexRangeScan, OrderedIndexScan, IndexFilter) and once
// through a type scan and sort. Both must return the exact answer, which a
// math/big oracle computes independently of bond.Compare, at the values
// float64 cannot tell apart (±2^53±1, ±2^63, MaxUint64), at −0.0, ±Inf
// and NaN, and with constants of another kind than the field's.

// numSchema: i (int64), u (uint64) and d (double) are secondary-indexed;
// ib, ub and db are their unindexed twins. grp groups for `_having`; h
// (double, indexed) is 3.0 on most vertices, a heavy hitter.
var numSchema = bond.MustSchema("num",
	bond.FReq(0, "id", bond.TString),
	bond.F(1, "i", bond.TInt64),
	bond.F(2, "ib", bond.TInt64),
	bond.F(3, "u", bond.TUInt64),
	bond.F(4, "ub", bond.TUInt64),
	bond.F(5, "d", bond.TDouble),
	bond.F(6, "db", bond.TDouble),
	bond.F(7, "grp", bond.TString),
	bond.F(8, "h", bond.TDouble),
)

const p53 = 1 << 53

// The stored values, one per vertex in order; a shorter column leaves the
// field missing on the remaining vertices.
var (
	numInts = []int64{math.MinInt64, math.MinInt64 + 1, -p53 - 1, -p53, -p53 + 1, -5, -1, 0, 3, 6,
		p53 - 1, p53, p53 + 1, p53 + 2, p53 + 3, p53 + 5, math.MaxInt64 - 1, math.MaxInt64}
	numUints = []uint64{0, 3, 6, p53 - 1, p53, p53 + 1, p53 + 3, 1<<63 - 1, 1 << 63, 1<<63 + 1,
		math.MaxUint64 - 1, math.MaxUint64}
	numDoubles = []float64{-1e300, -(1 << 63), -p53 - 2, -p53, -2.5, -1, 0, 2.5, 3, 6, p53, p53 + 2,
		1<<63 - 1024, 1 << 63, 1 << 64, 1e300, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
)

// numConsts are the predicate constants: int64, uint64 and double, on
// both sides of every stored edge value.
var numConsts = func() []bond.Value {
	var cs []bond.Value
	for _, n := range []int64{math.MinInt64, math.MinInt64 + 1, -p53 - 1, -p53 + 1, -1, 0, 3, 6,
		p53 - 1, p53 + 1, p53 + 3, p53 + 4, math.MaxInt64 - 1, math.MaxInt64} {
		cs = append(cs, bond.Int64(n))
	}
	for _, u := range []uint64{p53 + 1, 1 << 63, 1<<63 + 1, math.MaxUint64 - 1, math.MaxUint64} {
		cs = append(cs, bond.UInt64(u))
	}
	for _, f := range []float64{-1e300, -(1 << 64), -(1 << 63), -p53, -2.5, -0.5, 0.5, 2.5, 3, 3.5, 6,
		p53, p53 + 2, 1<<63 - 1024, 1 << 63, 1 << 64, 1e300, math.Copysign(0, -1), math.Inf(-1), math.Inf(1), math.NaN()} {
		cs = append(cs, bond.Double(f))
	}
	return cs
}()

func numIDs() []string {
	n := max(len(numInts), len(numUints), len(numDoubles))
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("num.%02d", i)
	}
	return ids
}

// numValue is vertex n's value of field f ("i", "u" or "d"; a twin reads
// its original's column), false when the vertex lacks it.
func numValue(f string, n int) (bond.Value, bool) {
	switch f[:1] {
	case "i":
		if n < len(numInts) {
			return bond.Int64(numInts[n]), true
		}
	case "u":
		if n < len(numUints) {
			return bond.UInt64(numUints[n]), true
		}
	case "d":
		if n < len(numDoubles) {
			return bond.Double(numDoubles[n]), true
		}
	}
	return bond.Null, false
}

// exactCmp is the oracle's order: NaN equals NaN and sorts above every
// other number; the rest compare as big.Float, which holds every int64,
// uint64 and float64 exactly (±Inf included, −0.0 equal to 0.0).
func exactCmp(a, b bond.Value) int {
	isNaN := func(v bond.Value) bool {
		return (v.Kind() == bond.KindFloat || v.Kind() == bond.KindDouble) && math.IsNaN(v.AsFloat())
	}
	switch an, bn := isNaN(a), isNaN(b); {
	case an && bn:
		return 0
	case an:
		return 1
	case bn:
		return -1
	}
	toBig := func(v bond.Value) *big.Float {
		x := new(big.Float)
		switch v.Kind() {
		case bond.KindUInt64:
			return x.SetUint64(v.AsUint())
		case bond.KindFloat, bond.KindDouble:
			return x.SetFloat64(v.AsFloat())
		}
		return x.SetInt64(v.AsInt())
	}
	return toBig(a).Cmp(toBig(b))
}

func newNumEnv(t *testing.T) (*Engine, *core.Graph, *fabric.Ctx) {
	t.Helper()
	fab := fabric.New(fabric.DefaultConfig(4, fabric.Direct), nil)
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
	if err := g.CreateVertexType(c, "num", numSchema, "id", "i", "u", "d", "h"); err != nil {
		t.Fatal(err)
	}
	if err := g.CreateVertexType(c, "hub", bond.MustSchema("hub", bond.FReq(0, "id", bond.TString)), "id"); err != nil {
		t.Fatal(err)
	}
	if err := g.CreateEdgeType(c, "to", nil); err != nil {
		t.Fatal(err)
	}
	err = farm.RunTransaction(c, f, func(tx *farm.Tx) error {
		hub, err := g.CreateVertex(tx, "hub", bond.Struct(bond.FV(0, bond.String("hub"))))
		if err != nil {
			return err
		}
		for n, id := range numIDs() {
			h := 3.0
			if n%4 == 0 {
				h = float64(n) + 0.5
			}
			fields := []bond.FieldValue{bond.FV(0, bond.String(id)), bond.FV(7, bond.String(fmt.Sprintf("g%d", n%3))), bond.FV(8, bond.Double(h))}
			for fid, f := range map[uint16]string{1: "i", 3: "u", 5: "d"} {
				if v, ok := numValue(f, n); ok {
					fields = append(fields, bond.FV(fid, v), bond.FV(fid+1, v))
				}
			}
			vp, err := g.CreateVertex(tx, "num", bond.Struct(fields...))
			if err != nil {
				return err
			}
			if err := g.CreateEdge(tx, hub, "to", vp, bond.Null); err != nil {
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

// numRun executes doc with $c bound to v (a Null v binds nothing),
// returning the result and its row ids in result order.
func numRun(t *testing.T, e *Engine, g *core.Graph, c *fabric.Ctx, doc string, v bond.Value) (*Result, []string) {
	t.Helper()
	p, err := e.Prepare(c, g, []byte(doc))
	if err != nil {
		t.Fatalf("%s: %v", doc, err)
	}
	var params Params
	if !v.IsNull() {
		params = Params{"c": v}
	}
	res, err := p.Exec(c, params)
	if err != nil {
		t.Fatalf("%s [$c=%v]: %v", doc, v, err)
	}
	ids := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		ids = append(ids, r.Values["id"].AsString())
	}
	return res, ids
}

func TestNumericParityAcrossPlans(t *testing.T) {
	e, g, c := newNumEnv(t)
	ids := numIDs()
	ops := []struct {
		name string
		op   Op
	}{{"_eq", OpEq}, {"_gt", OpGt}, {"_ge", OpGe}, {"_lt", OpLt}, {"_le", OpLe}}
	for _, f := range []string{"i", "u", "d"} {
		twin := f + "b"
		// The exact answers, in ascending key order.
		var keyed []int
		for n := range ids {
			if _, ok := numValue(f, n); ok {
				keyed = append(keyed, n)
			}
		}
		slices.SortFunc(keyed, func(a, b int) int {
			va, _ := numValue(f, a)
			vb, _ := numValue(f, b)
			return exactCmp(va, vb)
		})
		// Both plans return the exact answer: the same rows, and under
		// `_orderby` in the same order (without one, rows arrive in
		// frontier order, which differs by plan, so ids compare sorted).
		// Rows the oracle ties (−0.0 and 0.0) may sort either way round,
		// so an ordered answer matches want exactly except where both ids
		// hold the field with tied values, and the two plans must still
		// agree on the tie order. indexed, when set, tells an index-served
		// result from a scan.
		sameValues := func(a, b string) bool {
			if a == b {
				return true
			}
			na, nb := slices.Index(ids, a), slices.Index(ids, b)
			if na < 0 || nb < 0 {
				return false
			}
			va, okA := numValue(f, na)
			vb, okB := numValue(f, nb)
			return okA && okB && exactCmp(va, vb) == 0
		}
		check := func(doc string, cv bond.Value, want []string, indexed func(*Result) bool) {
			t.Helper()
			res, got := numRun(t, e, g, c, fmt.Sprintf(doc, f), cv)
			resTwin, gotTwin := numRun(t, e, g, c, fmt.Sprintf(doc, twin), cv)
			exact := slices.EqualFunc(got, want, sameValues)
			if !strings.Contains(doc, "_orderby") {
				slices.Sort(got)
				slices.Sort(gotTwin)
				exact = slices.Equal(got, want)
			}
			if indexed != nil && (!indexed(res) || indexed(resTwin)) {
				t.Errorf("%s [$c=%v]: levels %+v / %+v, index-filtered %d / %d, want index / scan",
					fmt.Sprintf(doc, f), cv, res.Stats.Levels, resTwin.Stats.Levels, res.Stats.IndexFiltered, resTwin.Stats.IndexFiltered)
			}
			if !slices.Equal(got, gotTwin) || !exact {
				t.Errorf("%s [$c=%v]:\n index %v\n scan  %v\n want  %v", fmt.Sprintf(doc, f), cv, got, gotTwin, want)
			}
		}
		rootSource := func(prefix string) func(*Result) bool {
			return func(res *Result) bool { return strings.HasPrefix(res.Stats.Levels[0].Source, prefix) }
		}
		for _, cv := range numConsts {
			for _, o := range ops {
				var want []string
				for n := range ids {
					if v, ok := numValue(f, n); ok && holds(o.op, exactCmp(v, cv)) {
						want = append(want, ids[n])
					}
				}
				pred := fmt.Sprintf(`{%q: "$c"}`, o.name)
				if o.op == OpEq {
					pred = `"$c"`
				}
				// Root: IndexScan or IndexRangeScan against TypeScan, and
				// at a traversal level the IndexFilter, which drops every
				// non-matching vertex unread, against plain reads. A range
				// admitting every value needs no index bound, and one
				// admitting none is served empty on either field.
				rootIndexed, levelIndexed := rootSource("Index"), func(res *Result) bool {
					return res.Stats.IndexFiltered == int64(len(ids)-len(want))
				}
				if o.op != OpEq && len(want) == len(keyed) {
					rootIndexed, levelIndexed = nil, nil
				}
				if o.op != OpEq && len(want) == 0 {
					levelIndexed = nil
				}
				check(`{"_type": "num", "%s": `+pred+`, "_select": ["id"]}`, cv, want, rootIndexed)
				check(`{"_type": "hub", "id": "hub", "_out_edge": {"_type": "to", "_vertex": {"_type": "num", "%s": `+pred+`, "_select": ["id"]}}}`,
					cv, want, levelIndexed)
			}
			// Ordered top-K bounded by a range predicate: OrderedIndexScan
			// against the sort path.
			for _, desc := range []bool{false, true} {
				var want []string
				for _, n := range keyed {
					if v, _ := numValue(f, n); exactCmp(v, cv) >= 0 {
						want = append(want, ids[n])
					}
				}
				sign := ""
				if desc {
					sign = "-"
					slices.Reverse(want)
				}
				want = want[:min(3, len(want))]
				check(`{"_type": "num", "%[1]s": {"_ge": "$c"}, "_orderby": "`+sign+`%[1]s", "_limit": 3, "_select": ["id"]}`,
					cv, want, nil)
			}
		}
		// Unbounded ordered top-K: OrderedIndexScan against the sort.
		for _, desc := range []bool{false, true} {
			order := slices.Clone(keyed)
			sign := ""
			if desc {
				sign = "-"
				slices.Reverse(order)
			}
			var want []string
			for _, n := range order[:5] {
				want = append(want, ids[n])
			}
			check(`{"_type": "num", "_orderby": "`+sign+`%s", "_limit": 5, "_select": ["id"]}`, bond.Null, want,
				rootSource("OrderedIndexScan"))
		}
		// _min/_max equal the exact extremes on both fields.
		lo, _ := numValue(f, keyed[0])
		hi, _ := numValue(f, keyed[len(keyed)-1])
		for _, fld := range []string{f, twin} {
			doc := fmt.Sprintf(`{"_type": "num", "_select": ["_min(%[1]s)", "_max(%[1]s)"]}`, fld)
			res, err := e.Execute(c, g, []byte(doc))
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Aggregates["_min("+fld+")"]; !got.Equal(lo) {
				t.Errorf("_min(%s) = %v, want %v", fld, got, lo)
			}
			if got := res.Aggregates["_max("+fld+")"]; !got.Equal(hi) {
				t.Errorf("_max(%s) = %v, want %v", fld, got, hi)
			}
		}
		// _groupby: a group holds every vertex whose value the oracle ties
		// with its key, so −0.0 and 0.0 share one group, as they share
		// `"d": 0.0`'s rows; vertices lacking the field group under null.
		for _, fld := range []string{f, twin} {
			doc := fmt.Sprintf(`{"_type": "num", "_groupby": %q, "_select": ["_count(*)"]}`, fld)
			res, err := e.Execute(c, g, []byte(doc))
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			for _, gr := range res.Groups {
				key, want := gr.Keys[fld], int64(0)
				for n := range ids {
					if v, ok := numValue(f, n); ok != key.IsNull() && (!ok || exactCmp(v, key) == 0) {
						want++
					}
				}
				if got := gr.Aggregates["_count(*)"].AsInt(); got != want {
					t.Errorf("%s: group %v counts %d, want %d", doc, key, got, want)
				}
				total += int(want)
			}
			if total != len(ids) {
				t.Errorf("%s: groups %+v cover %d of %d vertices", doc, res.Groups, total, len(ids))
			}
		}
		// _having on _max: per-group exact maxima against every constant.
		groupMax := map[string]bond.Value{}
		for n := range ids {
			v, ok := numValue(f, n)
			grp := fmt.Sprintf("g%d", n%3)
			if m, seen := groupMax[grp]; ok && (!seen || exactCmp(v, m) > 0) {
				groupMax[grp] = v
			}
		}
		for _, cv := range numConsts {
			for _, o := range ops[1:] {
				var want []string
				for _, grp := range []string{"g0", "g1", "g2"} {
					if holds(o.op, exactCmp(groupMax[grp], cv)) {
						want = append(want, grp)
					}
				}
				for _, fld := range []string{f, twin} {
					doc := fmt.Sprintf(`{"_type": "num", "_groupby": "grp", "_select": ["_max(%[1]s)"], "_having": {"_max(%[1]s)": {%[2]q: "$c"}}}`, fld, o.name)
					res, _ := numRun(t, e, g, c, doc, cv)
					var got []string
					for _, gr := range res.Groups {
						got = append(got, gr.Keys["grp"].AsString())
					}
					if !slices.Equal(got, want) {
						t.Errorf("%s [$c=%v]: groups %v, want %v", doc, cv, got, want)
					}
				}
			}
		}
	}
}

// TestEqEstimateCoercesConstant: the planner estimates an equality
// predicate with its constant coerced to the field's kind, as the index
// probes it, so `"h": 3` finds the heavy hitter `"h": 3.0` does, and a
// constant no value of the field's kind equals estimates no rows.
func TestEqEstimateCoercesConstant(t *testing.T) {
	e, g, c := newNumEnv(t)
	est := func(f string, v bond.Value) int64 {
		t.Helper()
		res, _ := numRun(t, e, g, c, fmt.Sprintf(`{"_type": "num", %q: "$c", "_select": ["id"]}`, f), v)
		return res.Stats.Levels[0].EstRows
	}
	for _, tc := range []struct {
		f         string
		v, asKind bond.Value
	}{
		{"h", bond.Int64(3), bond.Double(3)},
		{"d", bond.Int64(3), bond.Double(3)},
		{"d", bond.UInt64(1 << 63), bond.Double(1 << 63)},
		{"i", bond.Double(6), bond.Int64(6)},
		{"i", bond.UInt64(p53 + 1), bond.Int64(p53 + 1)},
		{"u", bond.Double(p53), bond.UInt64(p53)},
	} {
		if got, want := est(tc.f, tc.v), est(tc.f, tc.asKind); got != want || want == 0 {
			t.Errorf("%s = %v: EstRows %d, want %d (as %v)", tc.f, tc.v, got, want, tc.asKind)
		}
	}
	for _, tc := range []struct {
		f string
		v bond.Value
	}{
		{"d", bond.Int64(p53 + 1)},
		{"i", bond.Double(6.5)},
		{"i", bond.UInt64(math.MaxUint64)},
		{"u", bond.Int64(-1)},
	} {
		if got := est(tc.f, tc.v); got != 0 {
			t.Errorf("%s = %v: EstRows %d, want 0 (no value of the field's kind equals it)", tc.f, tc.v, got)
		}
	}
}
