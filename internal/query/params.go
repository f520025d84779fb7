package query

import (
	"encoding/json"
	"slices"
	"sort"
	"strconv"

	"a1/internal/bond"
)

// Parameter binding: a parsed document may reference "$name" placeholders
// in `id`, predicate and `_having` constants, `_limit`/`_skip`, and
// `_recurse` `_min`/`_max`. Binding substitutes concrete values into a
// copy of the cached AST — the shared plan is never mutated, so one
// Prepared handle serves concurrent executions.

// Params maps parameter names to bind values. Values may be Go natives
// (string, bool, int, int64, float64, nil), json.Number, []interface{}, or
// bond.Value directly.
type Params map[string]interface{}

// bondParam converts one bind value to a Bond value.
func bondParam(name string, v interface{}) (bond.Value, error) {
	switch x := v.(type) {
	case bond.Value:
		return x, nil
	case int:
		return bond.Int64(int64(x)), nil
	case int64:
		return bond.Int64(x), nil
	case float64:
		return bond.Double(x), nil
	case nil, bool, string, json.Number, []interface{}:
		bv, err := jsonToBond(v)
		if err != nil {
			return bond.Null, paramError("parameter $%s: %v", name, err)
		}
		return bv, nil
	default:
		return bond.Null, paramError("parameter $%s: unsupported bind type %T", name, v)
	}
}

// Bind resolves the query's placeholders against params and returns an
// executable copy. Queries without placeholders are returned as-is (the
// cached AST is read-only at execution time). Missing and unreferenced
// parameters are both errors, so typos fail loudly.
func (q *Query) Bind(params Params) (*Query, error) { return q.bind(params, false) }

// bind with loose set resolves the placeholders present in params and
// leaves the rest unbound — the Explain path, where a partially-bound
// document must still render (absent names print as placeholders and
// estimate as average values). Names the document does not reference are
// ignored rather than rejected, and the result is NOT marked executable.
func (q *Query) bind(params Params, loose bool) (*Query, error) {
	if len(q.ParamNames) == 0 || (loose && len(params) == 0) {
		if len(params) > 0 && !loose {
			return nil, paramError("query declares no parameters, got %d bind values", len(params))
		}
		return q, nil
	}
	// Validate in sorted name order so the reported offender (bad value or
	// unknown parameter) is the same on every run (a1/maporder).
	names := make([]string, 0, len(params))
	for name := range params {
		names = append(names, name)
	}
	sort.Strings(names)
	vals := make(map[string]bond.Value, len(params))
	for _, name := range names {
		known := slices.Contains(q.ParamNames, name)
		if loose && !known {
			continue
		}
		bv, err := bondParam(name, params[name])
		if err != nil {
			return nil, err
		}
		if !known {
			return nil, paramError("unknown parameter $%s", name)
		}
		vals[name] = bv
	}
	return (&binder{vals: vals, loose: loose}).query(q)
}

// bindLits binds a plan-key shape's synthetic placeholders to one
// document's lifted literals: the result is the query Parse builds from
// that document (sharing the shape's plan), user placeholders unbound.
func (q *Query) bindLits(lits []bond.Value) (*Query, error) {
	return (&binder{lits: lits, loose: true}).query(q)
}

type binder struct {
	vals map[string]bond.Value
	lits []bond.Value // bound to the synthetic names "0", "1", ...
	// loose: a missing bind value leaves its placeholder in place instead
	// of failing (the Explain path).
	loose bool
	// seen, when set, records each user placeholder and binds nothing.
	seen map[string]bool
}

// query returns a copy of q with its patterns bound, executable unless
// loose. The compiled plan is structural (operator choices + predicate
// positions), so the copy reuses it as-is.
func (b *binder) query(q *Query) (*Query, error) {
	root, err := b.vertex(q.Root)
	if err != nil {
		return nil, err
	}
	return &Query{Root: root, Hints: q.Hints, ParamNames: q.ParamNames, fromCache: q.fromCache, bound: !b.loose, plan: q.plan}, nil
}

// lookup resolves the placeholder *name. A synthetic name binds its lifted
// literal and is erased, so the pattern reads as the document did before
// the plan key lifted it; in loose mode a missing user value reports
// ok=false instead of an error.
func (b *binder) lookup(name *string) (bond.Value, bool, error) {
	if b.seen != nil {
		if !isSynthetic(*name) {
			b.seen[*name] = true
		}
		return bond.Null, false, nil
	}
	if isSynthetic(*name) {
		if i, _ := strconv.Atoi(*name); i < len(b.lits) {
			*name = ""
			return b.lits[i], true, nil
		}
	} else if v, ok := b.vals[*name]; ok || b.loose {
		return v, ok, nil
	}
	return bond.Null, false, paramError("unbound parameter $%s", *name)
}

// bindCount binds the count placeholder *name, if set, into *dst if valid.
func (b *binder) bindCount(name *string, dst *int, valid func(param string, n int) error) error {
	param := *name
	if param == "" {
		return nil
	}
	v, ok, err := b.lookup(name)
	if !ok {
		return err
	}
	n, err := count(param, v)
	if err == nil {
		err = valid(param, n)
	}
	if err == nil {
		*dst = n
	}
	return err
}

// atLeast checks a bound count against its floor.
func atLeast(lo int, key string, fail func(string, ...interface{}) error) func(string, int) error {
	return func(param string, n int) error {
		if n < lo {
			return fail("parameter $%s: %s must be >= %d", param, key, lo)
		}
		return nil
	}
}

func (b *binder) vertex(vp *VertexPattern) (*VertexPattern, error) {
	if vp == nil {
		return nil, nil
	}
	out := *vp
	if vp.IDParam != "" {
		v, ok, err := b.lookup(&out.IDParam)
		if err != nil {
			return nil, err
		}
		if ok {
			if v.Kind() != bond.KindString {
				return nil, paramError("parameter $%s: id requires a string, got %v", vp.IDParam, v.Kind())
			}
			out.ID = v.AsString()
		}
	}
	if err := b.bindCount(&out.LimitParam, &out.Limit, atLeast(1, "_limit", paramError)); err != nil {
		return nil, err
	}
	if err := b.bindCount(&out.SkipParam, &out.Skip, atLeast(0, "_skip", paramError)); err != nil {
		return nil, err
	}
	var err error
	if vp.Recurse != nil {
		rp := *vp.Recurse
		if err := b.bindCount(&rp.MinParam, &rp.Min, atLeast(1, "_min", recurseError)); err != nil {
			return nil, err
		}
		if err := b.bindCount(&rp.MaxParam, &rp.Max, func(_ string, n int) error { return checkRecurseMax(n) }); err != nil {
			return nil, err
		}
		if rp.Max > 0 && rp.Min > rp.Max {
			return nil, recurseError("_min %d > _max %d", rp.Min, rp.Max)
		}
		if rp.Edge, err = b.edge(vp.Recurse.Edge); err != nil {
			return nil, err
		}
		out.Recurse = &rp
	}
	if out.Preds, err = bindAll(b, vp.Preds, func(p *Predicate) *comparison { return &p.comparison }); err != nil {
		return nil, err
	}
	if out.Having, err = bindAll(b, vp.Having, func(hp *HavingPred) *comparison { return &hp.comparison }); err != nil {
		return nil, err
	}
	if out.Edge, err = b.edge(vp.Edge); err != nil {
		return nil, err
	}
	if len(vp.Matches) > 0 {
		out.Matches = make([]*EdgePattern, len(vp.Matches))
		for i, m := range vp.Matches {
			if out.Matches[i], err = b.edge(m); err != nil {
				return nil, err
			}
		}
	}
	return &out, nil
}

func (b *binder) edge(ep *EdgePattern) (*EdgePattern, error) {
	if ep == nil {
		return nil, nil
	}
	out := *ep
	var err error
	if out.Preds, err = bindAll(b, ep.Preds, func(p *Predicate) *comparison { return &p.comparison }); err != nil {
		return nil, err
	}
	if out.Vertex, err = b.vertex(ep.Vertex); err != nil {
		return nil, err
	}
	return &out, nil
}

// bindAll returns a copy of list with each comparison (cmp of an element)
// bound to its placeholder's value.
func bindAll[T any](b *binder, list []T, cmp func(*T) *comparison) ([]T, error) {
	if len(list) == 0 {
		return list, nil
	}
	out := slices.Clone(list)
	for i := range out {
		c := cmp(&out[i])
		if c.Param == "" {
			continue
		}
		v, ok, err := b.lookup(&c.Param)
		if err != nil {
			return nil, err
		}
		if ok {
			c.Value = v
		}
	}
	return out, nil
}

// count converts the value bound to an integer placeholder.
func count(name string, v bond.Value) (int, error) {
	var n int64
	switch v.Kind() {
	case bond.KindInt32, bond.KindInt64:
		n = v.AsInt()
	case bond.KindUInt64:
		u := v.AsUint()
		if u > maxShapeCount {
			return 0, paramError("parameter $%s: must be <= %d", name, maxShapeCount)
		}
		n = int64(u)
	case bond.KindDouble, bond.KindFloat:
		f := v.AsFloat()
		n = int64(f)
		if f != float64(n) {
			return 0, paramError("parameter $%s: must be an integer", name)
		}
	default:
		return 0, paramError("parameter $%s: must be an integer, got %v", name, v.Kind())
	}
	if n > maxShapeCount {
		return 0, paramError("parameter $%s: must be <= %d", name, maxShapeCount)
	}
	return int(n), nil
}
