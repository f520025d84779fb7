package query

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"a1/internal/bond"
)

// The A1QL grammar: the walk from a decoded JSON document to its pattern
// tree, one object member at a time.

func parseVertexPattern(raw map[string]interface{}, depth int) (*VertexPattern, error) {
	if depth > maxDepth {
		return nil, errors.New("a1ql: traversal too deep")
	}
	vp := &VertexPattern{}
	for _, k := range sortedKeys(raw) {
		v := raw[k]
		switch k {
		case keyID:
			if name, ok, err := placeholder(v); err != nil {
				return nil, err
			} else if ok {
				vp.IDParam = name
				continue
			}
			s, ok := v.(string)
			if !ok {
				return nil, errors.New("a1ql: id must be a string")
			}
			vp.ID = unescapeParam(s)
		case keyType:
			s, ok := v.(string)
			if !ok {
				return nil, errors.New("a1ql: _type must be a string")
			}
			vp.Type = s
		case keyOutEdge, keyInEdge:
			if vp.Edge != nil {
				return nil, errors.New("a1ql: a level may traverse a single edge pattern")
			}
			var err error
			if vp.Edge, err = parseEdgeMember(k, v, depth); err != nil {
				return nil, err
			}
		case keyRecurse:
			rm, ok := v.(map[string]interface{})
			if !ok {
				return nil, errors.New("a1ql: _recurse must be an object")
			}
			rp, err := parseRecurse(rm, depth)
			if err != nil {
				return nil, err
			}
			vp.Recurse = rp
		case keySelect:
			list, ok := v.([]interface{})
			if !ok {
				return nil, errors.New("a1ql: _select must be a list")
			}
			for _, item := range list {
				s, ok := item.(string)
				if !ok {
					return nil, errors.New("a1ql: _select entries must be strings")
				}
				agg, isAgg, err := parseAggSelect(s)
				if err != nil {
					return nil, err
				}
				if isAgg {
					vp.Aggs = append(vp.Aggs, agg)
					if agg.Kind == AggCount {
						vp.Count = true
					}
					continue
				}
				fp, err := parseFieldPath(s)
				if err != nil {
					return nil, err
				}
				vp.Selects = append(vp.Selects, fp)
			}
		case keyLimit:
			n, param, err := parseCount(k, v)
			if err == nil && param == "" && n < 1 {
				err = errors.New("a1ql: _limit must be >= 1")
			}
			if err != nil {
				return nil, err
			}
			vp.Limit, vp.LimitParam = n, param
		case keySkip:
			n, param, err := parseCount(k, v)
			if err == nil && n < 0 {
				err = errors.New("a1ql: _skip must be >= 0")
			}
			if err != nil {
				return nil, err
			}
			vp.Skip, vp.SkipParam = n, param
		case keyOrderBy:
			obs, err := parseOrderBy(v)
			if err != nil {
				return nil, err
			}
			vp.Orders = obs
		case keyGroupBy:
			gb, err := parseGroupBy(v)
			if err != nil {
				return nil, err
			}
			vp.GroupBy = gb
		case keyHaving:
			hps, err := parseHaving(v)
			if err != nil {
				return nil, err
			}
			vp.Having = hps
		case keyMatch:
			list, ok := v.([]interface{})
			if !ok {
				return nil, errors.New("a1ql: _match must be a list")
			}
			for _, item := range list {
				mm, ok := item.(map[string]interface{})
				if !ok {
					return nil, errors.New("a1ql: _match entries must be objects")
				}
				ep, err := parseMatchEntry(mm, depth)
				if err != nil {
					return nil, err
				}
				vp.Matches = append(vp.Matches, ep)
			}
		default:
			preds, err := parsePredicate(k, v)
			if err != nil {
				return nil, err
			}
			vp.Preds = append(vp.Preds, preds...)
		}
	}
	return vp, nil
}

func parseMatchEntry(raw map[string]interface{}, depth int) (*EdgePattern, error) {
	if len(raw) != 1 {
		return nil, errors.New("a1ql: _match entry must contain exactly one edge pattern")
	}
	k := sortedKeys(raw)[0]
	if k != keyOutEdge && k != keyInEdge {
		return nil, fmt.Errorf("a1ql: _match entry key %q must be _out_edge or _in_edge", k)
	}
	return parseEdgeMember(k, raw[k], depth)
}

// parseEdgeMember parses an `_out_edge` or `_in_edge` member's value.
func parseEdgeMember(k string, v interface{}, depth int) (*EdgePattern, error) {
	em, ok := v.(map[string]interface{})
	if !ok {
		return nil, fmt.Errorf("a1ql: %s must be an object", k)
	}
	return parseEdgePattern(em, k == keyOutEdge, depth)
}

func parseEdgePattern(raw map[string]interface{}, out bool, depth int) (*EdgePattern, error) {
	ep := &EdgePattern{Out: out}
	for _, k := range sortedKeys(raw) {
		v := raw[k]
		switch k {
		case keyType:
			s, ok := v.(string)
			if !ok {
				return nil, errors.New("a1ql: edge _type must be a string")
			}
			ep.Type = s
		case keyVertex:
			vm, ok := v.(map[string]interface{})
			if !ok {
				return nil, errors.New("a1ql: _vertex must be an object")
			}
			vp, err := parseVertexPattern(vm, depth+1)
			if err != nil {
				return nil, err
			}
			ep.Vertex = vp
		default:
			preds, err := parsePredicate(k, v)
			if err != nil {
				return nil, err
			}
			ep.Preds = append(ep.Preds, preds...)
		}
	}
	if ep.Type == "" {
		return nil, errors.New("a1ql: edge pattern requires _type")
	}
	return ep, nil
}

// parseRecurse parses the `_recurse` object. The bound keys (`_min`,
// `_max`, `_dir`, `_shortest`) are consumed here; everything else —
// `_type`, `_vertex`, edge predicates — parses as the edge pattern the
// expansion follows. `_max` is required; `_min` defaults to 1; `_dir`
// defaults to "out".
func parseRecurse(raw map[string]interface{}, depth int) (*RecursePattern, error) {
	rp := &RecursePattern{Min: 1}
	out := true
	sawMax := false
	em := make(map[string]interface{}, len(raw))
	for _, k := range sortedKeys(raw) {
		v := raw[k]
		switch k {
		case keyMin:
			n, param, err := parseCount(k, v)
			if err == nil && param == "" && n < 1 {
				err = recurseError("_min must be >= 1")
			}
			if err != nil {
				return nil, err
			}
			rp.Min, rp.MinParam = n, param
		case keyMax:
			sawMax = true
			n, param, err := parseCount(k, v)
			if err == nil && param == "" {
				err = checkRecurseMax(n)
			}
			if err != nil {
				return nil, err
			}
			rp.Max, rp.MaxParam = n, param
		case keyDir:
			s, ok := v.(string)
			if !ok || (s != "out" && s != "in") {
				return nil, recurseError(`_dir must be "out" or "in"`)
			}
			out = s == "out"
		case keyShortest:
			b, ok := v.(bool)
			if !ok {
				return nil, recurseError("_shortest must be a boolean")
			}
			rp.Shortest = b
		default:
			em[k] = v
		}
	}
	if !sawMax {
		return nil, recurseError("requires _max")
	}
	ep, err := parseEdgePattern(em, out, depth)
	if err != nil {
		return nil, err
	}
	rp.Edge = ep
	if rp.MinParam == "" && rp.MaxParam == "" && rp.Min > rp.Max {
		return nil, recurseError("_min %d > _max %d", rp.Min, rp.Max)
	}
	return rp, nil
}

// checkRecurseMax bounds a `_max` value (static or bound), shared by the
// parser and the binder.
func checkRecurseMax(n int) error {
	if n < 1 {
		return recurseError("_max must be >= 1")
	}
	if n > maxDepth {
		return recurseError("_max %d exceeds the depth cap %d", n, maxDepth)
	}
	return nil
}

// maxShapeCount bounds _limit and _skip: large enough for any real page,
// small enough that Limit+Skip (and 2x it) never overflows int.
const maxShapeCount = 1 << 30

// parseCount extracts a small integer (_limit/_skip/_min/_max), or the
// name of the placeholder standing for one.
func parseCount(key string, v interface{}) (int, string, error) {
	if name, ok, err := placeholder(v); err != nil || ok {
		return 0, name, err
	}
	num, ok := v.(json.Number)
	if !ok {
		return 0, "", fmt.Errorf("a1ql: %s must be an integer", key)
	}
	n, err := num.Int64()
	if err != nil {
		return 0, "", fmt.Errorf("a1ql: %s must be an integer: %v", key, err)
	}
	if n > maxShapeCount {
		return 0, "", fmt.Errorf("a1ql: %s must be <= %d", key, maxShapeCount)
	}
	return int(n), "", nil
}

// parseAggSelect recognizes `_select` aggregate entries: "_count(*)",
// "_sum(field)", "_min(field)", "_max(field)", "_avg(field)". A leading
// underscore with parentheses must be a known aggregate; anything else is a
// plain field path.
func parseAggSelect(s string) (Aggregate, bool, error) {
	open := strings.IndexByte(s, '(')
	if !strings.HasPrefix(s, "_") || open < 0 || !strings.HasSuffix(s, ")") {
		return Aggregate{}, false, nil
	}
	kind, ok := aggNames[s[:open]]
	if !ok {
		return Aggregate{}, false, fmt.Errorf("a1ql: unknown aggregate %q", s[:open])
	}
	inner := s[open+1 : len(s)-1]
	agg := Aggregate{Kind: kind, Raw: s}
	if kind == AggCount {
		if inner != "*" {
			return Aggregate{}, false, errors.New("a1ql: _count takes (*)")
		}
		return agg, true, nil
	}
	fp, err := parseFieldPath(inner)
	if err != nil {
		return Aggregate{}, false, err
	}
	if fp.Wildcard {
		return Aggregate{}, false, fmt.Errorf("a1ql: %s requires a field, not (*)", s[:open])
	}
	agg.Path = fp
	return agg, true, nil
}

// parseOrderBy accepts `"_orderby": "field"`, `"_orderby": "-field"`
// (descending), `"_orderby": {"field": "...", "dir": "asc"|"desc"}`, or a
// list of those forms (multi-key ordering, most-significant key first).
func parseOrderBy(v interface{}) ([]OrderBy, error) {
	if list, ok := v.([]interface{}); ok {
		if len(list) == 0 {
			return nil, errors.New("a1ql: _orderby list must not be empty")
		}
		var obs []OrderBy
		for _, item := range list {
			if _, nested := item.([]interface{}); nested {
				return nil, errors.New("a1ql: _orderby list entries must be strings or objects")
			}
			ob, err := parseOrderKey(item)
			if err != nil {
				return nil, err
			}
			obs = append(obs, ob)
		}
		return obs, nil
	}
	ob, err := parseOrderKey(v)
	if err != nil {
		return nil, err
	}
	return []OrderBy{ob}, nil
}

// parseOrderKey parses one sort key (string or object form).
func parseOrderKey(v interface{}) (OrderBy, error) {
	switch x := v.(type) {
	case string:
		ob := OrderBy{}
		if strings.HasPrefix(x, "-") {
			ob.Desc = true
			x = x[1:]
		}
		if isAggKey(x) {
			// Aggregate column key ("_count(*)", "_sum(f[k])"): kept
			// verbatim — validation resolves it against the _select
			// aggregates (and rejects it without _groupby).
			ob.Path = FieldPath{Raw: x, Field: x, ListIdx: -1}
			return ob, nil
		}
		fp, err := parseFieldPath(x)
		if err != nil {
			return ob, err
		}
		if fp.Wildcard || fp.Field == "" {
			return ob, errors.New("a1ql: _orderby requires a field")
		}
		ob.Path = fp
		return ob, nil
	case map[string]interface{}:
		field, ok := x["field"].(string)
		if !ok || field == "" {
			return OrderBy{}, errors.New("a1ql: _orderby object requires a \"field\" string")
		}
		fp, err := parseFieldPath(field)
		if err != nil {
			return OrderBy{}, err
		}
		if fp.Wildcard {
			return OrderBy{}, errors.New("a1ql: _orderby requires a field")
		}
		ob := OrderBy{Path: fp}
		if dir, ok := x["dir"]; ok {
			switch dir {
			case "asc":
			case "desc":
				ob.Desc = true
			default:
				return OrderBy{}, fmt.Errorf("a1ql: _orderby dir %v must be \"asc\" or \"desc\"", dir)
			}
		}
		for _, k := range sortedKeys(x) {
			if k != "field" && k != "dir" {
				return OrderBy{}, fmt.Errorf("a1ql: unknown _orderby key %q", k)
			}
		}
		return ob, nil
	default:
		return OrderBy{}, errors.New("a1ql: _orderby must be a string, an object, or a list of those")
	}
}

// parseGroupBy accepts `"_groupby": "field"` or a list of field paths.
func parseGroupBy(v interface{}) ([]FieldPath, error) {
	items, ok := v.([]interface{})
	if !ok {
		items = []interface{}{v}
	}
	if len(items) == 0 {
		return nil, errors.New("a1ql: _groupby list must not be empty")
	}
	var paths []FieldPath
	for _, item := range items {
		s, ok := item.(string)
		if !ok {
			return nil, errors.New("a1ql: _groupby entries must be field paths")
		}
		fp, err := parseFieldPath(s)
		if err != nil {
			return nil, err
		}
		if fp.Wildcard || fp.Field == "" {
			return nil, errors.New("a1ql: _groupby requires a field")
		}
		paths = append(paths, fp)
	}
	return paths, nil
}

// parseHaving turns `"_having": {"_count(*)": {"_ge": 2}, ...}` into
// aggregate predicates. Like field predicates, a direct constant means
// equality and an operator object carries one comparison per key; the
// aggregate-column keys resolve against the `_select` aggregates at
// validation time.
func parseHaving(v interface{}) ([]HavingPred, error) {
	obj, ok := v.(map[string]interface{})
	if !ok {
		return nil, errors.New("a1ql: _having must be an object")
	}
	if len(obj) == 0 {
		return nil, errors.New("a1ql: _having must not be empty")
	}
	var hps []HavingPred
	for _, aggKey := range sortedKeys(obj) {
		if err := comparisons(obj[aggKey], func(op Op, constant interface{}) error {
			// Aggregate values are compared, never prefix-matched, and
			// prefix comparisons admit no pushdown proof.
			if op == OpPrefix {
				return errors.New("a1ql: _having does not support _prefix")
			}
			c, err := parseComparison(op, constant)
			hps = append(hps, HavingPred{Raw: aggKey, AggIdx: -1, comparison: c})
			return err
		}); err != nil {
			return nil, err
		}
	}
	return hps, nil
}

// comparisons calls f for each comparison a predicate value makes: one
// per key of an operator object, or equality with a bare constant.
func comparisons(v interface{}, f func(op Op, constant interface{}) error) error {
	obj, ok := v.(map[string]interface{})
	if !ok {
		return f(OpEq, v)
	}
	for _, name := range sortedKeys(obj) {
		op, ok := opNames[name]
		if !ok {
			return fmt.Errorf("a1ql: unknown operator %q", name)
		}
		if err := f(op, obj[name]); err != nil {
			return err
		}
	}
	return nil
}

// parsePredicate turns `"field": constant` or `"field": {"_gt": constant}`
// into predicates. A constant of the form "$name" is a parameter
// placeholder bound at execution time.
func parsePredicate(key string, v interface{}) ([]Predicate, error) {
	fp, err := parseFieldPath(key)
	if err != nil {
		return nil, err
	}
	var preds []Predicate
	err = comparisons(v, func(op Op, constant interface{}) error {
		c, err := parseComparison(op, constant)
		preds = append(preds, Predicate{Path: fp, comparison: c})
		return err
	})
	if err != nil {
		return nil, err
	}
	return preds, nil
}

// parseComparison builds one comparison from a JSON constant, recognizing
// parameter placeholders.
func parseComparison(op Op, constant interface{}) (comparison, error) {
	c := comparison{Op: op}
	if name, ok, err := placeholder(constant); err != nil || ok {
		c.Param = name
		return c, err
	}
	if s, ok := constant.(string); ok {
		constant = unescapeParam(s)
	}
	var err error
	c.Value, err = jsonToBond(constant)
	return c, err
}

// jsonToBond converts a JSON constant to a Bond value.
func jsonToBond(v interface{}) (bond.Value, error) {
	switch x := v.(type) {
	case nil:
		return bond.Null, nil
	case bool:
		return bond.Bool(x), nil
	case string:
		return bond.String(x), nil
	case json.Number:
		if i, err := x.Int64(); err == nil {
			return bond.Int64(i), nil
		}
		f, err := x.Float64()
		if err != nil {
			return bond.Null, err
		}
		return bond.Double(f), nil
	case []interface{}:
		elems := make([]bond.Value, 0, len(x))
		for _, e := range x {
			ev, err := jsonToBond(e)
			if err != nil {
				return bond.Null, err
			}
			elems = append(elems, ev)
		}
		return bond.List(elems...), nil
	default:
		return bond.Null, fmt.Errorf("a1ql: unsupported constant %T", v)
	}
}
