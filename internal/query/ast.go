// Package query implements A1QL and its distributed execution engine
// (paper §3.4): queries are JSON documents whose nested structure describes
// a traversal; the backend that receives a query becomes its coordinator,
// picks a snapshot timestamp, and drives per-hop execution by shipping
// batched operators (predicate evaluation, edge enumeration) to the
// machines hosting the vertices, falling back to one-sided reads for small
// batches. Results are deduplicated, repartitioned per hop, and paged back
// to clients with continuation tokens.
package query

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"

	"a1/internal/bond"
)

// Reserved A1QL keys.
const (
	keyID      = "id"
	keyType    = "_type"
	keyOutEdge = "_out_edge"
	keyInEdge  = "_in_edge"
	keyVertex  = "_vertex"
	keySelect  = "_select"
	keyMatch   = "_match"
	keyHints   = "_hints"
	keyLimit   = "_limit"
	keySkip    = "_skip"
	keyOrderBy = "_orderby"
	keyGroupBy = "_groupby"
	keyHaving  = "_having"

	// `_recurse` and its object-local sub-keys.
	keyRecurse  = "_recurse"
	keyMin      = "_min"
	keyMax      = "_max"
	keyDir      = "_dir"
	keyShortest = "_shortest"
)

// Op is a predicate comparison operator.
type Op int

const (
	OpEq Op = iota
	OpNe
	OpGt
	OpGe
	OpLt
	OpLe
	OpPrefix // strings only; an A1QL extension
)

var opNames = map[string]Op{
	"_ne": OpNe, "_gt": OpGt, "_ge": OpGe, "_lt": OpLt, "_le": OpLe, "_prefix": OpPrefix,
}

// FieldPath addresses an attribute inside a vertex or edge value:
// "origin", "name[0]" (list index), "str_str_map[character]" (map key).
type FieldPath struct {
	Field    string
	MapKey   string
	ListIdx  int
	IsMap    bool
	IsList   bool
	Raw      string
	Wildcard bool // "*": the whole value
}

// plain reports whether the path names a top-level field as a whole — the
// only shape a secondary index serves.
func (fp FieldPath) plain() bool { return !fp.IsMap && !fp.IsList && !fp.Wildcard }

// parseFieldPath parses a select/predicate path.
func parseFieldPath(s string) (FieldPath, error) {
	fp := FieldPath{Raw: s, ListIdx: -1}
	if s == "*" {
		fp.Wildcard = true
		return fp, nil
	}
	open := strings.IndexByte(s, '[')
	if open < 0 {
		fp.Field = s
		return fp, nil
	}
	if !strings.HasSuffix(s, "]") || open == 0 {
		return fp, fmt.Errorf("a1ql: bad field path %q", s)
	}
	fp.Field = s[:open]
	inner := s[open+1 : len(s)-1]
	if idx, err := strconv.Atoi(inner); err == nil {
		fp.IsList = true
		fp.ListIdx = idx
	} else {
		fp.IsMap = true
		fp.MapKey = inner
	}
	return fp, nil
}

// Predicate compares an attribute against a constant. Param, when set,
// names the "$param" placeholder the constant is bound from at execution
// time (Value is zero until then).
type Predicate struct {
	Path  FieldPath
	Op    Op
	Value bond.Value
	Param string
}

// AggKind is a terminal aggregate function.
type AggKind int

const (
	AggCount AggKind = iota // _count(*)
	AggSum                  // _sum(field)
	AggMin                  // _min(field)
	AggMax                  // _max(field)
	AggAvg                  // _avg(field)
)

var aggNames = map[string]AggKind{
	"_count": AggCount, "_sum": AggSum, "_min": AggMin, "_max": AggMax, "_avg": AggAvg,
}

// Aggregate is one `_select` aggregate over the terminal result set. Raw is
// the select entry verbatim and keys the aggregate's value in the Result.
type Aggregate struct {
	Kind AggKind
	Path FieldPath // unused for AggCount
	Raw  string
}

// HavingPred is one `_having` entry: a `_select` aggregate column compared
// against a constant (or a "$param" placeholder bound at execution time).
// Raw is the `_having` key verbatim — the full aggregate entry
// ("_count(*)") or the bare function name when unambiguous ("_count") —
// and AggIdx the Aggs column it resolved to at validation time.
type HavingPred struct {
	Raw    string
	AggIdx int
	Op     Op
	Value  bond.Value
	Param  string
}

// OrderBy is one `_orderby` sort key. A query may carry several keys
// (multi-key ordering); rows compare key by key, ties falling through to
// the next.
type OrderBy struct {
	Path FieldPath
	Desc bool
}

// EdgePattern describes one traversal step.
type EdgePattern struct {
	Type   string // required edge type name
	Out    bool   // direction
	Preds  []Predicate
	Vertex *VertexPattern
}

// RecursePattern is a bounded-depth recursive traversal: expand the level's
// frontier along Edge repeatedly, between Min and Max hops, with a
// per-machine visited set deduplicating re-entries so the cost tracks the
// reachable set, not the path count. Edge carries the label, direction, and
// edge predicates (which prune the traversal); Edge.Vertex is the recursion
// terminal — its type and predicates filter which visited vertices become
// output rows, without pruning the expansion itself.
type RecursePattern struct {
	Edge *EdgePattern
	Min  int // fewest hops before a vertex is emitted (>= 1)
	Max  int // expansion bound (<= maxDepth)
	// Shortest adds a per-row `_hops` column: the hop distance at first
	// visit, which breadth-first expansion makes the shortest.
	Shortest bool

	// "$param" placeholders bound at execution time.
	MinParam string
	MaxParam string
}

// HopsColumn keys the synthetic per-row hop-distance value `_shortest`
// emits.
const HopsColumn = "_hops"

// VertexPattern is one level of the traversal.
type VertexPattern struct {
	ID      string // primary key lookup rooting the level
	Type    string // vertex type constraint (and index choice)
	Preds   []Predicate
	Edge    *EdgePattern    // the single chained traversal step
	Recurse *RecursePattern // _recurse: bounded-depth frontier expansion
	Matches []*EdgePattern  // _match: existence subpatterns (star queries)
	Selects []FieldPath     // _select projections
	Count   bool            // _select contains "_count(*)"

	// Result shaping (terminal level only).
	Aggs    []Aggregate // _select aggregates, _count(*) included
	Limit   int         // _limit: max rows (or groups) returned (0 = unbounded)
	Skip    int         // _skip: rows (or groups) dropped before the first returned
	Orders  []OrderBy   // _orderby: result ordering keys (empty = unordered)
	GroupBy []FieldPath // _groupby: grouped-aggregate keys (empty = ungrouped)
	// GroupOrder maps each `_orderby` key to the Aggs column it orders
	// groups by (the `_orderby`+`_groupby` aggregate form, resolved at
	// validation time; parallel to Orders, set only when GroupBy is
	// present).
	GroupOrder []int
	// Having holds the `_having` aggregate predicates (grouped form only):
	// a conjunction over the group's finalized aggregates, applied after
	// the group's partial states merge — and pushed down to workers
	// wherever a local partial already proves the outcome.
	Having []HavingPred

	// "$param" placeholders bound at execution time.
	IDParam    string // id
	LimitParam string // _limit
	SkipParam  string // _skip
}

// shaped reports whether the pattern carries result-shaping operators,
// which are only meaningful on the terminal level.
func (vp *VertexPattern) shaped() bool {
	return len(vp.Aggs) > 0 || vp.Limit > 0 || vp.Skip > 0 || len(vp.Orders) > 0 ||
		len(vp.GroupBy) > 0 || len(vp.Having) > 0 || vp.LimitParam != "" || vp.SkipParam != ""
}

// Hints carries optional execution hints (paper: A1 has no true optimizer;
// user hints shape the physical plan).
type Hints struct {
	NoShipping bool // force coordinator-side RDMA reads (ablation)
	PageSize   int
}

// Query is a parsed A1QL document.
type Query struct {
	Root  *VertexPattern
	Hints Hints
	// ParamNames lists the distinct "$param" placeholders the document
	// references, sorted; a non-empty list means the query must be bound
	// before it can run.
	ParamNames []string

	// fromCache marks executions whose plan came from the engine's plan
	// cache (or a Prepared handle): the coordinator performs no parse.
	fromCache bool
	// bound marks a copy produced by Bind with all placeholders resolved.
	bound bool
	// plan is the compiled physical plan. It is structural — it records
	// operator choices and predicate positions, never bound values — so one
	// compilation (at Parse time, cached with the AST) serves every binding
	// of the document.
	plan *Plan
}

// Parse parses an A1QL JSON document. The document is one JSON object:
// invalid JSON, a repeated key in any object, or anything but whitespace
// after it, is a CodeParse error.
func Parse(doc []byte) (*Query, error) {
	k := keyScans.Get().(*keyScan)
	defer keyScans.Put(k)
	tree, err := k.run(doc, inOpaque, true)
	if err != nil {
		return nil, parseError(err)
	}
	return parseRaw(tree)
}

// parseRaw builds a query from a decoded document or plan-key shape.
func parseRaw(doc interface{}) (*Query, error) {
	raw, ok := doc.(map[string]interface{})
	if !ok {
		return nil, parseError(errors.New("a1ql: a document must be a JSON object"))
	}
	q := &Query{}
	if h, ok := raw[keyHints]; ok {
		if err := parseHints(h, &q.Hints); err != nil {
			return nil, parseError(err)
		}
		delete(raw, keyHints)
	}
	root, err := parseVertexPattern(raw, 0)
	if err != nil {
		return nil, parseError(err)
	}
	q.Root = root
	if err := validateShaping(root); err != nil {
		return nil, parseError(err)
	}
	if q.ParamNames, err = collectParams(root); err != nil {
		return nil, parseError(err)
	}
	if root.ID == "" && root.IDParam == "" && root.Type == "" {
		return nil, parseError(errors.New("a1ql: root pattern requires id or _type"))
	}
	q.plan = compilePlan(q)
	return q, nil
}

// parseHints reads `_hints`: `no_shipping` a boolean, `page_size` an
// integer in 1..maxShapeCount, and no other key.
func parseHints(v interface{}, h *Hints) error {
	hm, ok := v.(map[string]interface{})
	if !ok {
		return errors.New("a1ql: _hints must be an object")
	}
	for _, k := range sortedKeys(hm) {
		switch k {
		case "no_shipping":
			if h.NoShipping, ok = hm[k].(bool); !ok {
				return errors.New("a1ql: _hints no_shipping must be a boolean")
			}
		case "page_size":
			n, param, err := parseCount(k, hm[k])
			if h.PageSize = n; err != nil || param != "" || n < 1 {
				return fmt.Errorf("a1ql: _hints page_size must be an integer in 1..%d", maxShapeCount)
			}
		default:
			return fmt.Errorf("a1ql: unknown _hints key %q", k)
		}
	}
	return nil
}

// placeholder reports whether a bindable constant is a parameter: a
// "$name" string, or a literal the plan key lifted.
func placeholder(v interface{}) (string, bool, error) {
	switch x := v.(type) {
	case *synthParam:
		return string(*x), true, nil
	case string:
		return paramRef(x)
	}
	return "", false, nil
}

// paramRef reports whether a JSON string constant is a parameter
// placeholder ("$name") and returns the name. "$$..." escapes a literal
// leading dollar sign.
func paramRef(s string) (string, bool, error) {
	if !strings.HasPrefix(s, "$") || strings.HasPrefix(s, "$$") {
		return "", false, nil
	}
	name := s[1:]
	if name == "" {
		return "", false, errors.New(`a1ql: empty parameter name "$"`)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') ||
			(i > 0 && '0' <= c && c <= '9')
		if !ok {
			return "", false, fmt.Errorf("a1ql: bad parameter name %q", s)
		}
	}
	return name, true, nil
}

// unescapeParam strips the "$$" escape from a literal string constant.
func unescapeParam(s string) string {
	if strings.HasPrefix(s, "$$") {
		return s[1:]
	}
	return s
}

// collectParams gathers the distinct user placeholder names of a pattern
// tree, sorted: a binder walk that binds nothing and records every name.
func collectParams(root *VertexPattern) ([]string, error) {
	b := binder{seen: map[string]bool{}}
	_, err := b.vertex(root)
	return slices.Sorted(maps.Keys(b.seen)), err
}

// validateShaping rejects result-shaping operators anywhere but the main
// chain's terminal level: shaping an intermediate frontier or an existence
// subpattern has no defined semantics. It also normalizes a chained edge
// written without _vertex to an empty terminal pattern (return the
// unconstrained endpoints) so execution never sees a nil level.
func validateShaping(root *VertexPattern) error {
	for vp := root; vp != nil; {
		if vp.Edge != nil && vp.Edge.Vertex == nil {
			vp.Edge.Vertex = &VertexPattern{}
		}
		if vp.Recurse != nil {
			return validateRecurse(vp)
		}
		terminal := vp.Edge == nil
		if !terminal && vp.shaped() {
			return errors.New("a1ql: _limit/_skip/_orderby/_groupby/aggregates allowed on the terminal level only")
		}
		if terminal && len(vp.GroupBy) > 0 {
			// Grouped aggregates: each group reduces to scalars, so plain
			// projections have no row to ride on. `_orderby` is allowed in
			// its aggregate form only — ordering groups by an aggregate
			// column ("_count(*)" or the bare function name), the top-K
			// groups case; plain-field ordering has no row order to define
			// (groups come back sorted by key).
			if len(vp.Aggs) == 0 {
				return errors.New("a1ql: _groupby requires at least one _select aggregate")
			}
			if len(vp.Selects) > 0 {
				return errors.New("a1ql: _groupby allows only aggregate _select entries")
			}
			if err := resolveGroupOrder(vp); err != nil {
				return err
			}
			if err := resolveHaving(vp); err != nil {
				return err
			}
		}
		if terminal && len(vp.GroupBy) == 0 {
			if len(vp.Having) > 0 {
				return errors.New("a1ql: _having requires _groupby")
			}
			for _, ob := range vp.Orders {
				if isAggKey(ob.Path.Raw) {
					return fmt.Errorf("a1ql: _orderby %q (an aggregate column) requires _groupby", ob.Path.Raw)
				}
			}
		}
		for _, m := range vp.Matches {
			if err := rejectShaping(m); err != nil {
				return err
			}
		}
		if terminal {
			return nil
		}
		vp = vp.Edge.Vertex
	}
	return nil
}

// isAggKey reports whether an `_orderby` key names an aggregate column
// ("_count(*)", "_sum(field)") or a bare aggregate function ("_count").
func isAggKey(raw string) bool {
	if open := strings.IndexByte(raw, '('); open > 0 {
		_, ok := aggNames[raw[:open]]
		return ok
	}
	_, ok := aggNames[raw]
	return ok
}

// resolveGroupOrder maps the grouped form's `_orderby` keys to `_select`
// aggregate columns, and resolveHaving each `_having` key.
func resolveGroupOrder(vp *VertexPattern) error {
	if len(vp.Orders) == 0 {
		return nil
	}
	vp.GroupOrder = make([]int, len(vp.Orders))
	for i, ob := range vp.Orders {
		var err error
		if vp.GroupOrder[i], err = aggColumn(vp.Aggs, ob.Path.Raw, "_orderby", "_orderby with _groupby"); err != nil {
			return err
		}
	}
	return nil
}

func resolveHaving(vp *VertexPattern) error {
	for i := range vp.Having {
		hp := &vp.Having[i]
		var err error
		if hp.AggIdx, err = aggColumn(vp.Aggs, hp.Raw, "_having", "_having"); err != nil {
			return err
		}
	}
	return nil
}

// aggColumn resolves a grouped `_orderby` or `_having` key to a `_select`
// aggregate column: the verbatim aggregate entry ("_count(*)"), or the bare
// function name ("_count") when exactly one aggregate of that function
// exists.
func aggColumn(aggs []Aggregate, raw, clause, form string) (int, error) {
	col := -1
	for ai, agg := range aggs {
		if raw == agg.Raw {
			return ai, nil
		}
		if open := strings.IndexByte(agg.Raw, '('); open > 0 && raw == agg.Raw[:open] {
			if col >= 0 {
				return 0, fmt.Errorf("a1ql: %s %q is ambiguous; use the full aggregate entry", clause, raw)
			}
			col = ai
		}
	}
	if col < 0 {
		return 0, fmt.Errorf("a1ql: %s must name a _select aggregate column (got %q)", form, raw)
	}
	return col, nil
}

// validateRecurse checks a level hosting `_recurse`: the recursion must be
// the chain's last step, its `_vertex` must be a plain terminal, and the
// clauses recursion has no semantics for are rejected with CodeRecurse.
func validateRecurse(vp *VertexPattern) error {
	rp := vp.Recurse
	if vp.Edge != nil {
		return recurseError("may not combine with _out_edge/_in_edge on one level")
	}
	if vp.shaped() {
		return recurseError("result shaping belongs on the _recurse _vertex, not its host level")
	}
	if len(vp.Selects) > 0 {
		return recurseError("_select belongs on the _recurse _vertex, not its host level")
	}
	if rp.Edge.Vertex == nil {
		rp.Edge.Vertex = &VertexPattern{}
	}
	rv := rp.Edge.Vertex
	if rv.Edge != nil || rv.Recurse != nil {
		return recurseError("_vertex must be terminal (no further traversal)")
	}
	if len(rv.Matches) > 0 {
		return recurseError("_vertex does not support _match")
	}
	if len(rv.GroupBy) > 0 || len(rv.Having) > 0 {
		return recurseError("does not support _groupby/_having")
	}
	if rv.ID != "" || rv.IDParam != "" {
		return recurseError(`_vertex does not support "id"`)
	}
	for _, ob := range rv.Orders {
		if isAggKey(ob.Path.Raw) {
			return recurseError("_orderby %q (an aggregate column) requires _groupby", ob.Path.Raw)
		}
	}
	if rp.Shortest && len(rv.Aggs) > 0 {
		return recurseError("_shortest cannot combine with aggregate _select")
	}
	for _, m := range vp.Matches {
		if err := rejectShaping(m); err != nil {
			return err
		}
	}
	return nil
}

func rejectShaping(ep *EdgePattern) error {
	if ep == nil || ep.Vertex == nil {
		return nil
	}
	vp := ep.Vertex
	if vp.Recurse != nil {
		return recurseError("not allowed inside _match subpatterns")
	}
	if vp.shaped() {
		return errors.New("a1ql: result shaping not allowed inside _match subpatterns")
	}
	for _, m := range vp.Matches {
		if err := rejectShaping(m); err != nil {
			return err
		}
	}
	return rejectShaping(vp.Edge)
}

const maxDepth = 16

// sortedKeys returns a JSON object's keys in lexicographic order. Go
// randomizes map iteration, so parsing in raw map order would make
// predicate lists, plan structure, and "unknown key" errors vary run to
// run for the same document (a1/maporder); every object walk in the
// parser iterates these sorted keys instead.
func sortedKeys(m map[string]interface{}) []string {
	ks := slices.AppendSeq(make([]string, 0, len(m)), maps.Keys(m))
	slices.Sort(ks)
	return ks
}

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
			hp, err := havingConstant(aggKey, op, constant)
			hps = append(hps, hp)
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

// havingConstant builds one `_having` predicate from a JSON constant,
// recognizing parameter placeholders. `_prefix` is rejected: aggregate
// values are compared, never prefix-matched, and prefix comparisons admit
// no pushdown proof.
func havingConstant(raw string, op Op, constant interface{}) (HavingPred, error) {
	hp := HavingPred{Raw: raw, AggIdx: -1, Op: op}
	if op == OpPrefix {
		return hp, errors.New("a1ql: _having does not support _prefix")
	}
	if name, ok, err := placeholder(constant); err != nil || ok {
		hp.Param = name
		return hp, err
	}
	if s, ok := constant.(string); ok {
		constant = unescapeParam(s)
	}
	val, err := jsonToBond(constant)
	if err != nil {
		return hp, err
	}
	hp.Value = val
	return hp, nil
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
		pred, err := predConstant(fp, op, constant)
		preds = append(preds, pred)
		return err
	})
	if err != nil {
		return nil, err
	}
	return preds, nil
}

// predConstant builds one predicate from a JSON constant, recognizing
// parameter placeholders.
func predConstant(fp FieldPath, op Op, constant interface{}) (Predicate, error) {
	if name, ok, err := placeholder(constant); err != nil {
		return Predicate{}, err
	} else if ok {
		return Predicate{Path: fp, Op: op, Param: name}, nil
	}
	if s, ok := constant.(string); ok {
		constant = unescapeParam(s)
	}
	val, err := jsonToBond(constant)
	if err != nil {
		return Predicate{}, err
	}
	return Predicate{Path: fp, Op: op, Value: val}, nil
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
