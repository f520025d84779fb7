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

// comparison tests a value against a constant with Op. Param, when set,
// names the "$param" placeholder the constant is bound from at execution
// time (Value is zero until then).
type comparison struct {
	Op    Op
	Value bond.Value
	Param string
}

// Predicate compares an attribute against a constant.
type Predicate struct {
	Path FieldPath
	comparison
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
	comparison
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
