package query

import (
	"errors"
	"fmt"
	"strings"
)

// Validation: the rules the grammar alone does not enforce — where shaping
// may appear, what `_recurse` combines with, and which `_select` aggregate
// column each grouped `_orderby` and `_having` key names.

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
			if err := resolveAggColumns(vp); err != nil {
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
		if err := rejectShaping(vp.Matches...); err != nil {
			return err
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

// resolveAggColumns maps the grouped form's `_orderby` keys and each
// `_having` key to `_select` aggregate columns.
func resolveAggColumns(vp *VertexPattern) error {
	if len(vp.Orders) > 0 {
		vp.GroupOrder = make([]int, len(vp.Orders))
	}
	var err error
	for i, ob := range vp.Orders {
		if vp.GroupOrder[i], err = aggColumn(vp.Aggs, ob.Path.Raw, "_orderby", "_orderby with _groupby"); err != nil {
			return err
		}
	}
	for i := range vp.Having {
		hp := &vp.Having[i]
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
	if hasID(rv) {
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
	return rejectShaping(vp.Matches...)
}

// rejectShaping rejects `_recurse` and result shaping below each of eps:
// `_match` subpatterns, their own subpatterns, and the chains they follow.
func rejectShaping(eps ...*EdgePattern) error {
	for _, ep := range eps {
		if ep == nil || ep.Vertex == nil {
			continue
		}
		vp := ep.Vertex
		if vp.Recurse != nil {
			return recurseError("not allowed inside _match subpatterns")
		}
		if vp.shaped() {
			return errors.New("a1ql: result shaping not allowed inside _match subpatterns")
		}
		if err := rejectShaping(vp.Matches...); err != nil {
			return err
		}
		if err := rejectShaping(vp.Edge); err != nil {
			return err
		}
	}
	return nil
}
