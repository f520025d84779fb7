package query

import (
	"a1/internal/core"
	"a1/internal/fabric"
	"a1/internal/farm"
)

// `_match`: existence subpatterns (the star patterns of Q3), tested against
// each visited vertex by following its edges, with primary-key targets
// resolved once before any level runs.

// resolveMatchTargets walks the pattern tree once, before any level runs:
// `_match` subpatterns that terminate in a primary-key lookup are
// pre-resolved so workers test star-pattern membership by pointer
// comparison instead of remote reads, and every other subpattern vertex
// (sub=true: vp sits inside a `_match`) gets the read set matchVertex will
// visit it with.
func (st *execState) resolveMatchTargets(tx *farm.Tx, vp *VertexPattern, sub bool) error {
	if vp == nil {
		return nil
	}
	if sub {
		rs := readSetOf(vp, false)
		if st.matchReads == nil {
			st.matchReads = map[*VertexPattern]ReadSet{}
		}
		st.matchReads[vp] = rs
	}
	for _, m := range vp.Matches {
		if m.Vertex != nil && m.Vertex.ID != "" && m.Vertex.Edge == nil &&
			len(m.Vertex.Preds) == 0 && len(m.Vertex.Matches) == 0 {
			ptr, ok, err := st.lookupByID(tx, m.Vertex)
			if err != nil {
				return err
			}
			if ok {
				st.targets[m] = ptr
			} else {
				st.targets[m] = core.VertexPtr{} // unresolvable: never matches
			}
		} else if err := st.resolveMatchTargets(tx, m.Vertex, true); err != nil {
			return err
		}
	}
	if vp.Edge != nil {
		return st.resolveMatchTargets(tx, vp.Edge.Vertex, sub)
	}
	return nil
}

// evalMatchEdge tests one `_match` subpattern against a visited vertex:
// does any of its half-edges matching ep lead to a vertex matching
// ep.Vertex? Pre-resolved targets compare by pointer.
func (st *execState) evalMatchEdge(sc *fabric.Ctx, tx *farm.Tx, v *core.VertexVisit, ep *EdgePattern, bc *batchCounts) (bool, error) {
	target, hasTarget := st.targets[ep]
	matched := false
	var innerErr error
	err := v.Edges(edgeDir(ep), ep.Type, func(he core.HalfEdge) bool {
		bc.edges++
		sc.Work(st.engine.cfg.CostEdgeEnum)
		if hasTarget {
			matched = !target.IsNil() && he.Other.Addr == target.Addr
		} else {
			matched, innerErr = st.matchVertex(sc, tx, he.Other, ep.Vertex, bc)
		}
		return !matched && innerErr == nil
	})
	if err == nil {
		err = innerErr
	}
	return matched, err
}

// matchVertex recursively tests an existence subpattern against a vertex.
func (st *execState) matchVertex(sc *fabric.Ctx, tx *farm.Tx, vp core.VertexPtr, pat *VertexPattern, bc *batchCounts) (bool, error) {
	if pat == nil {
		return true, nil
	}
	read := st.matchReads[pat]
	if read.Kind == ReadNone && pat.Edge == nil {
		return true, nil
	}
	matched := false
	err := st.materialize(sc, tx, []core.VertexPtr{vp}, pat, read, false, bc, func(v *core.VertexVisit, pass bool) (bool, error) {
		var err error
		if pass && pat.Edge != nil {
			pass, err = st.evalMatchEdge(sc, tx, v, pat.Edge, bc)
		}
		matched = pass
		return false, err
	})
	return matched, err
}
