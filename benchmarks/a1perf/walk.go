package main

import (
	"fmt"
	"sort"

	"a1"
	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/farm"
)

// Hand-written read transactions over the core API. The oracle runs the
// Q1–Q4 walks once per set-up, sequentially and following edges only, to
// learn the right answers independently of the engine. The traced ladder's
// core rung reuses the point and top-K walks as they are, and redoes Q1
// with the engine's reads and fan-out (ladder.expandLevel).

// lookupEntity resolves a film-KG id to its vertex pointer.
func lookupEntity(tx *a1.Tx, g *a1.Graph, id string) (core.VertexPtr, error) {
	vp, ok, err := g.LookupVertex(tx, "entity", bond.String(id))
	if err != nil {
		return core.VertexPtr{}, err
	}
	if !ok {
		return core.VertexPtr{}, fmt.Errorf("entity %q not found", id)
	}
	return vp, nil
}

// expand follows one edge type out of every frontier vertex and returns
// the distinct far endpoints in first-seen order.
func expand(tx *a1.Tx, g *a1.Graph, frontier []core.VertexPtr, etype string) ([]core.VertexPtr, error) {
	seen := make(map[farm.Addr]bool)
	var next []core.VertexPtr
	for _, vp := range frontier {
		err := g.EnumerateEdges(tx, vp, core.DirOut, etype, func(he core.HalfEdge) bool {
			if !seen[he.Other.Addr] {
				seen[he.Other.Addr] = true
				next = append(next, he.Other)
			}
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	return next, nil
}

// walkPath follows a chain of edge types from one entity and returns the
// final frontier.
func walkPath(tx *a1.Tx, g *a1.Graph, start string, etypes ...string) ([]core.VertexPtr, error) {
	vp, err := lookupEntity(tx, g, start)
	if err != nil {
		return nil, err
	}
	frontier := []core.VertexPtr{vp}
	for _, et := range etypes {
		if frontier, err = expand(tx, g, frontier, et); err != nil {
			return nil, err
		}
	}
	return frontier, nil
}

// walkQ1 counts the distinct actors of Spielberg's films (Table 2, Q1).
func walkQ1(tx *a1.Tx, g *a1.Graph) (int64, error) {
	actors, err := walkPath(tx, g, "steven.spielberg", "director.film", "film.actor")
	return int64(len(actors)), err
}

// walkQ2 counts the distinct actors behind the Batman character's
// performances (Q2): the performance vertices are read and filtered.
func walkQ2(tx *a1.Tx, g *a1.Graph) (int64, error) {
	perfs, err := walkPath(tx, g, "character.batman", "character.film", "film.performance")
	if err != nil {
		return 0, err
	}
	vs, err := g.ReadVertices(tx, perfs)
	if err != nil {
		return 0, err
	}
	var batman []core.VertexPtr
	for _, v := range vs {
		attrs, _ := v.Data.Field(3)
		if ch, ok := attrs.MapGet(bond.String("character")); ok && ch.AsString() == "Batman" {
			batman = append(batman, v.Ptr)
		}
	}
	actors, err := expand(tx, g, batman, "performance.actor")
	return int64(len(actors)), err
}

// walkQ3 counts Spielberg's films that both star Tom Hanks and are war
// films (Q3's star pattern).
func walkQ3(tx *a1.Tx, g *a1.Graph) (int64, error) {
	films, err := walkPath(tx, g, "steven.spielberg", "director.film")
	if err != nil {
		return 0, err
	}
	hanks, err := lookupEntity(tx, g, "tom.hanks")
	if err != nil {
		return 0, err
	}
	war, err := lookupEntity(tx, g, "war")
	if err != nil {
		return 0, err
	}
	var n int64
	for _, film := range films {
		_, starsHanks, err := g.GetEdge(tx, film, "film.actor", hanks)
		if err != nil {
			return 0, err
		}
		_, isWar, err := g.GetEdge(tx, film, "film.genre", war)
		if err != nil {
			return 0, err
		}
		if starsHanks && isWar {
			n++
		}
	}
	return n, nil
}

// walkQ4 counts the distinct films of Tom Hanks's co-stars (Q4).
func walkQ4(tx *a1.Tx, g *a1.Graph) (int64, error) {
	films, err := walkPath(tx, g, "tom.hanks", "actor.film", "film.actor", "actor.film")
	return int64(len(films)), err
}

func (o *oracle) walkFilm(tx *a1.Tx, g *a1.Graph) error {
	for i, walk := range []func(*a1.Tx, *a1.Graph) (int64, error){walkQ1, walkQ2, walkQ3, walkQ4} {
		n, err := walk(tx, g)
		if err != nil {
			return fmt.Errorf("Q%d walk: %w", i+1, err)
		}
		o.q[i] = n
	}
	return nil
}

// walkPoint is the point op by hand: primary-index lookup, one vertex
// read, and the three selected fields.
func walkPoint(tx *a1.Tx, g *a1.Graph, id string) (*core.Vertex, error) {
	vp, err := lookupEntity(tx, g, id)
	if err != nil {
		return nil, err
	}
	return g.ReadVertex(tx, vp)
}

// walkTopK is the ordered top-K by hand, on the access path the planner
// chose for the same op: a descending walk of the score index that reads
// each vertex and stops after K members of the category, or the category's
// equality index with every member read and sorted. It returns the
// vertices it read.
func walkTopK(tx *a1.Tx, g *a1.Graph, category string, ordered bool) ([]core.VertexPtr, error) {
	var read []core.VertexPtr
	if ordered {
		hits := 0
		var walkErr error
		err := g.IndexRangeScanBoundsDir(tx, "node", "score", bond.Null, true, bond.Null, true, true,
			func(_ []byte, vp core.VertexPtr) bool {
				v, err := g.ReadVertex(tx, vp)
				if err != nil {
					walkErr = err
					return false
				}
				read = append(read, vp)
				if c, _ := v.Data.Field(1); c.AsString() == category {
					hits++
				}
				return hits < topK
			})
		if err == nil {
			err = walkErr
		}
		return read, err
	}
	err := g.IndexScan(tx, "node", "category", bond.String(category), func(vp core.VertexPtr) bool {
		read = append(read, vp)
		return true
	})
	if err != nil {
		return nil, err
	}
	vs, err := g.ReadVertices(tx, read)
	if err != nil {
		return nil, err
	}
	scores := make([]int64, 0, len(vs))
	for _, v := range vs {
		s, _ := v.Data.Field(2)
		scores = append(scores, s.AsInt())
	}
	sort.Slice(scores, func(a, b int) bool { return scores[a] > scores[b] })
	return read, nil
}
