package query

import (
	"a1/internal/core"
	"a1/internal/fabric"
)

// Rows is a streaming cursor over a query's result set: it walks the rows
// of the first page and transparently fetches continuation pages until the
// result is exhausted, so consumers never drive the token loop by hand.
//
//	rows, err := db.QueryRows(c, g, doc)
//	defer rows.Close(c)
//	for rows.Next(c) {
//	    r := rows.Row()
//	    ...
//	}
//	if err := rows.Err(); err != nil { ... }
//
// Close releases the coordinator's cached continuation state when the
// stream is abandoned mid-way; iterating to exhaustion consumes the state,
// making Close a no-op.
type Rows struct {
	fetcher Fetcher
	first   *Result
	res     *Result
	idx     int
	pages   int
	err     error
	done    bool
	closed  bool
}

// Fetcher drives continuation fetches and releases for a cursor. The
// frontend tier's implementation routes by token to the issuing
// coordinator; the engine's executes directly.
type Fetcher interface {
	Fetch(c *fabric.Ctx, token string) (*Result, error)
	Release(c *fabric.Ctx, token string) error
}

// NewRows wraps an initial result page in a cursor.
func NewRows(first *Result, f Fetcher) *Rows {
	return &Rows{fetcher: f, first: first, res: first, idx: -1, pages: 1}
}

// Next advances to the next row, fetching the next page when the current
// one is exhausted. It returns false at the end of the result set or on
// error (check Err).
func (r *Rows) Next(c *fabric.Ctx) bool {
	if r.done || r.err != nil {
		return false
	}
	for r.idx+1 >= len(r.res.Rows) {
		if r.res.Continuation == "" {
			r.done = true
			return false
		}
		next, err := r.fetcher.Fetch(c, r.res.Continuation)
		if err != nil {
			r.err = classify(err)
			r.done = true
			return false
		}
		r.res = next
		r.idx = -1
		r.pages++
	}
	r.idx++
	return true
}

// Row returns the current row. Valid only after a true Next.
func (r *Rows) Row() Row { return r.res.Rows[r.idx] }

// Vertex returns the current row's vertex pointer.
func (r *Rows) Vertex() core.VertexPtr { return r.res.Rows[r.idx].Vertex }

// Err returns the error that terminated iteration, if any. An expired
// continuation token mid-stream surfaces here as ErrBadToken.
func (r *Rows) Err() error { return r.err }

// Close releases the coordinator's continuation state if the stream holds
// any — whether abandoned mid-way or terminated by a transient fetch
// error (iterating to exhaustion consumes the state, making Close a
// no-op). Safe to call multiple times.
func (r *Rows) Close(c *fabric.Ctx) error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.done = true
	if r.res != nil && r.res.Continuation != "" {
		// Releasing an already-expired token is not an error, so this is
		// safe after ErrBadToken too.
		return r.fetcher.Release(c, r.res.Continuation)
	}
	return nil
}

// Result returns the first page, carrying the query's Stats, Aggregates,
// and Count.
func (r *Rows) Result() *Result { return r.first }

// Stats returns the first page's execution statistics.
func (r *Rows) Stats() Stats { return r.first.Stats }

// Pages reports how many pages the cursor has consumed so far.
func (r *Rows) Pages() int { return r.pages }

// engineFetcher drives a cursor directly against the engine, hopping the
// context to the token's coordinator (intra-cluster callers).
type engineFetcher struct{ e *Engine }

func (f engineFetcher) Fetch(c *fabric.Ctx, token string) (*Result, error) {
	m, err := f.e.Coordinator(token)
	if err != nil {
		return nil, err
	}
	return f.e.Fetch(c.At(m), token)
}

func (f engineFetcher) Release(c *fabric.Ctx, token string) error {
	m, err := f.e.Coordinator(token)
	if err != nil {
		return err
	}
	return f.e.Release(c.At(m), token)
}

// QueryRows executes a document and returns a streaming cursor over the
// result (engine-direct; frontend callers use the tier's QueryRows).
func (e *Engine) QueryRows(c *fabric.Ctx, g *core.Graph, doc []byte) (*Rows, error) {
	res, err := e.Execute(c, g, doc)
	if err != nil {
		return nil, err
	}
	return NewRows(res, engineFetcher{e}), nil
}
