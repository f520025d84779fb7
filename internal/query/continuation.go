package query

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"a1/internal/fabric"
)

// Continuation tokens (paper §3.4): when a result set exceeds one page the
// coordinator returns a token encoding its own identity and caches the
// remainder in memory for a limited time (typically 60 seconds). Frontends
// decode the coordinator from the token and route fetches to it; if the
// cache expired or the coordinator crashed, the client restarts the query.

type tokenPayload struct {
	M  int32  `json:"m"`            // coordinator machine
	ID uint64 `json:"id"`           // cache entry
	PS int    `json:"ps,omitempty"` // page size that shaped the first page
}

func encodeToken(m fabric.MachineID, id uint64, pageSize int) string {
	b, _ := json.Marshal(tokenPayload{M: int32(m), ID: id, PS: pageSize})
	return base64.URLEncoding.EncodeToString(b)
}

// decodeToken parses a token. Tokens are unauthenticated client input:
// anything the engine could not have issued is ErrBadToken.
func decodeToken(token string) (tokenPayload, error) {
	var p tokenPayload
	raw, err := base64.URLEncoding.DecodeString(token)
	if err != nil {
		return p, fmt.Errorf("%w: %v", ErrBadToken, err)
	}
	if err := json.Unmarshal(raw, &p); err != nil {
		return p, fmt.Errorf("%w: %v", ErrBadToken, err)
	}
	if p.M < 0 || p.PS < 0 {
		return p, fmt.Errorf("%w: machine %d, page size %d", ErrBadToken, p.M, p.PS)
	}
	return p, nil
}

// Coordinator decodes the machine a token must be fetched or released on,
// so a frontend can route there. A token naming a machine outside this
// cluster is rejected here, before anything indexes per-machine state
// with it.
func (e *Engine) Coordinator(token string) (fabric.MachineID, error) {
	p, err := decodeToken(token)
	if err == nil && int(p.M) >= len(e.caches) {
		err = fmt.Errorf("%w: machine %d of %d", ErrBadToken, p.M, len(e.caches))
	}
	return fabric.MachineID(p.M), classify(err)
}

// localToken decodes a token that must belong to the machine c runs on.
func localToken(c *fabric.Ctx, token string) (tokenPayload, error) {
	p, err := decodeToken(token)
	if err == nil && fabric.MachineID(p.M) != c.M {
		err = fmt.Errorf("%w: token belongs to %v, presented on %v", ErrBadToken, fabric.MachineID(p.M), c.M)
	}
	return p, err
}

// pageSource is what remains of a paged result: the pager over rows or
// over groups. The engine treats both alike: run cuts page 0 and Fetch
// page N through turnPage, and Release, expiry and a coordinator drop all
// end in close.
type pageSource interface {
	// nextPage sets up to n rows or groups on res, adds the work it did
	// to res.Stats, and reports whether more remain.
	nextPage(c *fabric.Ctx, n int, res *Result) (more bool, err error)
	// close releases whatever the source holds — parked run tails, pooled
	// buffers, a snapshot pin. Idempotent, and never called under a store
	// lock. c is the coordinator's context, nil when the coordinator is
	// gone (DropResultsOn) and nothing can cross the fabric.
	close(c *fabric.Ctx)
}

// itemSource streams a result's items one at a time into a pager: the
// owners' group-run merge or a `_recurse` expansion.
type itemSource[T any] interface {
	// next returns the next item, ok=false once the source is exhausted,
	// and adds the work it did to stats.
	next(c *fabric.Ctx, stats *Stats) (item T, ok bool, err error)
	// close is pageSource.close for what the source holds.
	close(c *fabric.Ctx)
}

// pager is the one pageSource. It holds the items pulled but not yet
// paged out — the whole answer of a materialized result, a page plus one
// item of lookahead of a streamed one — lets the terminal's _skip/_limit
// through once, and cuts pages from the front. The lookahead lets an
// exactly-full last page end the result instead of issuing a continuation
// whose page is empty.
type pager[T any] struct {
	buf   []T
	src   itemSource[T] // nil for a materialized result
	done  bool          // src is nil or exhausted, or the limit is reached
	skip  int
	limit int // items still to emit, buf included
	into  func(*Result) *[]T
	// groups is a streamed group source's run merge: the entries it
	// buffers join the pager's own in PeakGroups. Nil for every other
	// source, so no other result's Stats move.
	groups interface{ resident() int64 }
}

// newPager pages items, then src's, under tp's _skip and _limit.
func newPager[T any](items []T, src itemSource[T], tp *VertexPattern, into func(*Result) *[]T) *pager[T] {
	p := &pager[T]{buf: items, src: src, done: src == nil, skip: tp.Skip, limit: tp.Limit, into: into}
	if p.limit == 0 {
		p.limit = math.MaxInt
	}
	return p
}

func rowsOf(r *Result) *[]Row        { return &r.Rows }
func groupsOf(r *Result) *[]GroupRow { return &r.Groups }

func (p *pager[T]) nextPage(c *fabric.Ctx, n int, res *Result) (bool, error) {
	for {
		d := min(p.skip, len(p.buf))
		p.buf, p.skip = p.buf[d:], p.skip-d
		if len(p.buf) >= p.limit {
			p.buf, p.done = p.buf[:p.limit], true
		}
		if p.done || len(p.buf) > n {
			break
		}
		item, ok, err := p.src.next(c, &res.Stats)
		if err != nil {
			return false, err
		}
		if ok {
			p.buf = append(p.buf, item)
		} else {
			p.done = true
		}
	}
	if p.groups != nil {
		res.Stats.PeakGroups = max(res.Stats.PeakGroups, int64(len(p.buf))+p.groups.resident())
	}
	k := min(n, len(p.buf))
	*p.into(res) = p.buf[:k:k]
	p.buf, p.limit = p.buf[k:], p.limit-k
	return len(p.buf) > 0, nil
}

func (p *pager[T]) close(c *fabric.Ctx) {
	if p.src != nil {
		p.src.close(c)
	}
}

// turnPage draws one page from src into res. The caller holds src
// exclusively — fresh from run (id 0) or claimed from the store by Fetch —
// because paging may cross the fabric and no local lock is held across a
// fabric round trip; a second Fetch of the same token meanwhile finds no
// entry and gets ErrBadToken. While more remains the source goes (back)
// into the coordinator's store and res carries the token; otherwise, or on
// error, it is closed.
func (e *Engine) turnPage(c *fabric.Ctx, src pageSource, id uint64, expires time.Duration, pageSize int, res *Result) error {
	more, err := src.nextPage(c, pageSize, res)
	if err != nil || !more {
		src.close(c)
		return err
	}
	if id != 0 {
		e.caches[c.M].restore(id, src, expires)
	} else {
		var lapsed []pageSource
		id, lapsed = e.caches[c.M].put(c.Now(), e.cfg.ResultTTL, src)
		closeAll(c, lapsed)
	}
	res.Continuation = encodeToken(c.M, id, pageSize)
	return nil
}

func closeAll(c *fabric.Ctx, srcs []pageSource) {
	for _, src := range srcs {
		src.close(c)
	}
}

// Fetch returns the next page for a continuation token. It must execute on
// the coordinator that issued the token (frontends route with
// Coordinator). The token carries the page size that shaped the first
// page, so every page of one query agrees even when the client hinted a
// custom _pagesize. At most one Fetch per token is in flight: the entry is
// claimed for the duration of the call, and a racing Fetch of the same
// token gets ErrBadToken — the same answer as racing its expiry.
func (e *Engine) Fetch(c *fabric.Ctx, token string) (*Result, error) {
	start := c.Now()
	p, err := localToken(c, token)
	if err != nil {
		return nil, classify(err)
	}
	pageSize := p.PS
	if pageSize == 0 {
		pageSize = e.cfg.PageSize
	}
	src, expires, ok := e.caches[c.M].claim(p.ID)
	if ok && c.Now() >= expires {
		src.close(c)
		ok = false
	}
	if !ok {
		return nil, classify(fmt.Errorf("%w: expired; restart the query", ErrBadToken))
	}
	var ops fabric.OpStats
	res := &Result{}
	if err := e.turnPage(c.WithStats(&ops), src, p.ID, expires, pageSize, res); err != nil {
		return nil, classify(err)
	}
	res.Stats.setOps(&ops)
	res.Stats.Elapsed = c.Now() - start
	return res, nil
}

// Release drops the continuation state behind a token without fetching it
// — the cursor Close path. Like Fetch it must run on the coordinator that
// issued the token. Releasing an already-expired or consumed token is not
// an error.
func (e *Engine) Release(c *fabric.Ctx, token string) error {
	p, err := localToken(c, token)
	if err != nil {
		return classify(err)
	}
	if src, _, ok := e.caches[c.M].claim(p.ID); ok {
		src.close(c)
	}
	return nil
}

// PendingResults counts live continuation entries cached on machine m —
// the observable for cursor-release and sweeper tests.
func (e *Engine) PendingResults(m fabric.MachineID) int { return e.caches[m].len() }

// PendingRuns counts group-run tails parked on machine m — the observable
// for the streamed-group lifecycle tests and the benchmark's leak gauge.
func (e *Engine) PendingRuns(m fabric.MachineID) int { return e.runs[m].len() }

// ExpireResults drops timed-out continuation sources and parked group-run
// tails on the machine c runs on, and reports how many. The stores sweep
// themselves as new state is parked (ttlStore.put); this is the on-demand
// form for an idle machine, tests and the benchmark's leak gauge.
func (e *Engine) ExpireResults(c *fabric.Ctx) int {
	now := c.Now()
	lapsed := e.caches[c.M].sweep(now)
	closeAll(c, lapsed)
	return len(lapsed) + len(e.runs[c.M].sweep(now))
}

// DropResultsOn wipes machine m's continuation cache and parked group-run
// tails, as the loss of its process does (a1.DB's crash and kill drills
// call it): clients must restart their queries, and run tails this
// machine's queries parked elsewhere die by TTL.
func (e *Engine) DropResultsOn(m fabric.MachineID) {
	closeAll(nil, e.caches[m].drain())
	e.runs[m].drain()
}
