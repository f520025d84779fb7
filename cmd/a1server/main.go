// Command a1server exposes an in-process A1 cluster over HTTP — the role
// the frontend tier plays in Figure 4, with JSON-over-TCP standing in for
// the production RPC stack.
//
// Endpoints:
//
//	POST   /query?tenant=bing&graph=kg   body: A1QL JSON         -> result page
//	POST   /query                        body: {"query": <A1QL>, -> result page
//	                                            "params": {...}}    (prepared + bound)
//	POST   /explain                      body: A1QL or envelope   -> plan tree JSON
//	                                     (?format=text for the rendered plan)
//	GET    /fetch?token=...                                      -> next page
//	DELETE /fetch?token=...                                      -> release continuation state
//	GET    /stats                                                -> cluster counters
//	GET    /healthz
//
// Query failures map to protocol statuses: parse, bind, and `_recurse`
// misuse errors are 400, an unmatched root is 404, an expired continuation
// token is 410, a working-set fast-fail is 413, frontend throttling is
// 429, and data the query cannot reach (a lost region, an unreachable
// machine, a snapshot version already reclaimed) is 503.
//
// Example:
//
//	$ go run ./cmd/a1server &
//	$ curl -s -XPOST 'localhost:8080/query' -d '{"id":"tom.hanks","_select":["id"]}'
//	$ curl -s -XPOST 'localhost:8080/query' -d '{
//	      "query": {"id": "$who", "_select": ["id", "popularity"]},
//	      "params": {"who": "tom.hanks"}}'
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"time"

	"a1"
	"a1/internal/workload"
)

type server struct {
	db *a1.DB
	g  *a1.Graph
}

type queryResponse struct {
	Count        *int64              `json:"count,omitempty"`
	Rows         []map[string]string `json:"rows,omitempty"`
	Groups       []groupJSON         `json:"groups,omitempty"`
	Continuation string              `json:"continuation,omitempty"`
	Stats        statsJSON           `json:"stats"`
}

type groupJSON struct {
	Key        map[string]string `json:"key"`
	Aggregates map[string]string `json:"aggregates"`
}

type statsJSON struct {
	Hops           int     `json:"hops"`
	VerticesRead   int64   `json:"vertices_read"`
	ObjectsRead    int64   `json:"objects_read"`
	LocalPct       float64 `json:"local_read_pct"`
	ElapsedUS      int64   `json:"elapsed_us"`
	PlanCacheHits  int64   `json:"plan_cache_hits,omitempty"`
	GroupsShipped  int64   `json:"groups_shipped,omitempty"`
	GroupsFiltered int64   `json:"groups_filtered,omitempty"`
}

type errorJSON struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

func toResponse(res *a1.Result) queryResponse {
	out := queryResponse{
		Continuation: res.Continuation,
		Stats: statsJSON{
			Hops:           res.Stats.Hops,
			VerticesRead:   res.Stats.VerticesRead,
			ObjectsRead:    res.Stats.ObjectsRead,
			LocalPct:       res.Stats.LocalFrac * 100,
			ElapsedUS:      res.Stats.Elapsed.Microseconds(),
			PlanCacheHits:  res.Stats.PlanCacheHits,
			GroupsShipped:  res.Stats.GroupsShipped,
			GroupsFiltered: res.Stats.GroupsFiltered,
		},
	}
	if res.HasCount {
		c := res.Count
		out.Count = &c
	}
	for _, row := range res.Rows {
		m := map[string]string{"_vertex": row.Vertex.Addr.String()}
		for k, v := range row.Values {
			m[k] = v.String()
		}
		out.Rows = append(out.Rows, m)
	}
	for _, gr := range res.Groups {
		g := groupJSON{
			Key:        make(map[string]string, len(gr.Keys)),
			Aggregates: make(map[string]string, len(gr.Aggregates)),
		}
		for k, v := range gr.Keys {
			g.Key[k] = v.String()
		}
		for k, v := range gr.Aggregates {
			g.Aggregates[k] = v.String()
		}
		out.Groups = append(out.Groups, g)
	}
	return out
}

// classifyError maps a query failure to a protocol status and wire code
// instead of a blanket 500.
func classifyError(err error) (status int, code string) {
	if errors.Is(err, a1.ErrThrottled) {
		return http.StatusTooManyRequests, "throttled"
	}
	var qe *a1.QueryError
	if errors.As(err, &qe) {
		switch qe.Code {
		case a1.CodeParse, a1.CodeBadParam, a1.CodeRecurse:
			return http.StatusBadRequest, qe.Code.String()
		case a1.CodeNoStart:
			return http.StatusNotFound, qe.Code.String()
		case a1.CodeBadToken:
			return http.StatusGone, qe.Code.String()
		case a1.CodeWorkingSet:
			return http.StatusRequestEntityTooLarge, qe.Code.String()
		case a1.CodeUnavailable:
			return http.StatusServiceUnavailable, qe.Code.String()
		}
		return http.StatusInternalServerError, qe.Code.String()
	}
	// Sentinel fallbacks for errors surfaced outside the engine boundary.
	switch {
	case errors.Is(err, a1.ErrBadToken):
		return http.StatusGone, "bad_token"
	case errors.Is(err, a1.ErrNoStart):
		return http.StatusNotFound, "no_start"
	}
	return http.StatusInternalServerError, "internal"
}

func writeError(w http.ResponseWriter, err error) {
	status, code := classifyError(err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorJSON{Error: err.Error(), Code: code})
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST an A1QL document", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	doc, params, err := splitEnvelope(body)
	if err != nil {
		writeError(w, err)
		return
	}
	var res *a1.Result
	var qerr error
	s.db.Run(func(c *a1.Ctx) {
		if params == nil {
			res, qerr = s.db.Query(c, s.g, string(doc))
			return
		}
		var pq *a1.PreparedQuery
		if pq, qerr = s.db.Prepare(c, s.g, string(doc)); qerr != nil {
			return
		}
		res, qerr = pq.Exec(c, params)
	})
	if qerr != nil {
		writeError(w, qerr)
		return
	}
	writeJSON(w, toResponse(res))
}

// splitEnvelope distinguishes a raw A1QL document from the parameterized
// {"query": ..., "params": {...}} form. params == nil means raw. A body
// is an envelope only when it has a "query" key and nothing beyond
// "query"/"params" — a raw document with a predicate on a field named
// "query" plus any other key still routes as raw.
func splitEnvelope(body []byte) (doc []byte, params a1.Params, err error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var probe map[string]json.RawMessage
	if err := dec.Decode(&probe); err != nil {
		return body, nil, nil // not an object: let the engine report the parse error
	}
	if _, ok := probe["query"]; !ok {
		return body, nil, nil
	}
	for k := range probe {
		if k != "query" && k != "params" {
			return body, nil, nil
		}
	}
	doc = probe["query"]
	var docStr string
	if json.Unmarshal(probe["query"], &docStr) == nil {
		doc = []byte(docStr) // "query" given as a string
	}
	params = a1.Params{}
	if praw, ok := probe["params"]; ok {
		pdec := json.NewDecoder(bytes.NewReader(praw))
		pdec.UseNumber()
		var pm map[string]interface{}
		if err := pdec.Decode(&pm); err != nil {
			return nil, nil, &a1.QueryError{Code: a1.CodeParse, Err: fmt.Errorf("bad params object: %w", err)}
		}
		params = a1.Params(pm)
	}
	return doc, params, nil
}

// handleExplain returns the compiled plan for a document without running
// it — the structured PlanTree as JSON, or the rendered text with
// ?format=text. Accepts the same {"query": ..., "params": {...}} envelope
// as /query so a prepared statement's plan reflects its bind values.
func (s *server) handleExplain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST an A1QL document", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	doc, params, err := splitEnvelope(body)
	if err != nil {
		writeError(w, err)
		return
	}
	var tree *a1.PlanTree
	var qerr error
	s.db.Run(func(c *a1.Ctx) {
		tree, qerr = s.db.ExplainPlan(c, s.g, string(doc), params)
	})
	if qerr != nil {
		writeError(w, qerr)
		return
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, tree.String())
		return
	}
	writeJSON(w, tree)
}

func (s *server) handleFetch(w http.ResponseWriter, r *http.Request) {
	token := r.URL.Query().Get("token")
	if token == "" {
		http.Error(w, "missing token", http.StatusBadRequest)
		return
	}
	if r.Method == http.MethodDelete {
		var qerr error
		s.db.Run(func(c *a1.Ctx) { qerr = s.db.Release(c, token) })
		if qerr != nil {
			writeError(w, qerr)
			return
		}
		writeJSON(w, map[string]string{"released": token})
		return
	}
	var res *a1.Result
	var qerr error
	s.db.Run(func(c *a1.Ctx) {
		res, qerr = s.db.Fetch(c, token)
	})
	if qerr != nil {
		writeError(w, qerr)
		return
	}
	writeJSON(w, toResponse(res))
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	m := &s.db.Fabric().Metrics
	hits, misses := s.db.Engine().PlanCacheStats()
	writeJSON(w, map[string]interface{}{
		"machines":          s.db.Fabric().Machines(),
		"bytes_used":        s.db.UsedBytes(),
		"local_reads":       m.LocalReads.Load(),
		"remote_reads":      m.RemoteReads.Load(),
		"remote_writes":     m.RemoteWrites.Load(),
		"rpcs":              m.RPCs.Load(),
		"plan_cache_hits":   hits,
		"plan_cache_misses": misses,
	})
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		machines    = flag.Int("machines", 16, "simulated cluster size")
		scale       = flag.String("scale", "test", "knowledge graph size: test | paper")
		maxInflight = flag.Int("max-inflight", 0, "concurrent requests per frontend before 429 (0 = off)")
	)
	flag.Parse()

	db, err := a1.Open(a1.Options{Machines: *machines, TaskWorkers: 1, MaxInflight: *maxInflight})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	var g *a1.Graph
	db.Run(func(c *a1.Ctx) {
		if err = db.CreateTenant(c, "bing"); err != nil {
			return
		}
		if err = db.CreateGraph(c, "bing", "kg"); err != nil {
			return
		}
		if g, err = db.OpenGraph(c, "bing", "kg"); err != nil {
			return
		}
		params := workload.TestParams()
		if *scale == "paper" {
			params = workload.PaperParams()
		}
		kg := workload.NewFilmKG(params)
		if err = kg.Load(c, g); err != nil {
			return
		}
		fmt.Printf("a1server: loaded %d vertices, %d edges on %d machines\n",
			kg.Stats.Vertices, kg.Stats.Edges, *machines)
	})
	if err != nil {
		log.Fatal(err)
	}

	s := &server{db: db, g: g}
	log.Printf("a1server listening on %s", *addr)
	if err := newHTTPServer(*addr, s.routes()).ListenAndServe(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// Connection timeouts: a client that stalls while sending its request, or
// never reads the reply, or holds an idle keep-alive connection, is cut off
// instead of pinning a connection and its goroutine for good. The write
// budget covers the longest query the server answers.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 2 * time.Minute
	idleTimeout       = 2 * time.Minute
)

// routes maps the server's endpoints.
func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/explain", s.handleExplain)
	mux.HandleFunc("/fetch", s.handleFetch)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// newHTTPServer is the server main runs: h on addr, under the connection
// timeouts above.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}
