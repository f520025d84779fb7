// Command a1shell is an interactive A1QL shell against an in-process A1
// cluster preloaded with the film knowledge graph. Queries are JSON
// documents; blank lines execute the buffered input, so multi-line
// documents paste naturally.
//
//	$ go run ./cmd/a1shell
//	a1> { "id" : "steven.spielberg",
//	...   "_out_edge" : { "_type" : "director.film",
//	...     "_vertex" : { "_select" : ["_count(*)"] }}}
//	...
//	count: 49   (8 vertices read, 1.2ms, 96% local)
//
// Documents may reference "$name" parameters bound with :let:
//
//	a1> :let who "tom.hanks"
//	a1> { "id" : "$who", "_select" : ["id", "popularity"] }
//
// Every document is prepared against the engine's plan cache, so
// re-running a shape (with the same or different bindings) skips the
// parse; the stats line shows [plan cache hit] when it did.
//
// Shell commands: :help :open :let :unlet :explain :analyze :stats :examples :quit
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"a1"
	"a1/internal/bench"
	"a1/internal/core"
	"a1/internal/workload"
)

// maxPrintRows caps rows printed per query; the cursor is closed after,
// releasing any remaining continuation state on the coordinator.
const maxPrintRows = 20

func main() {
	var (
		machines = flag.Int("machines", 16, "simulated cluster size")
		scale    = flag.String("scale", "test", "knowledge graph size: test | paper")
	)
	flag.Parse()

	params := workload.TestParams()
	if *scale == "paper" {
		params = workload.PaperParams()
	}
	sh, kg, err := openShell(*machines, params)
	if err != nil {
		fatal(err)
	}
	defer sh.db.Close()
	fmt.Printf("a1shell: %d machines, knowledge graph loaded (%d vertices, %d edges)\n",
		*machines, kg.Stats.Vertices, kg.Stats.Edges)
	fmt.Println("enter an A1QL JSON document followed by a blank line; :help for commands")

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("a1> ")
		} else {
			fmt.Print("...> ")
		}
	}
	prompt()
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, ":") {
			if !sh.command(trimmed) {
				return
			}
			prompt()
			continue
		}
		if trimmed != "" {
			buf.WriteString(line)
			buf.WriteString("\n")
			// Execute immediately if the document already parses.
			if !looksComplete(buf.String()) {
				prompt()
				continue
			}
		}
		if buf.Len() > 0 {
			sh.runQuery(buf.String())
			buf.Reset()
		}
		prompt()
	}
}

// openShell opens a cluster of the given size with the film knowledge graph
// loaded into bing/kg, and a shell pointed at it.
func openShell(machines int, params workload.Params) (*shell, *workload.FilmKG, error) {
	db, err := a1.Open(a1.Options{Machines: machines})
	if err != nil {
		return nil, nil, err
	}
	var g *a1.Graph
	kg := workload.NewFilmKG(params)
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
		err = kg.Load(c, g)
	})
	if err != nil {
		db.Close()
		return nil, nil, err
	}
	return &shell{db: db, g: g, bindings: a1.Params{}, graphs: map[string]*a1.Graph{"film": g}}, kg, nil
}

type shell struct {
	db       *a1.DB
	g        *a1.Graph
	bindings a1.Params
	// graphs caches workload graphs already loaded by :open, keyed by
	// workload name, so re-opening just switches.
	graphs map[string]*a1.Graph
	// explainNext makes the next entered document print its compiled
	// operator tree instead of executing (set by :explain); explainJSON
	// selects the structured PlanTree JSON form (:explain -json).
	explainNext bool
	explainJSON bool
}

// open loads (once) and switches to a named workload graph: "film" is the
// preloaded knowledge graph, "zipf" the skewed planner workload with
// indexed category/score and hub-skewed link edges.
func (sh *shell) open(name string) {
	if g, ok := sh.graphs[name]; ok {
		sh.g = g
		fmt.Printf("switched to %s\n", name)
		return
	}
	if name != "zipf" {
		fmt.Printf("unknown workload %q (:open film | zipf)\n", name)
		return
	}
	var g *a1.Graph
	var err error
	sh.db.Run(func(c *a1.Ctx) {
		// A previous :open may have created the graph and then failed to
		// load it; tolerate the existing graph so retries can proceed.
		if err = sh.db.CreateGraph(c, "bing", name); err != nil && !errors.Is(err, core.ErrExists) {
			return
		}
		if g, err = sh.db.OpenGraph(c, "bing", name); err != nil {
			return
		}
		z := workload.NewZipfGraph(2000, 6000, 1)
		err = z.Load(c, g)
	})
	if err != nil {
		fmt.Printf("error: %v\n", err)
		return
	}
	sh.graphs[name] = g
	sh.g = g
	fmt.Printf("loaded zipf workload into bing/%s (2000 vertices, 6000 edges; category and score indexed)\n", name)
}

// looksComplete reports whether braces balance (cheap multi-line check).
func looksComplete(s string) bool {
	depth := 0
	inStr := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				inStr = !inStr
			}
		case '{':
			if !inStr {
				depth++
			}
		case '}':
			if !inStr {
				depth--
			}
		}
	}
	return depth <= 0 && strings.Contains(s, "{")
}

// explainQuery prints the compiled operator tree for a document, threading
// the shell's :let bindings so a parameterized document explains as the
// plan its bound execution would run (unbound names still render as
// placeholders). With asJSON it prints the structured PlanTree instead.
func (sh *shell) explainQuery(doc string, asJSON bool) {
	sh.db.Run(func(c *a1.Ctx) {
		tree, err := sh.db.ExplainPlan(c, sh.g, doc, sh.bindings)
		if err != nil {
			fmt.Printf("error: %v\n", err)
			return
		}
		if asJSON {
			blob, err := json.MarshalIndent(tree, "", "  ")
			if err != nil {
				fmt.Printf("error: %v\n", err)
				return
			}
			fmt.Println(string(blob))
			return
		}
		fmt.Print(tree.String())
	})
}

// runQuery prepares the document (plan cache), binds the shell's :let
// values, and streams the result through a Rows cursor — no manual Fetch
// paging.
func (sh *shell) runQuery(doc string) {
	if sh.explainNext {
		sh.explainNext = false
		sh.explainQuery(doc, sh.explainJSON)
		return
	}
	sh.db.Run(func(c *a1.Ctx) {
		pq, err := sh.db.Prepare(c, sh.g, doc)
		if err != nil {
			fmt.Printf("error: %v\n", err)
			return
		}
		params := a1.Params{}
		for _, name := range pq.ParamNames() {
			if v, ok := sh.bindings[name]; ok {
				params[name] = v
			}
		}
		rows, err := pq.ExecRows(c, params)
		if err != nil {
			fmt.Printf("error: %v\n", err)
			return
		}
		defer rows.Close(c)
		res := rows.Result()
		if res.HasCount {
			fmt.Printf("count: %d\n", res.Count)
		}
		if len(res.Aggregates) > 0 {
			keys := make([]string, 0, len(res.Aggregates))
			for k := range res.Aggregates {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				if k == "_count(*)" && res.HasCount {
					continue // already printed
				}
				fmt.Printf("  %s = %v\n", k, res.Aggregates[k])
			}
		}
		if len(res.Groups) > 0 {
			// Grouped results: the Rows cursor iterates rows only, so drive
			// the group pages through Fetch ourselves. Every page's token
			// names the cursor's one continuation entry, so the deferred
			// Close releases whatever the print cap leaves unread.
			printed, truncated := 0, false
			printGroups(res.Groups, &printed, &truncated)
			for token := res.Continuation; token != "" && !truncated; {
				page, err := sh.db.Fetch(c, token)
				if err != nil {
					fmt.Printf("error: %v\n", err)
					return
				}
				printGroups(page.Groups, &printed, &truncated)
				token = page.Continuation
			}
			if truncated {
				fmt.Printf("... group output capped at %d (add _limit to shape the result)\n", maxPrintRows)
			}
		} else {
			printed := 0
			truncated := false
			for rows.Next(c) {
				if printed >= maxPrintRows {
					truncated = true
					break
				}
				row := rows.Row()
				if len(row.Values) == 0 {
					fmt.Printf("  %v\n", row.Vertex.Addr)
				} else {
					cols := make([]string, 0, len(row.Values))
					for k := range row.Values {
						cols = append(cols, k)
					}
					sort.Strings(cols)
					var parts []string
					for _, k := range cols {
						parts = append(parts, fmt.Sprintf("%s=%s", k, row.Values[k]))
					}
					fmt.Printf("  %s\n", strings.Join(parts, "  "))
				}
				printed++
			}
			if err := rows.Err(); err != nil {
				fmt.Printf("error: %v\n", err)
				return
			}
			if truncated {
				fmt.Printf("... output capped at %d rows (cursor closed; add _limit to shape the result)\n", maxPrintRows)
			}
		}
		s := res.Stats
		cacheNote := ""
		if s.PlanCacheHits > 0 {
			cacheNote = ", plan cache hit"
		}
		groupNote := ""
		if s.GroupsShipped > 0 || s.GroupsFiltered > 0 {
			groupNote = fmt.Sprintf(", %d groups shipped, %d filtered", s.GroupsShipped, s.GroupsFiltered)
		}
		fmt.Printf("(%d hops, %d vertices, %d objects read, %.0f%% local, %d rpcs%s%s)\n",
			s.Hops, s.VerticesRead, s.ObjectsRead, s.LocalFrac*100, s.RPCs, cacheNote, groupNote)
		if len(s.Levels) > 0 {
			var parts []string
			for _, lv := range s.Levels {
				est := "est=?"
				if lv.EstRows >= 0 {
					est = fmt.Sprintf("est=%d", lv.EstRows)
				}
				parts = append(parts, fmt.Sprintf("L%d %s %s act=%d", lv.Depth, lv.Source, est, lv.ActRows))
			}
			fmt.Printf("plan: %s\n", strings.Join(parts, " | "))
		}
	})
}

// analyze rebuilds the graph's statistics from a full scan and prints the
// summary the planner runs on.
func (sh *shell) analyze() {
	sh.db.Run(func(c *a1.Ctx) {
		sum, err := sh.db.Analyze(c, sh.g)
		if err != nil {
			fmt.Printf("error: %v\n", err)
			return
		}
		types := make([]string, 0, len(sum.Types))
		for name := range sum.Types {
			types = append(types, name)
		}
		sort.Strings(types)
		for _, name := range types {
			ts := sum.Types[name]
			fmt.Printf("type %s: %d vertices\n", name, ts.Count)
			fields := make([]string, 0, len(ts.Fields))
			for f := range ts.Fields {
				fields = append(fields, f)
			}
			sort.Strings(fields)
			for _, f := range fields {
				fs := ts.Fields[f]
				line := fmt.Sprintf("  %s: %d values, ~%d distinct", f, fs.Count, fs.Distinct)
				if len(fs.TopK) > 0 {
					line += fmt.Sprintf(", top %v (%d)", fs.TopK[0].Value, fs.TopK[0].Count)
				}
				fmt.Println(line)
			}
		}
		labels := make([]string, 0, len(sum.Edges))
		for name := range sum.Edges {
			labels = append(labels, name)
		}
		sort.Strings(labels)
		for _, name := range labels {
			es := sum.Edges[name]
			fmt.Printf("edge %s: %d edges, mean out-degree %.1f\n", name, es.Count, es.MeanOutDegree())
		}
	})
}

// printGroups renders group rows up to the print cap, flagging truncation.
func printGroups(groups []a1.GroupRow, printed *int, truncated *bool) {
	for _, gr := range groups {
		if *printed >= maxPrintRows {
			*truncated = true
			return
		}
		var parts []string
		keys := make([]string, 0, len(gr.Keys))
		for k := range gr.Keys {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%s=%v", k, gr.Keys[k]))
		}
		aggs := make([]string, 0, len(gr.Aggregates))
		for k := range gr.Aggregates {
			aggs = append(aggs, k)
		}
		sort.Strings(aggs)
		for _, k := range aggs {
			parts = append(parts, fmt.Sprintf("%s=%v", k, gr.Aggregates[k]))
		}
		fmt.Printf("  %s\n", strings.Join(parts, "  "))
		*printed++
	}
}

func (sh *shell) command(cmd string) bool {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case ":quit", ":q", ":exit":
		return false
	case ":let":
		sh.let(cmd, fields)
	case ":unlet":
		if len(fields) != 2 {
			fmt.Println("usage: :unlet name")
			break
		}
		delete(sh.bindings, fields[1])
	case ":open":
		if len(fields) != 2 {
			fmt.Println("usage: :open film | zipf")
			break
		}
		sh.open(fields[1])
	case ":explain":
		rest := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(cmd), ":explain"))
		asJSON := false
		if rest == "-json" || strings.HasPrefix(rest, "-json ") || strings.HasPrefix(rest, "-json\t") {
			asJSON = true
			rest = strings.TrimSpace(strings.TrimPrefix(rest, "-json"))
		}
		if rest != "" {
			sh.explainQuery(rest, asJSON)
			break
		}
		sh.explainNext = true
		sh.explainJSON = asJSON
		fmt.Println("explain armed: the next document prints its operator tree instead of executing")
	case ":analyze":
		sh.analyze()
	case ":stats":
		m := &sh.db.Fabric().Metrics
		hits, misses := sh.db.Engine().PlanCacheStats()
		fmt.Printf("cluster: %d machines, %d bytes allocated\n", sh.db.Fabric().Machines(), sh.db.UsedBytes())
		fmt.Printf("fabric: %d local reads, %d remote reads, %d rpcs, %d writes\n",
			m.LocalReads.Load(), m.RemoteReads.Load(), m.RPCs.Load(), m.RemoteWrites.Load())
		fmt.Printf("plan cache: %d hits, %d misses\n", hits, misses)
	case ":examples":
		fmt.Println("-- Q1: actors who worked with Spielberg")
		fmt.Println(bench.Q1)
		fmt.Println("-- Q2: actors who played Batman")
		fmt.Println(bench.Q2)
		fmt.Println("-- Q3: war movies with Hanks and Spielberg")
		fmt.Println(bench.Q3)
		fmt.Println("-- top-K: Spielberg's five most popular films (_orderby + _limit)")
		fmt.Println(bench.QTopFilms)
		fmt.Println("-- aggregates: stats over Spielberg's filmography (_sum/_min/_max/_avg)")
		fmt.Println(bench.QFilmStats)
		fmt.Println("-- grouped aggregates: Spielberg's films per release year (_groupby)")
		fmt.Println(bench.QFilmsByYear)
		fmt.Println("-- parameters: bind with :let, then reference \"$name\" (prepared once, re-run cheaply)")
		fmt.Println(`:let director "steven.spielberg"`)
		fmt.Println(`:let k 5`)
		fmt.Println(bench.QTopFilmsParam)
	case ":help":
		fmt.Println(":open name         switch workload graph: film (default) | zipf (skewed, indexed category/score)")
		fmt.Println(":let               list parameter bindings")
		fmt.Println(":let name value    bind $name (value is JSON: 42, 3.5, \"str\", true)")
		fmt.Println(":unlet name        remove a binding")
		fmt.Println(":explain [doc]     print the compiled operator tree with est=N cardinalities, using current :let bindings (no doc: applies to the next document)")
		fmt.Println(":explain -json     same, as the structured PlanTree JSON (tooling form)")
		fmt.Println(":analyze           rebuild graph statistics from a full scan and print them")
		fmt.Println(":stats             cluster + fabric + plan cache counters")
		fmt.Println(":examples          the paper's Table 2 queries plus shaping/parameter examples")
		fmt.Println(":quit              exit")
		fmt.Println()
		fmt.Println("documents may use \"$name\" parameters (id, predicate values, _limit/_skip);")
		fmt.Println("every document is prepared once and re-executions hit the plan cache;")
		fmt.Println("large results stream through a cursor — no manual continuation paging")
	default:
		fmt.Printf("unknown command %s (:help)\n", cmd)
	}
	return true
}

// let implements `:let` (list) and `:let name value` (bind). Values parse
// as JSON; unparseable values bind as bare strings for convenience.
func (sh *shell) let(cmd string, fields []string) {
	if len(fields) == 1 {
		if len(sh.bindings) == 0 {
			fmt.Println("no bindings (use :let name value)")
			return
		}
		names := make([]string, 0, len(sh.bindings))
		for n := range sh.bindings {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  $%s = %v\n", n, sh.bindings[n])
		}
		return
	}
	name := fields[1]
	rest := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(cmd), ":let"))
	rest = strings.TrimSpace(strings.TrimPrefix(rest, name))
	if rest == "" {
		fmt.Println("usage: :let name value")
		return
	}
	dec := json.NewDecoder(bytes.NewReader([]byte(rest)))
	dec.UseNumber()
	var v interface{}
	if err := dec.Decode(&v); err != nil {
		v = rest // bare string
	}
	sh.bindings[name] = v
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "a1shell:", err)
	os.Exit(1)
}
