// Command a1lint is the multichecker driver for the engine's
// project-specific analyzers (internal/lint): the distributed-correctness
// contracts — deterministic map handling in output paths, no
// machine-local lock spanning a fabric round trip, one global
// lock-acquisition order, batched frontier reads, and byte accounting
// without throwaway encodings — enforced as build failures.
//
// Usage:
//
//	a1lint [-only name,...] [-list] [-json file] [packages]
//
// Packages default to ./... relative to the current directory. Findings
// print as file:line:col: message (analyzer) and make the exit status
// non-zero. -json additionally writes every finding — including
// suppressed ones, marked as such — as a JSON array to the given file
// ("-" for stdout), for CI artifacts and tooling; a clean run writes an
// empty array. Suppress an individual finding with
//
//	//lint:ignore a1/<analyzer> <written justification>
//
// on (or directly above) the offending line; directives without a
// justification, and directives that no longer match anything, are
// themselves findings.
//
// The driver runs standalone; `go vet -vettool` integration needs the
// x/tools unitchecker protocol and is gated on that dependency being
// admitted (the analyzers are written against an API-compatible shim, so
// the switch is mechanical).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"a1/internal/lint"
	"a1/internal/lint/analysis"
	"a1/internal/lint/load"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	verbose := flag.Bool("v", false, "also print suppressed findings with their justifications")
	jsonOut := flag.String("json", "", "write findings (including suppressed) as JSON to this file; \"-\" for stdout")
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		names := strings.Split(*only, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
		sel, ok := lint.ByName(names)
		if !ok {
			fmt.Fprintf(os.Stderr, "a1lint: unknown analyzer in -only=%s (try -list)\n", *only)
			os.Exit(2)
		}
		analyzers = sel
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	prog, err := load.Load(".", patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "a1lint: %v\n", err)
		os.Exit(2)
	}
	// Unused-suppression checking is only sound when every analyzer runs:
	// a directive for a deselected analyzer is not stale.
	checkUnused := len(analyzers) == len(lint.All())
	res, err := analysis.Run(prog, analyzers, checkUnused)
	if err != nil {
		fmt.Fprintf(os.Stderr, "a1lint: %v\n", err)
		os.Exit(2)
	}

	cwd, _ := os.Getwd()
	for _, d := range append(res.Diagnostics, res.Problems...) {
		fmt.Printf("%s: %s (%s)\n", relPos(cwd, d), d.Message, d.Analyzer)
	}
	if *verbose {
		for _, d := range res.Suppressed {
			fmt.Printf("%s: suppressed: %s (%s)\n", relPos(cwd, d), d.Message, d.Analyzer)
		}
	}
	// The JSON artifact is written before the exit status is decided so a
	// failing CI run still uploads its findings.
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, cwd, res); err != nil {
			fmt.Fprintf(os.Stderr, "a1lint: writing %s: %v\n", *jsonOut, err)
			os.Exit(2)
		}
	}
	if n := len(res.Diagnostics) + len(res.Problems); n > 0 {
		fmt.Fprintf(os.Stderr, "a1lint: %d finding(s)\n", n)
		os.Exit(1)
	}
}

// jsonFinding is one machine-readable finding. Suppressed findings are
// included and flagged, so the artifact records sanctioned sites too.
type jsonFinding struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

func writeJSON(path, cwd string, res *analysis.Result) error {
	findings := []jsonFinding{} // non-nil: a clean run is an empty array
	add := func(ds []analysis.Diagnostic, suppressed bool) {
		for _, d := range ds {
			name := d.Pos.Filename
			if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
				name = rel
			}
			findings = append(findings, jsonFinding{
				File: name, Line: d.Pos.Line, Col: d.Pos.Column,
				Analyzer: d.Analyzer, Message: d.Message, Suppressed: suppressed,
			})
		}
	}
	add(res.Diagnostics, false)
	add(res.Problems, false)
	add(res.Suppressed, true)
	out, err := json.MarshalIndent(findings, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "-" {
		_, err := os.Stdout.Write(out)
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

func relPos(cwd string, d analysis.Diagnostic) string {
	name := d.Pos.Filename
	if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
		name = rel
	}
	return fmt.Sprintf("%s:%d:%d", name, d.Pos.Line, d.Pos.Column)
}
