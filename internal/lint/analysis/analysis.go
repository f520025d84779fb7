// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary: named analyzers run over
// type-checked packages and report position-tagged diagnostics.
//
// The real x/tools module is not vendored into this repository (the build
// is intentionally stdlib-only), so the engine's project-specific
// analyzers (internal/lint) are written against this shim instead. The
// API mirrors x/tools closely enough that migrating to the upstream
// framework — and gaining `go vet -vettool` unitchecker support for free
// — is a mechanical rename if the dependency is ever admitted.
package analysis

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Package is one type-checked package under analysis.
type Package struct {
	// Path is the import path (e.g. "a1/internal/query"). Analyzers scope
	// themselves by it.
	Path string
	// Files are the parsed source files, with comments.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// TypesInfo records type and object resolution for every expression.
	TypesInfo *types.Info
}

// Program is a set of packages loaded for analysis, sharing one FileSet.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package // sorted by Path

	callGraph *CallGraph // built lazily by CallGraph()
}

// Pass carries one analyzer's view of one package (or, for program-level
// analyzers, of the whole program).
type Pass struct {
	Analyzer *Analyzer
	// Pkg is the package under analysis; nil for a program-level pass.
	Pkg *Package
	// Program is the full loaded program (always set): program-level
	// analyzers iterate it, package-level analyzers may peek for context.
	Program *Program

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Program.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportAt records a diagnostic at an already-resolved position, for
// analyzers that aggregate many sites before deciding where to anchor
// one finding.
func (p *Pass) ReportAt(pos token.Position, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string // analyzer name, e.g. "a1/maporder"
	Pos      token.Position
	Message  string
}

// Analyzer is one named check. Exactly one of Run (invoked once per
// package) or RunProgram (invoked once over the whole program) must be
// set.
type Analyzer struct {
	// Name is the analyzer's identity, conventionally "a1/<check>"; it is
	// what suppression comments reference.
	Name string
	// Doc is the one-paragraph contract the analyzer enforces.
	Doc string
	// Run analyzes one package. Package-scoped analyzers check
	// pass.Pkg.Path themselves and return nil for out-of-scope packages.
	Run func(*Pass) error
	// RunProgram analyzes the whole program at once (interprocedural
	// contracts like a1/locks).
	RunProgram func(*Pass) error
}

// Result is the outcome of running a set of analyzers: diagnostics that
// survived suppression, suppressions that fired, and suppression problems
// (missing justification, or — when checked — matching nothing).
type Result struct {
	Diagnostics []Diagnostic
	Suppressed  []Diagnostic // findings silenced by a valid //lint:ignore
	// Problems are misuses of the suppression mechanism, reported like
	// findings so they gate the build too.
	Problems []Diagnostic
}

// Run executes analyzers over prog, applies //lint:ignore suppressions,
// and returns the combined result. When checkUnused is true (the
// multichecker driver, where every analyzer runs), suppression comments
// that silenced nothing are reported as problems so stale ignores rot
// loudly.
func Run(prog *Program, analyzers []*Analyzer, checkUnused bool) (*Result, error) {
	var raw []Diagnostic
	for _, a := range analyzers {
		if (a.Run == nil) == (a.RunProgram == nil) {
			return nil, fmt.Errorf("analyzer %s: exactly one of Run or RunProgram must be set", a.Name)
		}
		if a.RunProgram != nil {
			pass := &Pass{Analyzer: a, Program: prog, diags: &raw}
			if err := a.RunProgram(pass); err != nil {
				return nil, fmt.Errorf("%s: %w", a.Name, err)
			}
			continue
		}
		for _, pkg := range prog.Packages {
			pass := &Pass{Analyzer: a, Pkg: pkg, Program: prog, diags: &raw}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s (%s): %w", a.Name, pkg.Path, err)
			}
		}
	}

	sups := CollectSuppressions(prog)
	res := &Result{}
	for _, d := range raw {
		if s := match(sups, d); s != nil {
			s.used = true
			res.Suppressed = append(res.Suppressed, d)
			continue
		}
		res.Diagnostics = append(res.Diagnostics, d)
	}
	for _, s := range sups {
		if s.Malformed {
			res.Problems = append(res.Problems, Diagnostic{
				Analyzer: "a1/ignore",
				Pos:      s.Pos,
				Message:  fmt.Sprintf("//lint:ignore %s needs a written justification after the analyzer name", s.Analyzer),
			})
		} else if checkUnused && !s.used {
			res.Problems = append(res.Problems, Diagnostic{
				Analyzer: "a1/ignore",
				Pos:      s.Pos,
				Message:  fmt.Sprintf("//lint:ignore %s matched no finding; delete the stale suppression", s.Analyzer),
			})
		}
	}
	sortDiags(res.Diagnostics)
	sortDiags(res.Suppressed)
	sortDiags(res.Problems)
	return res, nil
}

// sortDiags orders findings by position, then analyzer and message, so
// output is stable however the analyzers emitted them.
func sortDiags(ds []Diagnostic) {
	slices.SortFunc(ds, func(a, b Diagnostic) int {
		return cmp.Or(
			ComparePos(a.Pos, b.Pos),
			strings.Compare(a.Analyzer, b.Analyzer),
			strings.Compare(a.Message, b.Message))
	})
}

// ComparePos orders positions by file, line and column.
func ComparePos(a, b token.Position) int {
	return cmp.Or(
		strings.Compare(a.Filename, b.Filename),
		cmp.Compare(a.Line, b.Line),
		cmp.Compare(a.Column, b.Column))
}
