package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// checkProgram type-checks synthetic single-file packages (path → source)
// into a Program. Packages may import each other; listed in dependency
// order.
func checkProgram(t *testing.T, pkgs [][2]string) *Program {
	t.Helper()
	fset := token.NewFileSet()
	prog := &Program{Fset: fset}
	imp := mapImporter{}
	for _, ps := range pkgs {
		path, src := ps[0], ps[1]
		f, err := parser.ParseFile(fset, path+"/src.go", src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing %s: %v", path, err)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(path, fset, []*ast.File{f}, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
		imp[path] = tpkg
		prog.Packages = append(prog.Packages, &Package{
			Path: path, Files: []*ast.File{f}, Types: tpkg, TypesInfo: info,
		})
	}
	return prog
}

type mapImporter map[string]*types.Package

func (m mapImporter) Import(path string) (*types.Package, error) {
	if p, ok := m[path]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("unknown import %q", path)
}

func nodeByName(t *testing.T, g *CallGraph, name string) *CallNode {
	t.Helper()
	for _, n := range g.Functions() {
		if n.Func.Name() == name {
			return n
		}
	}
	t.Fatalf("no call-graph node named %s", name)
	return nil
}

func calleeNames(n *CallNode) []string {
	var out []string
	for _, e := range n.Out {
		out = append(out, e.Callee.Name())
	}
	return out
}

func TestCallGraphStaticAndMethodEdges(t *testing.T) {
	prog := checkProgram(t, [][2]string{
		{"lib", `package lib
type T struct{}
func (t *T) M() { helper() }
func helper() {}
`},
		{"app", `package app
import "lib"
func Run(t *lib.T) {
	t.M()
	use(func() { t.M() }) // closure call attributed to Run
}
func use(f func()) { f() }
`},
	})
	g := prog.CallGraph()

	run := nodeByName(t, g, "Run")
	got := calleeNames(run)
	// Run calls t.M (method resolved by receiver type), use, and t.M
	// again inside the closure.
	want := map[string]int{"M": 2, "use": 1}
	counts := map[string]int{}
	for _, n := range got {
		counts[n]++
	}
	for name, n := range want {
		if counts[name] != n {
			t.Errorf("Run edges: got %v, want %d edges to %s", got, n, name)
		}
	}

	m := nodeByName(t, g, "M")
	if names := calleeNames(m); len(names) != 1 || names[0] != "helper" {
		t.Errorf("M edges = %v, want [helper]", names)
	}
}

func TestCallGraphInterfaceFanOut(t *testing.T) {
	prog := checkProgram(t, [][2]string{
		{"shape", `package shape
type Closer interface{ Close() }
type File struct{}
func (f *File) Close() {}
type Conn struct{}
func (c Conn) Close() {}
type Unrelated struct{}
func (u *Unrelated) Open() {}
func Shut(c Closer) { c.Close() }
`},
	})
	g := prog.CallGraph()
	shut := nodeByName(t, g, "Shut")
	var abstract []string
	for _, e := range shut.Out {
		if !e.Abstract {
			t.Errorf("edge to %s not marked abstract", e.Callee.Name())
		}
		abstract = append(abstract, e.Callee.FullName())
	}
	if len(abstract) != 2 {
		t.Fatalf("Shut fan-out = %v, want the two Close implementations", abstract)
	}
}

func TestSCCsCalleesFirst(t *testing.T) {
	prog := checkProgram(t, [][2]string{
		{"rec", `package rec
func A() { B() }
func B() { A(); C() }
func C() { D() }
func D() {}
`},
	})
	g := prog.CallGraph()
	sccs := SCCs(g.Functions(), g.callees)

	pos := map[string]int{} // function name → SCC index
	size := map[string]int{}
	for i, comp := range sccs {
		for _, n := range comp {
			pos[n.Func.Name()] = i
			size[n.Func.Name()] = len(comp)
		}
	}
	if pos["A"] != pos["B"] || size["A"] != 2 {
		t.Errorf("A and B should share a 2-node SCC: pos=%v size=%v", pos, size)
	}
	// Callees-first: D before C before {A,B}.
	if !(pos["D"] < pos["C"] && pos["C"] < pos["A"]) {
		t.Errorf("SCC order not callees-first: pos=%v", pos)
	}
}

// TestBottomUp: a summary set at a leaf reaches every transitive caller,
// through a mutually recursive pair, and nothing that does not call it.
func TestBottomUp(t *testing.T) {
	prog := checkProgram(t, [][2]string{
		{"rec", `package rec
func Top() { A() }
func A() { B() }
func B() { A(); Leaf() }
func Leaf() {}
func Other() {}
`},
	})
	g := prog.CallGraph()
	reaches := map[*types.Func]bool{}
	BottomUp(g, func(n *CallNode) bool {
		if reaches[n.Func] {
			return false
		}
		for _, e := range n.Out {
			if reaches[e.Callee] || e.Callee.Name() == "Leaf" {
				reaches[n.Func] = true
				return true
			}
		}
		return false
	})
	var got []string
	for _, n := range g.Functions() {
		if reaches[n.Func] {
			got = append(got, n.Func.Name())
		}
	}
	if fmt.Sprint(got) != "[Top A B]" {
		t.Errorf("functions reaching Leaf = %v, want [Top A B]", got)
	}
}
