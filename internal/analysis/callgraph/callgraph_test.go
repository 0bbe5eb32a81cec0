package callgraph_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"testing"

	"github.com/asamap/asamap/internal/analysis/callgraph"
)

// buildUnit parses and type-checks files (name -> source) into one Unit with
// its own FileSet, mirroring what the analysis loader produces.
func buildUnit(t *testing.T, files map[string]string) *callgraph.Unit {
	t.Helper()
	fset := token.NewFileSet()
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	var asts []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, files[name], parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		asts = append(asts, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check("fix", fset, asts, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return &callgraph.Unit{Path: "fix", Name: "fix", Fset: fset, Files: asts, Info: info, Pkg: pkg}
}

func build(t *testing.T, files map[string]string) *callgraph.Graph {
	t.Helper()
	return callgraph.Build([]*callgraph.Unit{buildUnit(t, files)})
}

// node returns the node with the given ID, or nil.
func node(g *callgraph.Graph, id string) *callgraph.Node {
	for _, n := range g.Nodes() {
		if n.ID == id {
			return n
		}
	}
	return nil
}

// edgeIDs renders node's outgoing edges as "kind:calleeID", sorted.
func edgeIDs(n *callgraph.Node) []string {
	var out []string
	for _, e := range n.Out {
		if e.Callee != nil {
			out = append(out, e.Kind.String()+":"+e.Callee.ID)
		}
	}
	sort.Strings(out)
	return out
}

func wantEdges(t *testing.T, n *callgraph.Node, want ...string) {
	t.Helper()
	if n == nil {
		t.Fatal("node not found")
	}
	got := edgeIDs(n)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("edges of %s = %v, want %v", n.ID, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edges of %s = %v, want %v", n.ID, got, want)
		}
	}
}

func TestCrossFileStaticCall(t *testing.T) {
	g := build(t, map[string]string{
		"a.go": "package fix\n\nfunc A() { B() }\n",
		"b.go": "package fix\n\nfunc B() {}\n",
	})
	wantEdges(t, node(g, "fix.A"), "static:fix.B")
}

func TestInterfaceDispatchFanOut(t *testing.T) {
	g := build(t, map[string]string{"a.go": `package fix

type runner interface{ Run() }

type fast struct{}

func (fast) Run() {}

type slow struct{}

func (*slow) Run() {}

type other struct{}

func (other) Stop() {}

func drive(r runner) { r.Run() }
`})
	// Both concrete implementations are conservative fan-out targets; other
	// has no Run method and is excluded.
	wantEdges(t, node(g, "fix.drive"), "dispatch:fix.fast.Run", "dispatch:fix.(*slow).Run")
}

func TestMethodValueRef(t *testing.T) {
	g := build(t, map[string]string{"a.go": `package fix

type fast struct{}

func (fast) Run() {}

func helper() {}

func pick(f fast) (func(), func()) {
	return f.Run, helper
}
`})
	// Referencing a method or function as a value is a Ref edge: whoever
	// receives the value may call it.
	wantEdges(t, node(g, "fix.pick"), "ref:fix.fast.Run", "ref:fix.helper")
}

func TestRecursionAndReachability(t *testing.T) {
	g := build(t, map[string]string{"a.go": `package fix

import "sync"

type guarded struct{ mu sync.Mutex }

func (g *guarded) a() { g.mu.Lock(); g.b(); g.mu.Unlock() }

func (g *guarded) b() { g.a() }

func loop() { loop() }

func apart() {}
`})
	a := node(g, "fix.(*guarded).a")
	b := node(g, "fix.(*guarded).b")
	if a == nil || b == nil {
		t.Fatal("mutual-recursion nodes missing")
	}
	via := g.Reachable([]*callgraph.Node{a}, nil)
	if via[a] != a || via[b] != a {
		t.Fatalf("Reachable(a) = %v, want a and b mapped to a", via)
	}
	if _, ok := via[node(g, "fix.apart")]; ok {
		t.Fatal("Reachable(a) reached an unconnected function")
	}
	// The memoized transitive queries must terminate through the cycle and
	// still surface a's lock from b.
	locks := g.TransitiveLocks(b)
	if len(locks) == 0 || locks[0].Lock != "fix.guarded.mu" {
		t.Fatalf("TransitiveLocks(b) = %v, want fix.guarded.mu", locks)
	}
	self := node(g, "fix.loop")
	via = g.Reachable([]*callgraph.Node{self}, nil)
	if len(via) != 1 || via[self] != self {
		t.Fatalf("Reachable(loop) = %v, want just loop", via)
	}
}

func TestClosureNodesAndEdges(t *testing.T) {
	g := build(t, map[string]string{"a.go": `package fix

func inner() {}

func outer() {
	f := func() { inner() }
	g := func() {}
	f()
	g()
}
`})
	// Literals are numbered in source order against the declared parent.
	wantEdges(t, node(g, "fix.outer"), "closure:fix.outer$0", "closure:fix.outer$1")
	wantEdges(t, node(g, "fix.outer$0"), "static:fix.inner")
	wantEdges(t, node(g, "fix.outer$1"))
}

// TestPackageInitializerEdges pins the package initializer node: it owns
// the calls, function values and literals of package-level var
// initializers, across files, and calls the declared init functions.
func TestPackageInitializerEdges(t *testing.T) {
	g := build(t, map[string]string{
		"a.go": `package fix

var table = map[string]func(){"x": runX}

var size = measure()

func runX() {}

func measure() int { return 1 }

func init() { setup() }

func setup() {}
`,
		"b.go": `package fix

var handler = func() { helper() }

func helper() {}

func init() {}
`})
	wantEdges(t, node(g, "fix.init"),
		"ref:fix.runX", "static:fix.measure", "closure:fix.init$0",
		"static:fix.init#1", "static:fix.init#2")
	wantEdges(t, node(g, "fix.init$0"), "static:fix.helper")
	wantEdges(t, node(g, "fix.init#1"), "static:fix.setup")
}

// TestInterfaceConversionEdges pins the edges for methods that code outside
// the graph calls after a concrete value is converted to one of its
// interfaces: by composite-literal field, return, assignment, argument,
// explicit conversion and channel send. A conversion to any reaches the
// methods by which the value, or a value it contains, implements an outside
// interface (fmt.Stringer here). An interface declared in the graph gets no
// such edge: its calls are in the graph.
func TestInterfaceConversionEdges(t *testing.T) {
	g := build(t, map[string]string{"a.go": `package fix

import (
	"fmt"
	"net/http"
)

type transport struct{}

func (transport) RoundTrip(*http.Request) (*http.Response, error) { return nil, nil }

func (transport) Close() {}

type name struct{}

func (name) String() string { return "" }

func (name) Quantile() int { return 0 }

type wrapper struct{ n name }

type failure struct{}

func (failure) Error() string { return "" }

type local interface{ Local() }

type impl struct{}

func (impl) Local() {}

func field() *http.Client { return &http.Client{Transport: transport{}} }

func ret() http.RoundTripper { return transport{} }

func assign() {
	var rt http.RoundTripper
	rt = transport{}
	_ = rt
}

func arg() { fmt.Println(wrapper{}) }

func conv() { _ = fmt.Stringer(name{}) }

func send(ch chan error) { ch <- failure{} }

func inGraph() {
	var l local = impl{}
	_ = l
}
`})
	wantEdges(t, node(g, "fix.field"), "ref:fix.transport.RoundTrip")
	wantEdges(t, node(g, "fix.ret"), "ref:fix.transport.RoundTrip")
	wantEdges(t, node(g, "fix.assign"), "ref:fix.transport.RoundTrip")
	wantEdges(t, node(g, "fix.arg"), "ref:fix.name.String")
	wantEdges(t, node(g, "fix.conv"), "ref:fix.name.String")
	wantEdges(t, node(g, "fix.send"), "ref:fix.failure.Error")
	wantEdges(t, node(g, "fix.inGraph"))
}
