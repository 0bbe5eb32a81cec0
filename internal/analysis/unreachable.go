package analysis

import (
	"strings"

	"github.com/asamap/asamap/internal/analysis/callgraph"
)

// Unreachable reports declared functions that no entry point reaches
// through the call graph. The entry points are every main function, every
// package initializer (which runs the package-level var initializers and
// calls the init functions), and the exported API of every importable
// package: one neither main nor under internal/, which here is the root
// package asamap. A function only tests call stays only as a test oracle or
// a shared fixture, with a suppression naming the tests that use it.
//
// Only a graph of the whole program can show that a function has no caller,
// so the analyzer runs only over a Whole graph. It does not report in
// perfbench (benchmark code) or in test-support packages, whose names end
// in "test" by the httptest convention.
var Unreachable = &Analyzer{
	Name:      "unreachable",
	Doc:       "flag functions that no main, init, package initializer or importable exported API reaches",
	AppliesTo: PathNotIn("perfbench"),
	Whole:     true,
	Run:       runUnreachable,
}

func runUnreachable(pass *Pass) error {
	if strings.HasSuffix(pass.PkgName, "test") {
		return nil
	}
	g := pass.Graph
	var roots []*callgraph.Node
	for _, n := range g.Nodes() {
		if isEntryPoint(n) {
			roots = append(roots, n)
		}
	}
	via := g.Reachable(roots, nil)
	for _, n := range g.Nodes() {
		if n.PkgPath != pass.PkgPath || n.Decl == nil {
			continue
		}
		if _, ok := via[n]; !ok {
			pass.Reportf(n.Decl.Pos(), "%s is unreachable: no main, init, package initializer or importable exported API calls it", n.Name)
		}
	}
	return nil
}

// isEntryPoint reports whether n runs without a caller in the program.
func isEntryPoint(n *callgraph.Node) bool {
	switch {
	case n.Decl == nil:
		return n.Lit == nil // the package initializer
	case n.Unit.Name == "main":
		return n.Decl.Recv == nil && n.Decl.Name.Name == "main"
	}
	return n.Decl.Name.IsExported() && !strings.Contains("/"+n.PkgPath+"/", "/internal/")
}
