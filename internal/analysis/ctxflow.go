package analysis

import (
	"go/ast"
	"strings"

	"github.com/asamap/asamap/internal/analysis/callgraph"
)

// Ctxflow enforces the cancellation contract introduced in PR 1 and promoted
// to an API guarantee by the detection service:
//
//  1. context.Background() / context.TODO() are banned in library code.
//     A library that mints its own root context detaches itself from the
//     caller's cancellation; only package main (and tests) own roots.
//     Exception: the adapter pattern — a function with no context parameter
//     whose return statement delegates straight to its *Context twin
//     (func Run(...) { return RunContext(context.Background(), ...) }) is
//     the blessed non-context convenience entry point and needs no
//     suppression.
//
//  2. In kernel/service packages, a function that takes a context.Context
//     must remain preemptible: every blocking select it contains (a select
//     without a default clause) must include a <-ctx.Done() case. A blocking
//     select that cannot observe ctx is a stall that outlives the caller's
//     deadline. The rule is interprocedural: it binds exported functions
//     and every unexported context-taking function reachable from one
//     through the call graph, so pushing the select into a helper does not
//     launder the contract.
var Ctxflow = &Analyzer{
	Name: "ctxflow",
	Doc: "ban context.Background/TODO in library code; require <-ctx.Done() in " +
		"blocking selects of context-taking kernel functions reachable from the exported API",
	AppliesTo: PathNotIn("internal/clock", "internal/rng"),
	Run:       runCtxflow,
}

// ctxflowKernelScope is the package set under the stricter select rule.
var ctxflowKernelScope = PathIn(
	"internal/infomap", "internal/pagerank", "internal/dist",
	"internal/serve", "internal/sched", "internal/mapeq",
)

func runCtxflow(pass *Pass) error {
	isMain := pass.PkgName == "main"
	kernel := ctxflowKernelScope(pass.PkgPath)
	var reach map[*callgraph.Node]*callgraph.Node // lazily built per package
	for _, f := range pass.Files {
		imports := packageNames(f)
		ctxPkg := ""
		for name, path := range imports {
			if path == "context" {
				ctxPkg = name
			}
		}
		if ctxPkg == "" {
			continue
		}
		for _, decl := range f.Decls {
			fd, isFunc := decl.(*ast.FuncDecl)
			if !isMain {
				reportMintedRoots(pass, decl, ctxPkg)
			}
			if !kernel || !isFunc || fd.Body == nil {
				continue
			}
			ctxName := contextParamName(fd, ctxPkg)
			if ctxName == "" || ctxName == "_" {
				continue
			}
			if fd.Name.IsExported() {
				checkSelectsObserveCtx(pass, fd, ctxName, "exported "+fd.Name.Name)
				continue
			}
			if pass.Graph == nil {
				continue
			}
			if reach == nil {
				reach = ctxReachableSet(pass.Graph)
			}
			node := pass.Graph.DeclNode(fd)
			if node == nil {
				continue
			}
			if root, ok := reach[node]; ok && root != node {
				checkSelectsObserveCtx(pass, fd, ctxName,
					fd.Name.Name+" (reachable from exported "+root.Name+")")
			}
		}
	}
	return nil
}

// ctxReachableSet maps every kernel-scope node reachable from an exported
// context-taking kernel function to that root.
func ctxReachableSet(g *callgraph.Graph) map[*callgraph.Node]*callgraph.Node {
	var roots []*callgraph.Node
	for _, n := range g.Nodes() {
		if n.Decl == nil || !n.Decl.Name.IsExported() || !ctxflowKernelScope(n.PkgPath) {
			continue
		}
		if ctx := g.Summary(n).CtxParam; ctx != "" && ctx != "_" {
			roots = append(roots, n)
		}
	}
	return g.Reachable(roots, func(n *callgraph.Node) bool { return ctxflowKernelScope(n.PkgPath) })
}

// reportMintedRoots flags context.Background()/TODO() calls under decl,
// except inside the adapter pattern (see the analyzer doc).
func reportMintedRoots(pass *Pass, decl ast.Decl, ctxPkg string) {
	fd, _ := decl.(*ast.FuncDecl)
	var exempt map[*ast.CallExpr]bool
	if fd != nil && fd.Body != nil {
		exempt = adapterExemptRoots(fd, ctxPkg)
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || id.Name != ctxPkg || !refersToPackage(pass, id) {
			return true
		}
		if sel.Sel.Name == "Background" || sel.Sel.Name == "TODO" {
			if exempt[call] {
				return true
			}
			pass.Reportf(call.Pos(), "context.%s() mints a root context in library code, "+
				"detaching this call tree from the caller's cancellation; accept a ctx parameter, "+
				"delegate to a *Context twin in a return statement, "+
				"or justify the site with //asalint:ctxflow", sel.Sel.Name)
		}
		return true
	})
}

// adapterExemptRoots returns the Background/TODO calls in fd that are exempt
// under the adapter pattern: fd takes no context itself and hands the fresh
// root directly to a callee named *Context inside a return statement, so the
// root's lifetime is exactly the delegated call.
func adapterExemptRoots(fd *ast.FuncDecl, ctxPkg string) map[*ast.CallExpr]bool {
	if contextParamName(fd, ctxPkg) != "" {
		return nil
	}
	exempt := map[*ast.CallExpr]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			outer, ok := ast.Unparen(res).(*ast.CallExpr)
			if !ok || !strings.HasSuffix(calleeName(outer), "Context") {
				continue
			}
			for _, arg := range outer.Args {
				if inner, ok := ast.Unparen(arg).(*ast.CallExpr); ok {
					exempt[inner] = true
				}
			}
		}
		return true
	})
	return exempt
}

// calleeName returns the final name of a call's callee expression.
func calleeName(call *ast.CallExpr) string {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// contextParamName returns the name of fd's context.Context parameter, or "".
func contextParamName(fd *ast.FuncDecl, ctxPkg string) string {
	if fd.Type.Params == nil {
		return ""
	}
	for _, field := range fd.Type.Params.List {
		sel, ok := field.Type.(*ast.SelectorExpr)
		if !ok {
			continue
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || id.Name != ctxPkg || sel.Sel.Name != "Context" {
			continue
		}
		if len(field.Names) > 0 {
			return field.Names[0].Name
		}
	}
	return ""
}

// checkSelectsObserveCtx flags blocking selects in fd's body that have no
// <-ctx.Done() case. where names the function in the diagnostic, including
// how the contract reaches it.
func checkSelectsObserveCtx(pass *Pass, fd *ast.FuncDecl, ctxName, where string) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		blocking := true
		observes := false
		for _, clause := range sel.Body.List {
			cc, ok := clause.(*ast.CommClause)
			if !ok {
				continue
			}
			if cc.Comm == nil {
				blocking = false // default clause: the select cannot stall
				continue
			}
			if commObservesCtx(cc.Comm, ctxName) {
				observes = true
			}
		}
		if blocking && !observes {
			pass.Reportf(sel.Pos(), "blocking select in %s has no <-%s.Done() case; "+
				"cancellation cannot preempt this wait", where, ctxName)
		}
		return true
	})
}

// commObservesCtx reports whether a select communication receives from
// ctxName.Done() (directly or under assignment).
func commObservesCtx(stmt ast.Stmt, ctxName string) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == ctxName && sel.Sel.Name == "Done" {
			found = true
		}
		return true
	})
	return found
}
