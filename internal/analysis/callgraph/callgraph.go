// Package callgraph builds a module-local call graph with per-function
// summaries over packages loaded by the internal/analysis loader, using only
// the standard library (go/ast, go/types). It is the interprocedural
// substrate of the asalint suite: analyzers that must reason across call
// boundaries — hot-path allocation reachability, lock acquisition order,
// context flow into blocking callees, goroutine-join evidence in callers —
// consume the graph instead of re-walking syntax per function.
//
// Design constraints, in order:
//
//   - Deterministic: node iteration, edge order, and reachability provenance
//     are pure functions of the source. Nodes sort by stable ID, fan-out
//     targets sort by ID, BFS visits in insertion order. The machine-readable
//     asalint output formats depend on this.
//   - Conservative where dynamic: a call through an interface fans out to
//     every indexed concrete method that implements the interface; a method
//     or function referenced as a value gets a Ref edge (it may be called by
//     whoever receives it); a concrete value converted to an interface
//     declared outside the graph gets Ref edges to the methods that code
//     outside the graph may call on it; a call through a plain func variable
//     resolves to nothing (the analyzers under-approximate rather than
//     guess).
//   - Complete per package: each package has one initializer node,
//     "<pkg>.init", that owns the package-level var initializers (their
//     calls, function values and literals) and calls the declared init
//     functions, "<pkg>.init#1", "<pkg>.init#2", ... in source order.
//   - Cheap: one pass per function body builds nodes and edges; summaries are
//     computed lazily, once per function.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Unit is one loaded package as the graph consumes it: parsed files plus
// (possibly partial) type information. The analysis package adapts its
// Package type to a Unit; all Units of one Build must share a FileSet and a
// type-checker universe (one loader), or cross-package object identities
// will not line up.
type Unit struct {
	// Path is the import path (bare package name for fixtures).
	Path string
	// Name is the package name from the package clause.
	Name  string
	Fset  *token.FileSet
	Files []*ast.File
	// Info may carry partial resolution for type-broken packages; the
	// builder tolerates nil object lookups.
	Info *types.Info
	// Pkg is the type-checked package object (may be nil on hard failure).
	Pkg *types.Package
}

// EdgeKind classifies how a call edge was resolved.
type EdgeKind uint8

const (
	// Static is a direct call to a known function or concrete method.
	Static EdgeKind = iota
	// Dispatch is one conservative fan-out target of an interface method
	// call: the concrete method may or may not run, but no other indexed
	// method can.
	Dispatch
	// Closure links a function to a literal defined in its body. Defining is
	// not calling, but a closure built on a path is assumed runnable from it.
	Closure
	// Ref is a function or method referenced as a value (method value,
	// function assigned or passed); whoever receives the value may call it.
	Ref
)

func (k EdgeKind) String() string {
	switch k {
	case Static:
		return "static"
	case Dispatch:
		return "dispatch"
	case Closure:
		return "closure"
	case Ref:
		return "ref"
	}
	return "unknown"
}

// Edge is one resolved call (or reference) site.
type Edge struct {
	Site   token.Pos
	Kind   EdgeKind
	Callee *Node
}

// Node is one function in the graph: a declared function/method or a
// function literal.
type Node struct {
	// ID is the stable identity: "<pkg>.Func", "<pkg>.(*T).Method",
	// "<pkg>.T.Method", or "<parent>$<n>" for the n-th literal (source
	// order) inside its parent.
	ID string
	// Name is the display name without the package prefix.
	Name    string
	PkgPath string
	Unit    *Unit
	// Decl is set for declared functions, Lit for function literals; both
	// are nil for a package initializer.
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	// Obj is the type-checker object for declared functions (nil for
	// literals and in type-broken packages).
	Obj *types.Func
	// Out is the ordered outgoing edge list.
	Out []Edge

	// vars holds a package initializer's package-level var declarations.
	vars    []ast.Node
	summary *Summary
}

// syntax returns the trees whose code runs as n: a function's body, or a
// package initializer's var declarations.
func (n *Node) syntax() []ast.Node {
	if b := n.Body(); b != nil {
		return []ast.Node{b}
	}
	return n.vars
}

// Body returns the function body block (nil for bodyless declarations).
func (n *Node) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	if n.Lit != nil {
		return n.Lit.Body
	}
	return nil
}

// FuncType returns the function's type expression.
func (n *Node) FuncType() *ast.FuncType {
	if n.Decl != nil {
		return n.Decl.Type
	}
	if n.Lit != nil {
		return n.Lit.Type
	}
	return nil
}

// Pos returns the declaration position.
func (n *Node) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	if n.Lit != nil {
		return n.Lit.Pos()
	}
	return token.NoPos
}

// Graph is the built call graph over a set of units.
type Graph struct {
	Fset  *token.FileSet
	Units []*Unit
	// Whole is set by the caller when Units are the whole program: every
	// package of the module. Only then does a function with no caller in
	// the graph have none at all.
	Whole bool

	nodes  map[string]*Node
	sorted []*Node // nodes sorted by ID, built once
	byObj  map[*types.Func]*Node
	// bySyntax maps each *ast.FuncDecl and *ast.FuncLit to its node.
	bySyntax map[ast.Node]*Node
	// pkgs holds the type-checked packages of Units: an interface declared
	// in none of them is called from outside the graph.
	pkgs map[*types.Package]bool
	// outsideByMethod indexes the interfaces declared outside the graph by
	// first method name; viaOutside memoizes viaOutsideInterfaces.
	outsideByMethod map[string][]*types.Interface
	viaOutside      map[*types.TypeName][]*Node

	// methodIndex maps method name -> candidate concrete methods, for
	// interface fan-out.
	methodIndex map[string][]*methodCandidate

	transLocks  map[*Node][]LockOp
	transBlocks map[*Node][]BlockOp
}

type methodCandidate struct {
	recv *types.Named
	fn   *types.Func
	node *Node
}

// Build constructs the graph over units.
func Build(units []*Unit) *Graph {
	g := &Graph{
		Units:       units,
		nodes:       make(map[string]*Node),
		byObj:       make(map[*types.Func]*Node),
		bySyntax:    make(map[ast.Node]*Node),
		pkgs:        make(map[*types.Package]bool),
		viaOutside:  make(map[*types.TypeName][]*Node),
		methodIndex: make(map[string][]*methodCandidate),
		transLocks:  make(map[*Node][]LockOp),
		transBlocks: make(map[*Node][]BlockOp),
	}
	if len(units) > 0 {
		g.Fset = units[0].Fset
	}
	// Pass 1: declared functions, package initializers and their nested
	// literals become nodes.
	for _, u := range units {
		if u.Pkg != nil {
			g.pkgs[u.Pkg] = true
		}
		pkgInit := &Node{ID: u.Path + ".init", Name: "init", PkgPath: u.Path, Unit: u}
		g.nodes[pkgInit.ID] = pkgInit
		inits, lits := 0, 0
		for _, f := range u.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.Name == "init" {
						inits++
						n := g.addDecl(u, fmt.Sprintf("%s.init#%d", u.Path, inits), d)
						pkgInit.Out = append(pkgInit.Out, Edge{Site: d.Pos(), Kind: Static, Callee: n})
					} else {
						g.addDecl(u, u.Path+"."+declName(d), d)
					}
				case *ast.GenDecl:
					if d.Tok != token.VAR {
						continue
					}
					// Function literals in package-level declarations (var
					// handler = func(){...}) hang off the initializer,
					// numbered in source order across the package's files.
					pkgInit.vars = append(pkgInit.vars, d)
					ast.Inspect(d, func(n ast.Node) bool {
						if lit, ok := n.(*ast.FuncLit); ok {
							g.addLit(u, fmt.Sprintf("%s.init$%d", u.Path, lits), lit)
							lits++
						}
						return true
					})
				}
			}
		}
	}
	g.buildMethodIndex()
	// Pass 2: edges.
	for _, n := range g.nodesSorted() {
		g.buildEdges(n)
	}
	return g
}

// addDecl registers fd under id, with its nested literals.
func (g *Graph) addDecl(u *Unit, id string, fd *ast.FuncDecl) *Node {
	n := &Node{
		ID:      id,
		Name:    declName(fd),
		PkgPath: u.Path,
		Unit:    u,
		Decl:    fd,
	}
	if u.Info != nil {
		if obj, ok := u.Info.Defs[fd.Name].(*types.Func); ok {
			n.Obj = obj
			g.byObj[obj] = n
		}
	}
	g.nodes[id] = n
	g.bySyntax[fd] = n
	// Nested literals, numbered in source order.
	if fd.Body != nil {
		count := 0
		ast.Inspect(fd.Body, func(x ast.Node) bool {
			if lit, ok := x.(*ast.FuncLit); ok {
				litID := fmt.Sprintf("%s$%d", id, count)
				count++
				g.addLit(u, litID, lit)
				// Literals nest; their own inner literals are numbered
				// against the same declared parent, which keeps IDs stable
				// without a second traversal.
			}
			return true
		})
	}
	return n
}

func (g *Graph) addLit(u *Unit, id string, lit *ast.FuncLit) {
	name := id
	if i := strings.LastIndex(id, "."); i >= 0 {
		name = id[i+1:]
	}
	n := &Node{
		ID:      id,
		Name:    name,
		PkgPath: u.Path,
		Unit:    u,
		Lit:     lit,
	}
	g.nodes[id] = n
	g.bySyntax[lit] = n
}

// declName renders a FuncDecl's graph name: "Func", "T.Method", or
// "(*T).Method".
func declName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	return recvString(t) + "." + fd.Name.Name
}

func recvString(t ast.Expr) string {
	switch x := t.(type) {
	case *ast.StarExpr:
		return "(*" + recvString(x.X) + ")"
	case *ast.Ident:
		return x.Name
	case *ast.IndexExpr: // generic receiver T[P]
		return recvString(x.X)
	case *ast.IndexListExpr:
		return recvString(x.X)
	case *ast.ParenExpr:
		return recvString(x.X)
	}
	return types.ExprString(t)
}

// DeclNode returns the node for a declared function, or nil.
func (g *Graph) DeclNode(fd *ast.FuncDecl) *Node { return g.bySyntax[fd] }

// NodeFor returns the node for a type-checker function object, or nil.
func (g *Graph) NodeFor(obj *types.Func) *Node {
	if obj == nil {
		return nil
	}
	return g.byObj[obj.Origin()]
}

// Nodes returns every node sorted by ID.
func (g *Graph) Nodes() []*Node { return g.nodesSorted() }

func (g *Graph) nodesSorted() []*Node {
	if g.sorted == nil || len(g.sorted) != len(g.nodes) {
		g.sorted = make([]*Node, 0, len(g.nodes))
		for _, n := range g.nodes {
			g.sorted = append(g.sorted, n)
		}
		sort.Slice(g.sorted, func(i, j int) bool { return g.sorted[i].ID < g.sorted[j].ID })
	}
	return g.sorted
}

// buildMethodIndex records every concrete method of every named type across
// the units, for interface fan-out.
func (g *Graph) buildMethodIndex() {
	for _, n := range g.nodesSorted() {
		if n.Obj == nil || n.Decl == nil || n.Decl.Recv == nil {
			continue
		}
		recv := n.Obj.Type().(*types.Signature).Recv()
		if recv == nil {
			continue
		}
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			continue
		}
		name := n.Obj.Name()
		g.methodIndex[name] = append(g.methodIndex[name], &methodCandidate{recv: named, fn: n.Obj, node: n})
	}
}

// dispatchTargets returns the nodes of every indexed concrete method that
// could satisfy a call of method name on interface type iface, sorted by ID.
func (g *Graph) dispatchTargets(iface *types.Interface, name string) []*Node {
	var out []*Node
	seen := map[*Node]bool{}
	for _, cand := range g.methodIndex[name] {
		if seen[cand.node] {
			continue
		}
		ptr := types.NewPointer(cand.recv)
		if types.Implements(cand.recv, iface) || types.Implements(ptr, iface) {
			seen[cand.node] = true
			out = append(out, cand.node)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// buildEdges walks node's code (not descending into nested literals, which
// own their statements) and resolves call, reference and conversion sites.
func (g *Graph) buildEdges(n *Node) {
	for _, root := range n.syntax() {
		g.buildEdgesIn(n, root)
		g.conversionEdges(n, root)
	}
}

func (g *Graph) buildEdgesIn(n *Node, root ast.Node) {
	info := n.Unit.Info
	// funExprs marks expressions in call position so value references can be
	// told apart from calls.
	funExprs := map[ast.Expr]bool{}
	skipLits := map[*ast.FuncLit]bool{}
	ast.Inspect(root, func(x ast.Node) bool {
		if lit, ok := x.(*ast.FuncLit); ok {
			if litNode := g.bySyntax[lit]; litNode != nil {
				n.Out = append(n.Out, Edge{Site: lit.Pos(), Kind: Closure, Callee: litNode})
			}
			skipLits[lit] = true
			return false // the literal's own body is its node's territory
		}
		if call, ok := x.(*ast.CallExpr); ok {
			fun := ast.Unparen(call.Fun)
			funExprs[fun] = true
			// An immediately invoked literal resolves to nothing here: the
			// Closure edge added when the literal is visited covers it.
			for _, t := range g.callTargets(info, call) {
				n.Out = append(n.Out, Edge{Site: call.Lparen, Kind: t.kind, Callee: t.node})
			}
		}
		return true
	})
	// Second pass: function/method values referenced outside call position.
	// A selector consumes its Sel identifier — the ident resolves to the same
	// object and must not produce a second edge.
	consumed := map[*ast.Ident]bool{}
	ast.Inspect(root, func(x ast.Node) bool {
		if lit, ok := x.(*ast.FuncLit); ok && skipLits[lit] {
			return false
		}
		switch e := x.(type) {
		case *ast.SelectorExpr:
			consumed[e.Sel] = true
			if funExprs[ast.Expr(e)] {
				return true
			}
			for _, t := range g.refTargets(info, e) {
				n.Out = append(n.Out, Edge{Site: e.Pos(), Kind: Ref, Callee: t})
			}
			return true
		case *ast.Ident:
			if consumed[e] || funExprs[ast.Expr(e)] || info == nil {
				return true
			}
			if obj, ok := info.Uses[e].(*types.Func); ok {
				// Plain identifier naming a function, used as a value.
				if target := g.NodeFor(obj); target != nil {
					n.Out = append(n.Out, Edge{Site: e.Pos(), Kind: Ref, Callee: target})
				}
			}
		}
		return true
	})
}

// conversionEdges adds Ref edges for the methods that code outside the
// graph may call on a concrete value converted, under root, to an interface
// not declared in the graph: by assignment, return, call argument, channel
// send, composite-literal element or explicit conversion. An interface
// declared in the graph needs no such edge: its calls are in the graph and
// fan out by Dispatch.
func (g *Graph) conversionEdges(n *Node, root ast.Node) {
	info := n.Unit.Info
	if info == nil {
		return
	}
	conv := func(to types.Type, e ast.Expr) {
		if to == nil || !types.IsInterface(to) {
			return
		}
		if named, ok := types.Unalias(to).(*types.Named); ok && g.pkgs[named.Obj().Pkg()] {
			return
		}
		if from := info.TypeOf(e); from != nil && !types.IsInterface(from) {
			for _, m := range g.outsideMethods(from) {
				n.Out = append(n.Out, Edge{Site: e.Pos(), Kind: Ref, Callee: m})
			}
		}
	}
	var sig *types.Signature // nil for a package initializer
	switch {
	case n.Obj != nil:
		sig = n.Obj.Type().(*types.Signature)
	case n.Lit != nil:
		sig, _ = info.TypeOf(n.Lit).(*types.Signature)
	}
	ast.Inspect(root, func(x ast.Node) bool {
		switch s := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if len(s.Lhs) == len(s.Rhs) {
				for i := range s.Lhs {
					conv(info.TypeOf(s.Lhs[i]), s.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for _, v := range s.Values {
				conv(info.TypeOf(s.Type), v)
			}
		case *ast.ReturnStmt:
			if sig != nil && sig.Results().Len() == len(s.Results) {
				for i, r := range s.Results {
					conv(sig.Results().At(i).Type(), r)
				}
			}
		case *ast.SendStmt:
			if ch, ok := underlying(info.TypeOf(s.Chan)).(*types.Chan); ok {
				conv(ch.Elem(), s.Value)
			}
		case *ast.CallExpr:
			if tv := info.Types[s.Fun]; tv.IsType() {
				if len(s.Args) == 1 {
					conv(tv.Type, s.Args[0])
				}
				return true
			}
			fs, ok := underlying(info.TypeOf(s.Fun)).(*types.Signature)
			if !ok {
				return true
			}
			for i, a := range s.Args {
				last := fs.Params().Len() - 1
				switch {
				case fs.Variadic() && i >= last && !s.Ellipsis.IsValid():
					conv(fs.Params().At(last).Type().(*types.Slice).Elem(), a)
				case i <= last:
					conv(fs.Params().At(i).Type(), a)
				}
			}
		case *ast.CompositeLit:
			t := underlying(info.TypeOf(s))
			for i, el := range s.Elts {
				kv, keyed := el.(*ast.KeyValueExpr)
				if keyed {
					el = kv.Value
				}
				switch t := t.(type) {
				case *types.Struct:
					if !keyed && i < t.NumFields() {
						conv(t.Field(i).Type(), el)
					} else if id, ok := kv.Key.(*ast.Ident); keyed && ok {
						if f, ok := info.Uses[id].(*types.Var); ok {
							conv(f.Type(), el)
						}
					}
				case *types.Map:
					if keyed {
						conv(t.Key(), kv.Key)
					}
					conv(t.Elem(), el)
				case interface{ Elem() types.Type }: // slice or array
					conv(t.Elem(), el)
				}
			}
		}
		return true
	})
}

func underlying(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}

// outsideMethods returns the nodes of the methods by which concrete type t,
// or a type t contains, implements an interface declared outside the graph:
// the methods code outside the graph can call once it holds a t. Outside
// code such as fmt and encoding/json walks a value's fields by reflection
// and calls String, Error or MarshalJSON through the interfaces it declares
// (fmt.Stringer, json.Marshaler); it cannot call a method that is in no
// such interface.
func (g *Graph) outsideMethods(t types.Type) []*Node {
	var out []*Node
	// Named types are keyed by origin, which bounds the walk through
	// recursive generic types.
	seen := map[any]bool{}
	var walk func(types.Type)
	walk = func(t types.Type) {
		t = types.Unalias(t)
		var key any = t
		named, isNamed := t.(*types.Named)
		if isNamed {
			key = named.Origin().Obj()
		}
		if seen[key] {
			return
		}
		seen[key] = true
		if isNamed && !types.IsInterface(named) {
			out = append(out, g.viaOutsideInterfaces(named)...)
		}
		switch u := t.Underlying().(type) {
		case *types.Map:
			walk(u.Key())
			walk(u.Elem())
		case interface{ Elem() types.Type }: // pointer, slice, array or chan
			walk(u.Elem())
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				walk(u.Field(i).Type())
			}
		}
	}
	walk(t)
	return out
}

// viaOutsideInterfaces returns the nodes of the methods by which named or
// *named implements an interface declared outside the graph, each once.
// Memoized per origin type.
func (g *Graph) viaOutsideInterfaces(named *types.Named) []*Node {
	origin := named.Origin().Obj()
	if nodes, ok := g.viaOutside[origin]; ok {
		return nodes
	}
	if g.outsideByMethod == nil {
		g.indexOutsideInterfaces()
	}
	var nodes []*Node
	added := map[*Node]bool{}
	ptr := types.NewPointer(named)
	ms := types.NewMethodSet(ptr)
	for i := 0; i < ms.Len(); i++ {
		// An interface is a candidate under the name of its first method,
		// so each implemented interface is tried once.
		for _, iface := range g.outsideByMethod[ms.At(i).Obj().Name()] {
			if !types.Implements(ptr, iface) {
				continue
			}
			for j := 0; j < iface.NumMethods(); j++ {
				m := iface.Method(j)
				obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
				if node := g.NodeFor(obj.(*types.Func)); node != nil && !added[node] {
					added[node] = true
					nodes = append(nodes, node)
				}
			}
		}
	}
	g.viaOutside[origin] = nodes
	return nodes
}

// indexOutsideInterfaces indexes by first method name the error interface
// and every non-generic interface type declared in a package outside the
// graph that the graph's packages import, directly or not.
func (g *Graph) indexOutsideInterfaces() {
	g.outsideByMethod = map[string][]*types.Interface{}
	index := func(iface *types.Interface) {
		if iface.NumMethods() > 0 {
			name := iface.Method(0).Name()
			g.outsideByMethod[name] = append(g.outsideByMethod[name], iface)
		}
	}
	index(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if !g.pkgs[p] {
			scope := p.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
					if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 {
						if iface, ok := named.Underlying().(*types.Interface); ok {
							index(iface)
						}
					}
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, u := range g.Units {
		if u.Pkg != nil {
			visit(u.Pkg)
		}
	}
}

type callTarget struct {
	kind EdgeKind
	node *Node
}

// callTargets resolves the possible callees of one call expression.
func (g *Graph) callTargets(info *types.Info, call *ast.CallExpr) []callTarget {
	if info == nil {
		return nil
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := info.Uses[fun].(*types.Func); ok {
			if n := g.NodeFor(obj); n != nil {
				return []callTarget{{Static, n}}
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			recv := sel.Recv()
			if iface, ok := recv.Underlying().(*types.Interface); ok {
				var out []callTarget
				for _, t := range g.dispatchTargets(iface, fun.Sel.Name) {
					out = append(out, callTarget{Dispatch, t})
				}
				return out
			}
			if obj, ok := sel.Obj().(*types.Func); ok {
				if n := g.NodeFor(obj); n != nil {
					return []callTarget{{Static, n}}
				}
			}
			return nil
		}
		// Package-qualified function (or a selector the checker did not
		// resolve as a method selection).
		if obj, ok := info.Uses[fun.Sel].(*types.Func); ok {
			if n := g.NodeFor(obj); n != nil {
				return []callTarget{{Static, n}}
			}
		}
	}
	return nil
}

// refTargets resolves a selector used as a value to function nodes (method
// values; interface method values fan out).
func (g *Graph) refTargets(info *types.Info, sel *ast.SelectorExpr) []*Node {
	if info == nil {
		return nil
	}
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
		if iface, ok := s.Recv().Underlying().(*types.Interface); ok {
			return g.dispatchTargets(iface, sel.Sel.Name)
		}
		if obj, ok := s.Obj().(*types.Func); ok {
			if n := g.NodeFor(obj); n != nil {
				return []*Node{n}
			}
		}
		return nil
	}
	if obj, ok := info.Uses[sel.Sel].(*types.Func); ok {
		if n := g.NodeFor(obj); n != nil {
			return []*Node{n}
		}
	}
	return nil
}

// Reachable runs a deterministic BFS from roots, following edges whose
// callee satisfies within (nil = all). The result maps every reached node to
// the root that first discovered it (roots map to themselves). Roots not
// accepted by within are still included.
func (g *Graph) Reachable(roots []*Node, within func(*Node) bool) map[*Node]*Node {
	sortedRoots := append([]*Node(nil), roots...)
	sort.Slice(sortedRoots, func(i, j int) bool { return sortedRoots[i].ID < sortedRoots[j].ID })
	via := make(map[*Node]*Node)
	queue := make([]*Node, 0, len(sortedRoots))
	for _, r := range sortedRoots {
		if r == nil {
			continue
		}
		if _, ok := via[r]; !ok {
			via[r] = r
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Out {
			c := e.Callee
			if c == nil {
				continue
			}
			if _, ok := via[c]; ok {
				continue
			}
			if within != nil && !within(c) {
				continue
			}
			via[c] = via[n]
			queue = append(queue, c)
		}
	}
	return via
}

// TransitiveLocks returns the lock operations node may perform, directly or
// through Static/Dispatch/Closure callees, sorted by lock identity then
// operation. Memoized; cycles in the graph terminate through the visiting
// marker.
func (g *Graph) TransitiveLocks(n *Node) []LockOp {
	if ops, ok := g.transLocks[n]; ok {
		return ops
	}
	g.transLocks[n] = nil // cycle marker: in-progress nodes contribute nothing
	merged := map[string]LockOp{}
	for _, op := range g.Summary(n).LockOps {
		key := op.Lock + "\x00" + op.Op
		if _, ok := merged[key]; !ok {
			merged[key] = op
		}
	}
	for _, e := range n.Out {
		if e.Kind == Ref || e.Callee == nil {
			continue
		}
		for _, op := range g.TransitiveLocks(e.Callee) {
			key := op.Lock + "\x00" + op.Op
			if _, ok := merged[key]; !ok {
				merged[key] = op
			}
		}
	}
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ops := make([]LockOp, 0, len(keys))
	for _, k := range keys {
		ops = append(ops, merged[k])
	}
	g.transLocks[n] = ops
	return ops
}

// TransitiveBlocks returns representative blocking operations reachable from
// node through Static/Dispatch/Closure edges (one per distinct description),
// sorted by description.
func (g *Graph) TransitiveBlocks(n *Node) []BlockOp {
	if ops, ok := g.transBlocks[n]; ok {
		return ops
	}
	g.transBlocks[n] = nil
	merged := map[string]BlockOp{}
	for _, b := range g.Summary(n).Blocks {
		if _, ok := merged[b.Desc]; !ok {
			merged[b.Desc] = b
		}
	}
	for _, e := range n.Out {
		if e.Kind == Ref || e.Callee == nil {
			continue
		}
		for _, b := range g.TransitiveBlocks(e.Callee) {
			// Attribute through-call blocking to the call chain's entry.
			if _, ok := merged[b.Desc]; !ok {
				merged[b.Desc] = b
			}
		}
	}
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ops := make([]BlockOp, 0, len(keys))
	for _, k := range keys {
		ops = append(ops, merged[k])
	}
	g.transBlocks[n] = ops
	return ops
}
