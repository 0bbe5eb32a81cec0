package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AllocKind classifies a heap-allocation site.
type AllocKind uint8

const (
	AllocMake    AllocKind = iota // make(slice/map/chan)
	AllocNew                      // new(T)
	AllocLit                      // map/slice composite literal, or &T{...}
	AllocAppend                   // append whose result does not feed back into its first argument
	AllocClosure                  // escaping function literal with captured variables
	AllocFmt                      // fmt formatting call (boxes + builds strings)
	AllocBox                      // concrete value passed to an interface/variadic-any parameter
	AllocConvert                  // string<->[]byte/[]rune conversion
)

func (k AllocKind) String() string {
	switch k {
	case AllocMake:
		return "make"
	case AllocNew:
		return "new"
	case AllocLit:
		return "composite literal"
	case AllocAppend:
		return "append"
	case AllocClosure:
		return "closure"
	case AllocFmt:
		return "fmt call"
	case AllocBox:
		return "interface boxing"
	case AllocConvert:
		return "string conversion"
	}
	return "alloc"
}

// Alloc is one potential heap-allocation site in a function body.
type Alloc struct {
	Pos  token.Pos
	Kind AllocKind
	// Desc names the site for diagnostics ("make([]int32, bins)").
	Desc string
	// Cold marks sites on amortized-growth or failure paths: a branch whose
	// condition consults cap(), or a branch entered on a non-nil error /
	// recovered panic. Steady-state contracts ignore cold sites.
	Cold bool
}

// LockOp is one mutex operation with a stable lock identity.
type LockOp struct {
	Pos  token.Pos
	Lock string // e.g. "serve.Queue.mu"
	Op   string // Lock, Unlock, RLock, RUnlock
	// Deferred marks operations performed via defer (released at return).
	Deferred bool
}

// BlockOp is one potentially blocking operation.
type BlockOp struct {
	Pos  token.Pos
	Desc string
}

// Summary is the per-function fact sheet the interprocedural analyzers
// consume.
type Summary struct {
	Allocs  []Alloc
	LockOps []LockOp
	Blocks  []BlockOp
	// CtxParam is the name of the function's context.Context parameter ("" =
	// none). "_" counts as none for flow purposes.
	CtxParam string
	// GoSpawns lists go statements in the body.
	GoSpawns []token.Pos
	// Joins reports join-protocol evidence in the body: WaitGroup
	// Add/Done/Wait, errgroup Go/Wait, or sched.Pool Dispatch/Close.
	Joins bool
	// JoinerParam reports a *sync.WaitGroup or errgroup parameter: the
	// caller owns the join.
	JoinerParam bool
	// HandsJoiner reports a WaitGroup/errgroup value passed as a call
	// argument: the callee participates in the join protocol.
	HandsJoiner bool
}

// Summary computes (or recalls) the summary of node n.
func (g *Graph) Summary(n *Node) *Summary {
	if n.summary == nil {
		n.summary = summarize(n)
	}
	return n.summary
}

// summarize walks one function body (excluding nested literals, which have
// their own nodes) and extracts the summary facts.
func summarize(n *Node) *Summary {
	s := &Summary{}
	info := unitInfo(n)
	s.CtxParam = ctxParamName(n)
	s.JoinerParam = hasJoinerParam(n, info)
	body := n.Body()
	if body == nil {
		return s
	}
	w := &summaryWalker{s: s, info: info, fnPos: n.Pos(), fnEnd: bodyEnd(n)}
	w.walkStmts(body.List, walkCtx{})
	return s
}

func unitInfo(n *Node) *types.Info {
	if n.Unit == nil {
		return nil
	}
	return n.Unit.Info
}

func bodyEnd(n *Node) token.Pos {
	if b := n.Body(); b != nil {
		return b.End()
	}
	return token.NoPos
}

// walkCtx carries path condition facts down the statement walk.
type walkCtx struct {
	// cold marks amortized-growth/failure branches (cap() guard, err != nil,
	// recover()).
	cold bool
	// deferred marks statements executed via defer.
	deferred bool
	// insideSelect suppresses double-counting channel operations that appear
	// as select communications.
	insideSelect bool
}

type summaryWalker struct {
	s            *Summary
	info         *types.Info
	fnPos, fnEnd token.Pos
}

func (w *summaryWalker) walkStmts(stmts []ast.Stmt, c walkCtx) {
	for _, st := range stmts {
		w.walkStmt(st, c)
	}
}

func (w *summaryWalker) walkStmt(st ast.Stmt, c walkCtx) {
	switch x := st.(type) {
	case *ast.BlockStmt:
		w.walkStmts(x.List, c)
	case *ast.IfStmt:
		if x.Init != nil {
			w.walkStmt(x.Init, c)
		}
		w.walkExpr(x.Cond, c)
		branch := c
		if condIsGrowthOrFailure(w.info, x.Cond, x.Init) {
			branch.cold = true
		}
		w.walkStmt(x.Body, branch)
		if x.Else != nil {
			w.walkStmt(x.Else, branch)
		}
	case *ast.ForStmt:
		if x.Init != nil {
			w.walkStmt(x.Init, c)
		}
		if x.Cond != nil {
			w.walkExpr(x.Cond, c)
		}
		if x.Post != nil {
			w.walkStmt(x.Post, c)
		}
		w.walkStmt(x.Body, c)
	case *ast.RangeStmt:
		w.walkExpr(x.X, c)
		w.walkStmt(x.Body, c)
	case *ast.SwitchStmt:
		if x.Init != nil {
			w.walkStmt(x.Init, c)
		}
		if x.Tag != nil {
			w.walkExpr(x.Tag, c)
		}
		for _, cl := range x.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.walkExpr(e, c)
				}
				w.walkStmts(cc.Body, c)
			}
		}
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			w.walkStmt(x.Init, c)
		}
		w.walkStmt(x.Assign, c)
		for _, cl := range x.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				w.walkStmts(cc.Body, c)
			}
		}
	case *ast.SelectStmt:
		blocking := true
		for _, cl := range x.Body.List {
			cc, ok := cl.(*ast.CommClause)
			if !ok {
				continue
			}
			if cc.Comm == nil {
				blocking = false
				continue
			}
		}
		if blocking {
			w.s.Blocks = append(w.s.Blocks, BlockOp{Pos: x.Pos(), Desc: "blocking select"})
		}
		inner := c
		inner.insideSelect = true
		for _, cl := range x.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok {
				if cc.Comm != nil {
					w.walkStmt(cc.Comm, inner)
				}
				w.walkStmts(cc.Body, c)
			}
		}
	case *ast.SendStmt:
		if !c.insideSelect {
			w.s.Blocks = append(w.s.Blocks, BlockOp{Pos: x.Pos(), Desc: "channel send " + types.ExprString(x.Chan) + " <-"})
		}
		w.walkExpr(x.Chan, c)
		w.walkExpr(x.Value, c)
	case *ast.GoStmt:
		w.s.GoSpawns = append(w.s.GoSpawns, x.Pos())
		w.walkExpr(x.Call, c)
	case *ast.DeferStmt:
		d := c
		d.deferred = true
		w.walkExpr(x.Call, d)
	case *ast.ExprStmt:
		w.walkExpr(x.X, c)
	case *ast.AssignStmt:
		for _, r := range x.Rhs {
			w.walkAssignedExpr(x, r, c)
		}
		for _, l := range x.Lhs {
			w.walkExpr(l, c)
		}
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			w.walkExpr(r, c)
		}
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.walkExpr(v, c)
					}
				}
			}
		}
	case *ast.LabeledStmt:
		w.walkStmt(x.Stmt, c)
	case *ast.IncDecStmt:
		w.walkExpr(x.X, c)
	}
}

// walkAssignedExpr handles RHS expressions of assignments so append's
// self-feeding form can be recognized against the LHS.
func (w *summaryWalker) walkAssignedExpr(as *ast.AssignStmt, e ast.Expr, c walkCtx) {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" && w.isBuiltin(id) {
			// x = append(x, ...) is amortized growth into a retained buffer:
			// steady state allocates nothing. Any other destination keeps the
			// freshly grown backing array alive as a new value.
			if len(call.Args) > 0 && len(as.Lhs) == 1 &&
				types.ExprString(as.Lhs[0]) == types.ExprString(sliceBase(call.Args[0])) {
				for _, a := range call.Args[1:] {
					w.walkExpr(a, c)
				}
				return
			}
		}
	}
	w.walkExpr(e, c)
}

// sliceBase strips one slicing operation so append(x[:n], ...) is compared
// against x: re-slicing grows into the same backing array as the bare form.
func sliceBase(e ast.Expr) ast.Expr {
	if s, ok := ast.Unparen(e).(*ast.SliceExpr); ok {
		return s.X
	}
	return e
}

func (w *summaryWalker) walkExpr(e ast.Expr, c walkCtx) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(x ast.Node) bool {
		switch n := x.(type) {
		case *ast.FuncLit:
			// Captured-variable literals allocate their environment unless
			// the literal is immediately invoked or deferred (open-coded).
			if !c.deferred && !isImmediatelyInvoked(e, n) && w.captures(n) {
				w.s.Allocs = append(w.s.Allocs, Alloc{
					Pos: n.Pos(), Kind: AllocClosure,
					Desc: "closure capturing enclosing variables", Cold: c.cold,
				})
			}
			return false // literal bodies belong to their own nodes
		case *ast.CallExpr:
			w.visitCall(n, c)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !c.insideSelect {
				w.s.Blocks = append(w.s.Blocks, BlockOp{Pos: n.Pos(), Desc: "channel receive <-" + types.ExprString(n.X)})
			}
			if n.Op == token.AND {
				if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					w.s.Allocs = append(w.s.Allocs, Alloc{
						Pos: n.Pos(), Kind: AllocLit,
						Desc: "&" + types.ExprString(lit.Type) + "{...} escapes to the heap", Cold: c.cold,
					})
					// Still record allocating sub-expressions of the literal.
				}
			}
		case *ast.CompositeLit:
			if w.isMapOrSliceLit(n) {
				w.s.Allocs = append(w.s.Allocs, Alloc{
					Pos: n.Pos(), Kind: AllocLit,
					Desc: typeDesc(n.Type) + " literal", Cold: c.cold,
				})
			}
		}
		return true
	})
}

// visitCall records allocation, locking, and blocking facts of one call.
func (w *summaryWalker) visitCall(call *ast.CallExpr, c walkCtx) {
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.Ident:
		if w.isBuiltin(f) {
			switch f.Name {
			case "make":
				w.s.Allocs = append(w.s.Allocs, Alloc{
					Pos: call.Pos(), Kind: AllocMake,
					Desc: types.ExprString(call), Cold: c.cold,
				})
			case "new":
				w.s.Allocs = append(w.s.Allocs, Alloc{
					Pos: call.Pos(), Kind: AllocNew,
					Desc: types.ExprString(call), Cold: c.cold,
				})
			case "append":
				// Bare (non-self-feeding) append reached outside the
				// AssignStmt fast path: the result escapes somewhere else.
				w.s.Allocs = append(w.s.Allocs, Alloc{
					Pos: call.Pos(), Kind: AllocAppend,
					Desc: "append result flows to a new destination", Cold: c.cold,
				})
			}
			return
		}
		// Conversion T(x)? Identified by a type object.
		if w.info != nil {
			if _, ok := w.info.Uses[f].(*types.TypeName); ok {
				w.visitConversion(call, c)
				return
			}
		}
	case *ast.SelectorExpr:
		// visitSelectorCall owns boxing for its call so that recognized
		// operations (lock ops, fmt, joins) can opt out of double-counting.
		w.visitSelectorCall(call, f, c)
		return
	case *ast.ArrayType, *ast.MapType:
		// conversion to slice/map type spelled structurally, e.g. []byte(s)
		w.visitConversion(call, c)
	}
	w.visitBoxing(call, c)
}

// visitConversion flags string <-> byte/rune slice conversions.
func (w *summaryWalker) visitConversion(call *ast.CallExpr, c walkCtx) {
	if w.info == nil || len(call.Args) != 1 {
		return
	}
	to := w.info.TypeOf(call.Fun)
	from := w.info.TypeOf(call.Args[0])
	if to == nil || from == nil {
		return
	}
	toS, fromS := to.Underlying().String(), from.Underlying().String()
	isStr := func(s string) bool { return s == "string" }
	isBytes := func(s string) bool { return s == "[]byte" || s == "[]uint8" || s == "[]rune" || s == "[]int32" }
	if (isStr(toS) && isBytes(fromS)) || (isBytes(toS) && isStr(fromS)) {
		w.s.Allocs = append(w.s.Allocs, Alloc{
			Pos: call.Pos(), Kind: AllocConvert,
			Desc: types.ExprString(call.Fun) + " conversion copies", Cold: c.cold,
		})
	}
}

// lockMethods and joinMethods drive the selector-call classification.
var lockMethods = map[string]bool{"Lock": true, "Unlock": true, "RLock": true, "RUnlock": true, "TryLock": true, "TryRLock": true}

var joinerMethods = map[string]bool{"Add": true, "Done": true, "Wait": true, "Go": true}

var poolJoinMethods = map[string]bool{"Dispatch": true, "DispatchTraced": true, "Close": true, "Wait": true}

func (w *summaryWalker) visitSelectorCall(call *ast.CallExpr, sel *ast.SelectorExpr, c walkCtx) {
	name := sel.Sel.Name
	recvType := ""
	if w.info != nil {
		if t := w.info.TypeOf(sel.X); t != nil {
			recvType = t.String()
		}
	}
	switch {
	case lockMethods[name] && isMutexType(recvType):
		op := name
		if strings.HasPrefix(op, "Try") {
			op = strings.TrimPrefix(op, "Try")
		}
		w.s.LockOps = append(w.s.LockOps, LockOp{
			Pos: call.Pos(), Lock: lockIdentity(w.info, sel.X), Op: op, Deferred: c.deferred,
		})
		return
	case joinerMethods[name] && isJoinerTypeString(recvType):
		w.s.Joins = true
		if name == "Wait" {
			w.s.Blocks = append(w.s.Blocks, BlockOp{Pos: call.Pos(), Desc: types.ExprString(sel.X) + ".Wait()"})
		}
		return
	case poolJoinMethods[name] && strings.Contains(recvType, "sched.Pool"):
		w.s.Joins = true
		return
	}
	// Blocking stdlib calls worth modeling explicitly.
	if pkgPath := w.selectorPkg(sel); pkgPath != "" {
		switch {
		case pkgPath == "time" && name == "Sleep":
			w.s.Blocks = append(w.s.Blocks, BlockOp{Pos: call.Pos(), Desc: "time.Sleep"})
			return
		case strings.HasPrefix(pkgPath, "fmt"):
			w.s.Allocs = append(w.s.Allocs, Alloc{
				Pos: call.Pos(), Kind: AllocFmt,
				Desc: "fmt." + name + " formats and boxes its arguments", Cold: c.cold,
			})
			return
		}
	}
	if httpBlockingMethods[name] && strings.Contains(recvType, "net/http") {
		w.s.Blocks = append(w.s.Blocks, BlockOp{Pos: call.Pos(), Desc: "HTTP round trip via " + name})
	}
	if name == "Wait" && strings.Contains(recvType, "sync.Cond") {
		w.s.Blocks = append(w.s.Blocks, BlockOp{Pos: call.Pos(), Desc: "sync.Cond Wait"})
	}
	w.visitBoxing(call, c)
}

var httpBlockingMethods = map[string]bool{"Do": true, "RoundTrip": true, "Get": true, "Head": true, "Post": true, "PostForm": true}

// visitBoxing flags concrete values passed to interface{}/any (variadic or
// plain) parameters — the paper-relevant "boxing via fmt/any" allocation.
func (w *summaryWalker) visitBoxing(call *ast.CallExpr, c walkCtx) {
	if w.info == nil {
		return
	}
	ft := w.info.TypeOf(call.Fun)
	if ft == nil {
		return
	}
	sig, ok := ft.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		if i < params.Len() {
			pt = params.At(i).Type()
		} else if sig.Variadic() && params.Len() > 0 {
			pt = params.At(params.Len() - 1).Type()
		}
		if pt == nil {
			continue
		}
		if sl, ok := pt.(*types.Slice); ok && (sig.Variadic() && i >= params.Len()-1) {
			pt = sl.Elem()
		}
		iface, ok := pt.Underlying().(*types.Interface)
		if !ok || !iface.Empty() {
			continue
		}
		at := w.info.TypeOf(arg)
		if at == nil {
			continue
		}
		if _, isIface := at.Underlying().(*types.Interface); isIface {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Info()&types.IsUntyped != 0 {
			continue // untyped constants box into static data
		}
		w.s.Allocs = append(w.s.Allocs, Alloc{
			Pos: arg.Pos(), Kind: AllocBox,
			Desc: types.ExprString(arg) + " boxes into an any parameter", Cold: c.cold,
		})
	}
}

func (w *summaryWalker) selectorPkg(sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok || w.info == nil {
		return ""
	}
	if pn, ok := w.info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

func (w *summaryWalker) isBuiltin(id *ast.Ident) bool {
	if w.info == nil {
		return true
	}
	obj := w.info.Uses[id]
	if obj == nil {
		return true
	}
	_, ok := obj.(*types.Builtin)
	return ok
}

// captures reports whether lit references a variable declared outside the
// literal but inside the enclosing function — the condition under which its
// environment must be heap-allocated.
func (w *summaryWalker) captures(lit *ast.FuncLit) bool {
	if w.info == nil {
		return true // assume the worst without types
	}
	found := false
	ast.Inspect(lit.Body, func(x ast.Node) bool {
		if found {
			return false
		}
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		obj := w.info.Uses[id]
		if obj == nil {
			return true
		}
		if _, isVar := obj.(*types.Var); !isVar {
			return true
		}
		p := obj.Pos()
		if p >= w.fnPos && p < w.fnEnd && (p < lit.Pos() || p >= lit.End()) {
			found = true
			return false
		}
		return true
	})
	return found
}

func (w *summaryWalker) isMapOrSliceLit(lit *ast.CompositeLit) bool {
	if w.info == nil {
		switch lit.Type.(type) {
		case *ast.MapType:
			return true
		case *ast.ArrayType:
			at := lit.Type.(*ast.ArrayType)
			return at.Len == nil // slice literal; arrays are values
		}
		return false
	}
	t := w.info.TypeOf(lit)
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Map, *types.Slice:
		return true
	}
	return false
}

// isImmediatelyInvoked reports whether lit is the called function of a call
// expression within root — func(){...}() does not escape.
func isImmediatelyInvoked(root ast.Expr, lit *ast.FuncLit) bool {
	invoked := false
	ast.Inspect(root, func(x ast.Node) bool {
		if call, ok := x.(*ast.CallExpr); ok {
			if ast.Unparen(call.Fun) == lit {
				invoked = true
				return false
			}
		}
		return true
	})
	return invoked
}

// condIsGrowthOrFailure classifies branch conditions that mark cold paths:
// capacity growth (cap() in the condition), error handling (err != nil), and
// panic recovery (recover() in the condition or its init).
func condIsGrowthOrFailure(info *types.Info, cond ast.Expr, init ast.Stmt) bool {
	found := false
	check := func(x ast.Node) bool {
		if found {
			return false
		}
		switch n := x.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if id.Name == "cap" || id.Name == "recover" {
					found = true
					return false
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.NEQ || n.Op == token.EQL {
				if isErrorNilCompare(info, n) {
					found = true
					return false
				}
			}
		}
		return true
	}
	if cond != nil {
		ast.Inspect(cond, check)
	}
	if init != nil && !found {
		ast.Inspect(init, check)
	}
	return found
}

func isErrorNilCompare(info *types.Info, b *ast.BinaryExpr) bool {
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	var other ast.Expr
	switch {
	case isNil(b.X):
		other = b.Y
	case isNil(b.Y):
		other = b.X
	default:
		return false
	}
	if info == nil {
		return false
	}
	t := info.TypeOf(other)
	return t != nil && t.String() == "error"
}

// isMutexType reports whether a printed type names a sync mutex.
func isMutexType(s string) bool {
	return strings.Contains(s, "sync.Mutex") || strings.Contains(s, "sync.RWMutex")
}

// isJoinerTypeString reports WaitGroup/errgroup types by printed name.
func isJoinerTypeString(s string) bool {
	return strings.Contains(s, "sync.WaitGroup") || strings.Contains(s, "errgroup.Group")
}

// lockIdentity derives a stable cross-function identity for a mutex
// expression: the named type owning the final field plus the field name
// ("serve.Queue.mu"), a package-level variable ("serve.globalMu"), or a
// declaration-position key for locals.
func lockIdentity(info *types.Info, e ast.Expr) string {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if info != nil {
			if t := info.TypeOf(x.X); t != nil {
				return namedTypeString(t) + "." + x.Sel.Name
			}
		}
		return types.ExprString(x)
	case *ast.Ident:
		if info != nil {
			if obj := info.Uses[x]; obj != nil {
				if v, ok := obj.(*types.Var); ok {
					if v.Parent() != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
						return v.Pkg().Name() + "." + x.Name
					}
				}
				return fmt.Sprintf("local.%s@%d", x.Name, obj.Pos())
			}
		}
		return x.Name
	}
	return types.ExprString(e)
}

// namedTypeString renders the named type of t (stripping pointers) as
// "pkg.Type".
func namedTypeString(t types.Type) string {
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil {
			return obj.Pkg().Name() + "." + obj.Name()
		}
		return obj.Name()
	}
	return t.String()
}

// ctxParamName returns the name of the node's context.Context parameter.
func ctxParamName(n *Node) string {
	ft := n.FuncType()
	if ft == nil || ft.Params == nil {
		return ""
	}
	info := unitInfo(n)
	for _, field := range ft.Params.List {
		isCtx := false
		if info != nil {
			if t := info.TypeOf(field.Type); t != nil && t.String() == "context.Context" {
				isCtx = true
			}
		}
		if !isCtx {
			if sel, ok := field.Type.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == "context" && sel.Sel.Name == "Context" {
					isCtx = true
				}
			}
		}
		if !isCtx {
			continue
		}
		if len(field.Names) > 0 {
			return field.Names[0].Name
		}
		return ""
	}
	return ""
}

// hasJoinerParam reports a WaitGroup/errgroup-typed parameter.
func hasJoinerParam(n *Node, info *types.Info) bool {
	ft := n.FuncType()
	if ft == nil || ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if info != nil {
			if t := info.TypeOf(field.Type); t != nil && isJoinerTypeString(t.String()) {
				return true
			}
		}
		if isJoinerTypeString(types.ExprString(field.Type)) {
			return true
		}
	}
	return false
}

func typeDesc(t ast.Expr) string {
	if t == nil {
		return "composite"
	}
	return types.ExprString(t)
}
