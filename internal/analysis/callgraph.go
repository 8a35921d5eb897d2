// Call-graph approximation and per-function fact export: the shared
// substrate under the cross-package checkers (ckptstate, allocfree).
//
// The graph is deliberately lightweight — stdlib go/types only, no SSA:
//
//   - static calls resolve through Info.Uses/Info.Selections to a single
//     *types.Func;
//   - dynamic (interface-method) calls resolve by class-hierarchy
//     analysis: every loaded named type implementing the interface
//     contributes its method as a candidate callee;
//   - function literals are inlined into their enclosing declaration, so
//     a closure's allocations and calls are attributed to the function
//     that created it.
//
// Because each package is type-checked separately (imports resolve
// through export data), the same function is represented by distinct
// *types.Func objects on the defining and the using side. The program
// therefore canonicalizes by FullName: cross-package edges look up the
// defining package's record by name, never by object identity.
//
// Alongside call edges, every function exports its direct allocation
// sites (make/new, slice and map literals, growing appends, closures
// that capture, interface boxing at call boundaries, goroutine
// launches, string concatenation). Sites on cold paths — inside return
// statements, panic arguments, or blocks gated by a *.Tracing() check —
// are recorded but marked cold; the steady-state round body never
// executes them, so the allocation-freedom fact ignores them.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// CallSite is one call expression inside a function body, with the set of
// candidate callees the approximation resolved it to. Static calls have
// exactly one candidate; interface calls have one per implementing type
// loaded in the program; calls through func values have none.
type CallSite struct {
	Pos     token.Pos
	Expr    *ast.CallExpr
	Callees []*types.Func
	Dynamic bool // resolved via interface-method CHA
	Cold    bool // inside a return statement, panic argument, or trace gate
}

// AllocSite is one direct allocation inside a function body.
type AllocSite struct {
	Pos  token.Pos
	Kind string // human-readable label ("make", "closure captures ...", ...)
	Cold bool
}

// FuncInfo is the per-function fact record: the declaration, its package,
// and the exported call and allocation sites (closures inlined).
type FuncInfo struct {
	Obj    *types.Func
	Decl   *ast.FuncDecl
	Pkg    *Package
	Calls  []CallSite
	Allocs []AllocSite
}

// Program is the whole-load view shared by the cross-package checkers:
// every function declared in the loaded packages, indexed and scanned
// once per Run.
type Program struct {
	Pkgs []*Package

	fns      map[*types.Func]*FuncInfo
	fnByName map[string]*FuncInfo
	fnList   []*FuncInfo // deterministic declaration order

	implCache map[string][]*types.Func
	alloc     *allocResult
	ckpt      *ckptResult
}

// NewProgram indexes and scans every function declaration in pkgs.
func NewProgram(pkgs []*Package) *Program {
	p := &Program{
		Pkgs:      pkgs,
		fns:       make(map[*types.Func]*FuncInfo),
		fnByName:  make(map[string]*FuncInfo),
		implCache: make(map[string][]*types.Func),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{Obj: obj, Decl: fd, Pkg: pkg}
				p.fns[obj] = fi
				p.fnByName[obj.FullName()] = fi
				p.fnList = append(p.fnList, fi)
			}
		}
	}
	for _, fi := range p.fnList {
		p.scanFunc(fi)
	}
	return p
}

// FuncOf returns the fact record for fn, canonicalizing across the
// defining/using type-checker split by FullName. Nil when fn's body was
// not loaded (dependency-only package).
func (p *Program) FuncOf(fn *types.Func) *FuncInfo {
	if fi := p.fns[fn]; fi != nil {
		return fi
	}
	return p.fnByName[fn.FullName()]
}

// Funcs returns every scanned function in deterministic order.
func (p *Program) Funcs() []*FuncInfo { return p.fnList }

// scanFunc walks one function body (closures included) recording call
// sites and allocation sites, propagating coldness through return
// statements, panic arguments, and Tracing() gates.
func (p *Program) scanFunc(fi *FuncInfo) {
	if fi.Decl.Body == nil {
		return
	}
	s := &funcScanner{prog: p, fi: fi}
	// The function's final top-level return is the steady-state exit (the
	// `return f(...)` tail-call idiom included); only early returns are
	// treated as cold error/edge paths.
	if list := fi.Decl.Body.List; len(list) > 0 {
		if ret, ok := list[len(list)-1].(*ast.ReturnStmt); ok {
			s.tailReturn = ret
		}
	}
	s.stmtList(fi.Decl.Body.List, false)
}

type funcScanner struct {
	prog *Program
	fi   *FuncInfo
	// ownedSeen breaks cycles when slice-ownership chases mutually
	// defined append chains (a = append(b…); b = append(a…)).
	ownedSeen map[*types.Var]bool
	// tailReturn is the final top-level return statement, whose
	// expressions run on the steady-state path (not the cold error exit).
	tailReturn *ast.ReturnStmt
}

func (s *funcScanner) stmtList(list []ast.Stmt, cold bool) {
	for _, st := range list {
		s.stmt(st, cold)
	}
}

func (s *funcScanner) stmt(st ast.Stmt, cold bool) {
	switch n := st.(type) {
	case nil:
	case *ast.ReturnStmt:
		// Error construction and result packaging in early returns is the
		// cold exit path of otherwise allocation-free kernels; the final
		// return is the steady-state exit and stays hot, so tail calls
		// (`return f(...)`) cannot hide allocations.
		retCold := n != s.tailReturn
		for _, e := range n.Results {
			s.expr(e, retCold || cold)
		}
	case *ast.IfStmt:
		s.stmt(n.Init, cold)
		s.expr(n.Cond, cold)
		bodyCold, elseCold := cold, cold
		if isTracingCall(n.Cond) {
			bodyCold = true // trace emission only runs with the tracer attached
		} else if un, ok := n.Cond.(*ast.UnaryExpr); ok && un.Op == token.NOT && isTracingCall(un.X) {
			elseCold = true
		} else if s.isGrowGuard(n.Cond) {
			// `if cap(buf) < n { buf = make(...) }` is the grow-once idiom:
			// the branch runs on first use (or a cohort-size change), never
			// in steady state. Its allocations are amortized, not per-round.
			bodyCold = true
		}
		s.stmtList(n.Body.List, bodyCold)
		s.stmt(n.Else, elseCold)
	case *ast.BlockStmt:
		s.stmtList(n.List, cold)
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				s.expr(call, true)
				return
			}
		}
		s.expr(n.X, cold)
	case *ast.AssignStmt:
		for _, e := range n.Lhs {
			s.expr(e, cold)
		}
		for _, e := range n.Rhs {
			s.expr(e, cold)
		}
	case *ast.GoStmt:
		s.fi.Allocs = append(s.fi.Allocs, AllocSite{Pos: n.Pos(), Kind: "goroutine launch", Cold: cold})
		s.expr(n.Call, cold)
	case *ast.DeferStmt:
		s.expr(n.Call, cold)
	case *ast.ForStmt:
		s.stmt(n.Init, cold)
		s.expr(n.Cond, cold)
		s.stmt(n.Post, cold)
		s.stmtList(n.Body.List, cold)
	case *ast.RangeStmt:
		s.expr(n.Key, cold)
		s.expr(n.Value, cold)
		s.expr(n.X, cold)
		s.stmtList(n.Body.List, cold)
	case *ast.SwitchStmt:
		s.stmt(n.Init, cold)
		s.expr(n.Tag, cold)
		for _, c := range n.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				s.expr(e, cold)
			}
			s.stmtList(cc.Body, cold)
		}
	case *ast.TypeSwitchStmt:
		s.stmt(n.Init, cold)
		s.stmt(n.Assign, cold)
		for _, c := range n.Body.List {
			s.stmtList(c.(*ast.CaseClause).Body, cold)
		}
	case *ast.SelectStmt:
		for _, c := range n.Body.List {
			cc := c.(*ast.CommClause)
			s.stmt(cc.Comm, cold)
			s.stmtList(cc.Body, cold)
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						s.expr(v, cold)
					}
				}
			}
		}
	case *ast.LabeledStmt:
		s.stmt(n.Stmt, cold)
	case *ast.SendStmt:
		s.expr(n.Chan, cold)
		s.expr(n.Value, cold)
	case *ast.IncDecStmt:
		s.expr(n.X, cold)
	default:
		// Branch, empty: nothing to scan.
	}
}

func (s *funcScanner) expr(e ast.Expr, cold bool) {
	if e == nil {
		return
	}
	switch n := e.(type) {
	case *ast.CallExpr:
		s.call(n, cold)
	case *ast.FuncLit:
		if names := s.captures(n); len(names) > 0 {
			s.fi.Allocs = append(s.fi.Allocs, AllocSite{
				Pos:  n.Pos(),
				Kind: "closure captures " + strings.Join(names, ", "),
				Cold: cold,
			})
		}
		s.stmtList(n.Body.List, cold)
	case *ast.CompositeLit:
		if t := s.fi.Pkg.Info.TypeOf(n); t != nil {
			switch t.Underlying().(type) {
			case *types.Slice:
				s.fi.Allocs = append(s.fi.Allocs, AllocSite{Pos: n.Pos(), Kind: "slice literal", Cold: cold})
			case *types.Map:
				s.fi.Allocs = append(s.fi.Allocs, AllocSite{Pos: n.Pos(), Kind: "map literal", Cold: cold})
			}
		}
		for _, el := range n.Elts {
			s.expr(el, cold)
		}
	case *ast.BinaryExpr:
		if n.Op == token.ADD {
			if tv, ok := s.fi.Pkg.Info.Types[n]; ok && tv.Value == nil && isString(tv.Type) {
				s.fi.Allocs = append(s.fi.Allocs, AllocSite{Pos: n.Pos(), Kind: "string concatenation", Cold: cold})
			}
		}
		s.expr(n.X, cold)
		s.expr(n.Y, cold)
	case *ast.UnaryExpr:
		s.expr(n.X, cold)
	case *ast.StarExpr:
		s.expr(n.X, cold)
	case *ast.ParenExpr:
		s.expr(n.X, cold)
	case *ast.SelectorExpr:
		s.expr(n.X, cold)
	case *ast.IndexExpr:
		s.expr(n.X, cold)
		s.expr(n.Index, cold)
	case *ast.IndexListExpr:
		s.expr(n.X, cold)
	case *ast.SliceExpr:
		s.expr(n.X, cold)
		s.expr(n.Low, cold)
		s.expr(n.High, cold)
		s.expr(n.Max, cold)
	case *ast.TypeAssertExpr:
		s.expr(n.X, cold)
	case *ast.KeyValueExpr:
		s.expr(n.Key, cold)
		s.expr(n.Value, cold)
	default:
		// Ident, literals, types: nothing to scan.
	}
}

// call records a call site (or builtin allocation, or boxing conversion).
func (s *funcScanner) call(call *ast.CallExpr, cold bool) {
	info := s.fi.Pkg.Info
	fun := ast.Unparen(call.Fun)

	// Conversion T(x): allocation only when boxing into an interface.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			if at := info.TypeOf(call.Args[0]); at != nil && !types.IsInterface(at) && !isUntypedNil(at) {
				s.fi.Allocs = append(s.fi.Allocs, AllocSite{
					Pos: call.Pos(), Kind: "conversion boxes value into interface", Cold: cold,
				})
			}
		}
		for _, a := range call.Args {
			s.expr(a, cold)
		}
		return
	}

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if tv, ok := info.Types[id]; ok && tv.IsBuiltin() {
			switch id.Name {
			case "make":
				s.fi.Allocs = append(s.fi.Allocs, AllocSite{Pos: call.Pos(), Kind: "make", Cold: cold})
			case "new":
				s.fi.Allocs = append(s.fi.Allocs, AllocSite{Pos: call.Pos(), Kind: "new", Cold: cold})
			case "append":
				if len(call.Args) > 0 && !s.ownedSlice(call.Args[0]) {
					s.fi.Allocs = append(s.fi.Allocs, AllocSite{
						Pos: call.Pos(), Kind: "append grows a locally-allocated slice", Cold: cold,
					})
				}
			case "panic":
				cold = true
			}
			for _, a := range call.Args {
				s.expr(a, cold)
			}
			return
		}
	}

	// Interface boxing at the call boundary: a concrete argument passed to
	// an interface (or ...interface) parameter allocates.
	if sig, ok := info.TypeOf(call.Fun).(*types.Signature); ok {
		s.checkBoxing(call, sig, cold)
	}

	callees, dynamic := s.prog.resolveCall(s.fi.Pkg, call)
	s.fi.Calls = append(s.fi.Calls, CallSite{
		Pos: call.Pos(), Expr: call, Callees: callees, Dynamic: dynamic, Cold: cold,
	})
	s.expr(call.Fun, cold)
	for _, a := range call.Args {
		s.expr(a, cold)
	}
}

// checkBoxing flags concrete arguments passed to interface parameters.
func (s *funcScanner) checkBoxing(call *ast.CallExpr, sig *types.Signature, cold bool) {
	info := s.fi.Pkg.Info
	params := sig.Params()
	np := params.Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis.IsValid() {
				pt = params.At(np - 1).Type() // xs... passes the slice whole
			} else if sl, ok := params.At(np - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < np:
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || types.IsInterface(at) || isUntypedNil(at) || pointerShaped(at) {
			continue
		}
		s.fi.Allocs = append(s.fi.Allocs, AllocSite{
			Pos:  arg.Pos(),
			Kind: fmt.Sprintf("argument %s boxed into interface parameter", types.TypeString(at, shortQualifier)),
			Cold: cold,
		})
	}
}

// resolveCall maps a call expression to its candidate callees.
func (p *Program) resolveCall(pkg *Package, call *ast.CallExpr) (callees []*types.Func, dynamic bool) {
	info := pkg.Info
	fun := ast.Unparen(call.Fun)
	// Generic instantiation f[T](...) resolves through the inner expr.
	switch g := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(g.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(g.X)
	}
	switch f := fun.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[f].(*types.Func); ok {
			return []*types.Func{fn}, false
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok && sel.Kind() == types.MethodVal {
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil, false
			}
			if sig, ok := fn.Type().(*types.Signature); ok {
				if recv := sig.Recv(); recv != nil && types.IsInterface(recv.Type()) {
					return p.implementers(recv.Type(), fn.Name()), true
				}
			}
			return []*types.Func{fn}, false
		}
		if fn, ok := info.Uses[f.Sel].(*types.Func); ok {
			return []*types.Func{fn}, false // qualified pkg.Func
		}
	}
	return nil, false // call through a func value
}

// implementers is the CHA step: every named type declared in a loaded
// package whose method set satisfies the interface contributes its
// method. An interface named in a loaded package is canonicalized to its
// syntax-checked instance first, so satisfaction checks compare types
// from the same type-checker universe.
func (p *Program) implementers(iface types.Type, method string) []*types.Func {
	if named, ok := iface.(*types.Named); ok {
		obj := named.Obj()
		if obj != nil && obj.Pkg() != nil {
			for _, pkg := range p.Pkgs {
				if pkg.Path == obj.Pkg().Path() {
					if tn, ok := pkg.Types.Scope().Lookup(obj.Name()).(*types.TypeName); ok {
						iface = tn.Type()
					}
					break
				}
			}
		}
	}
	it, ok := iface.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	key := iface.String() + "\x00" + method
	if cached, ok := p.implCache[key]; ok {
		return cached
	}
	var out []*types.Func
	seen := map[string]bool{}
	for _, pkg := range p.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
				continue
			}
			ptr := types.NewPointer(named)
			if !types.Implements(named, it) && !types.Implements(ptr, it) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(ptr, true, tn.Pkg(), method)
			if fn, ok := obj.(*types.Func); ok && !seen[fn.FullName()] {
				seen[fn.FullName()] = true
				out = append(out, fn)
			}
		}
	}
	p.implCache[key] = out
	return out
}

// captures returns the names (in source order, deduplicated) of
// enclosing-function variables a function literal closes over. A literal
// with no captures compiles to a plain func value and does not allocate.
func (s *funcScanner) captures(lit *ast.FuncLit) []string {
	info := s.fi.Pkg.Info
	outer := s.fi.Decl
	var names []string
	seen := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok || obj.IsField() || seen[obj] {
			return true
		}
		// Captured ⇔ declared inside the enclosing declaration but outside
		// the literal. Package-level vars are not captures.
		if obj.Pos() >= outer.Pos() && obj.Pos() < outer.End() &&
			(obj.Pos() < lit.Pos() || obj.Pos() >= lit.End()) {
			seen[obj] = true
			names = append(names, obj.Name())
		}
		return true
	})
	return names
}

// ownedSlice reports whether an append destination is backed by storage
// whose growth is amortized outside this call: a struct field, a
// parameter, a package-level var, a call result, or a slice derived from
// (or converted from) one of those. Appending to such destinations is the sanctioned
// grow-once-scratch idiom; appending to a locally-allocated slice grows
// fresh backing every invocation.
func (s *funcScanner) ownedSlice(dst ast.Expr) bool {
	info := s.fi.Pkg.Info
	e := ast.Unparen(dst)
	for {
		switch n := e.(type) {
		case *ast.IndexExpr:
			e = ast.Unparen(n.X)
		case *ast.SliceExpr:
			e = ast.Unparen(n.X)
		case *ast.StarExpr:
			e = ast.Unparen(n.X)
		case *ast.SelectorExpr:
			return true // rooted at a field or imported var
		case *ast.CallExpr:
			if tv, ok := info.Types[ast.Unparen(n.Fun)]; ok && tv.IsType() && len(n.Args) == 1 {
				// A conversion owns what its operand owns, and []T(nil) owns
				// nothing: append([]T(nil), v...) is the copy idiom, a fresh
				// backing array per call.
				if at, ok := info.Types[n.Args[0]]; ok && at.IsNil() {
					return false
				}
				e = ast.Unparen(n.Args[0])
				continue
			}
			return true // call result: owner unknown, assume amortized
		case *ast.Ident:
			obj, ok := info.Uses[n].(*types.Var)
			if !ok {
				if obj2, ok2 := info.Defs[n].(*types.Var); ok2 {
					obj = obj2
				} else {
					return true
				}
			}
			return s.ownedVar(obj)
		default:
			return true
		}
	}
}

// ownedVar inspects every definition of a local variable inside the
// function: if any definition allocates fresh backing (make, literal,
// append chain, or a bare var declaration starting nil), appends into it
// count as growth of a locally-allocated slice.
func (s *funcScanner) ownedVar(obj *types.Var) bool {
	decl := s.fi.Decl
	if obj.Pos() < decl.Pos() || obj.Pos() >= decl.End() {
		return true // captured from an enclosing scope: not ours to judge
	}
	if s.ownedSeen[obj] {
		return true // already being judged higher in the chase; don't cycle
	}
	if s.ownedSeen == nil {
		s.ownedSeen = map[*types.Var]bool{}
	}
	s.ownedSeen[obj] = true
	defer delete(s.ownedSeen, obj)
	// Parameters and receivers are caller-owned.
	if fieldListHas(decl.Recv, s.fi.Pkg, obj) || fieldListHas(decl.Type.Params, s.fi.Pkg, obj) ||
		fieldListHas(decl.Type.Results, s.fi.Pkg, obj) {
		return true
	}
	info := s.fi.Pkg.Info
	owned := true
	found := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || (info.Defs[id] != obj && info.Uses[id] != obj) {
					continue
				}
				found = true
				if len(st.Rhs) == len(st.Lhs) && !s.ownedRHS(st.Rhs[i]) {
					owned = false
				}
				// Multi-value (call/comma-ok) results: owner unknown, keep owned.
			}
		case *ast.ValueSpec:
			for i, id := range st.Names {
				if info.Defs[id] != obj {
					continue
				}
				found = true
				if len(st.Values) == 0 {
					owned = false // var x []T starts nil; append allocates
				} else if i < len(st.Values) && !s.ownedRHS(st.Values[i]) {
					owned = false
				}
			}
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{st.Key, st.Value} {
				if id, ok := e.(*ast.Ident); ok && info.Defs[id] == obj {
					found = true
				}
			}
		}
		return true
	})
	if !found {
		return true
	}
	return owned
}

// ownedRHS reports whether a defining right-hand side hands over existing
// backing (reslice of a field, parameter pass-through, call result) as
// opposed to allocating fresh backing.
func (s *funcScanner) ownedRHS(e ast.Expr) bool {
	switch n := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return false
	case *ast.CallExpr:
		if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
			switch id.Name {
			case "make":
				return false
			case "append":
				// x = append(y, …) hands over y's backing: the result is
				// locally allocated exactly when y is. The common
				// self-append (x = append(x, …)) is neutral — ownership
				// comes from x's other definitions, and the cycle guard
				// in ownedVar reports it as owned.
				if len(n.Args) > 0 {
					return s.ownedSlice(n.Args[0])
				}
				return false
			}
		}
		return true
	default:
		return true
	}
}

func fieldListHas(fl *ast.FieldList, pkg *Package, obj *types.Var) bool {
	if fl == nil {
		return false
	}
	for _, f := range fl.List {
		for _, name := range f.Names {
			if pkg.Info.Defs[name] == obj {
				return true
			}
		}
	}
	return false
}

// isGrowGuard matches conditions comparing the builtin cap() or len() of
// existing storage (the `if cap(buf) < n` / `if len(s.dev) != dim`
// grow-once idiom): the guarded branch only runs when backing storage
// must be (re)established, never in steady state.
func (s *funcScanner) isGrowGuard(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || (id.Name != "cap" && id.Name != "len") {
			return true
		}
		if _, isBuiltin := s.fi.Pkg.Info.ObjectOf(id).(*types.Builtin); isBuiltin {
			found = true
		}
		return true
	})
	return found
}

// isTracingCall matches the telemetry cold-path gate `x.Tracing()` (or a
// bare `Tracing()`): the guarded block only runs with a tracer attached.
func isTracingCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return f.Sel.Name == "Tracing"
	case *ast.Ident:
		return f.Name == "Tracing"
	}
	return false
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

// pointerShaped reports whether values of t are stored directly in an
// interface's data word: converting them to an interface never allocates.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

// shortQualifier renders package-qualified type names with just the
// package name, keeping diagnostic messages (and baseline keys) free of
// machine-specific paths.
func shortQualifier(p *types.Package) string { return p.Name() }

// lookupTypeName finds the *types.TypeName for "pkg/path.Name",
// preferring the syntax-checked instance of a loaded package over the
// export-data instance seen through imports.
func (p *Program) lookupTypeName(full string) *types.TypeName {
	dot := strings.LastIndex(full, ".")
	if dot < 0 {
		return nil
	}
	path, name := full[:dot], full[dot+1:]
	for _, pkg := range p.Pkgs {
		if pkg.Path == path {
			if tn, ok := pkg.Types.Scope().Lookup(name).(*types.TypeName); ok {
				return tn
			}
			return nil
		}
	}
	seen := map[*types.Package]bool{}
	var find func(tp *types.Package) *types.TypeName
	find = func(tp *types.Package) *types.TypeName {
		if tp == nil || seen[tp] {
			return nil
		}
		seen[tp] = true
		if tp.Path() == path {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
				return tn
			}
			return nil
		}
		for _, imp := range tp.Imports() {
			if tn := find(imp); tn != nil {
				return tn
			}
		}
		return nil
	}
	for _, pkg := range p.Pkgs {
		if tn := find(pkg.Types); tn != nil {
			return tn
		}
	}
	return nil
}

// hasLoadedPackage reports whether the program loaded syntax for path.
func (p *Program) hasLoadedPackage(path string) bool {
	for _, pkg := range p.Pkgs {
		if pkg.Path == path {
			return true
		}
	}
	return false
}

// shortPos renders a position as base-filename:line, stable across
// machines (used inside diagnostic messages and baseline keys).
func (p *Program) shortPos(pkg *Package, pos token.Pos) string {
	ps := pkg.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(ps.Filename), ps.Line)
}
