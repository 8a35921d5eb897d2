// The call graph under ckptstate: every function declared in the loaded
// packages, with its call sites and the callees each one resolves to.
//
// The graph is deliberately lightweight — stdlib go/types only, no SSA:
//
//   - static calls resolve through Info.Uses/Info.Selections to a single
//     *types.Func;
//   - dynamic (interface-method) calls resolve by class-hierarchy
//     analysis: every loaded named type implementing the interface
//     contributes its method as a candidate callee;
//   - function literals are inlined into their enclosing declaration, so
//     a closure's calls are attributed to the function that created it.
//
// Because each package is type-checked separately (imports resolve
// through export data), the same function is represented by distinct
// *types.Func objects on the defining and the using side. The program
// therefore canonicalizes by FullName: cross-package edges look up the
// defining package's record by name, never by object identity.
package analysis

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// CallSite is one call expression inside a function body, with the set of
// candidate callees the approximation resolved it to. Static calls have
// exactly one candidate; interface calls have one per implementing type
// loaded in the program; calls through func values, conversions and
// builtins have none.
type CallSite struct {
	Expr    *ast.CallExpr
	Callees []*types.Func
}

// FuncInfo is one function declaration, its package, and its call sites
// (closures inlined).
type FuncInfo struct {
	Obj   *types.Func
	Decl  *ast.FuncDecl
	Pkg   *Package
	Calls []CallSite
}

// Program is the whole-load view ckptstate works on: every function
// declared in the loaded packages, indexed and scanned once per Run.
type Program struct {
	Pkgs []*Package

	fns      map[*types.Func]*FuncInfo
	fnByName map[string]*FuncInfo
	fnList   []*FuncInfo // deterministic declaration order

	implCache map[string][]*types.Func
	ckpt      *ckptResult
}

// NewProgram indexes every function declaration in pkgs and resolves its
// call sites.
func NewProgram(pkgs []*Package) *Program {
	p := &Program{
		fns:       make(map[*types.Func]*FuncInfo),
		fnByName:  make(map[string]*FuncInfo),
		implCache: make(map[string][]*types.Func),
	}
	p.add(pkgs)
	return p
}

// add indexes every function declaration in pkgs and resolves its call
// sites against the program's packages, pkgs included.
func (p *Program) add(pkgs []*Package) {
	p.Pkgs = append(slices.Clip(p.Pkgs), pkgs...)
	clear(p.implCache) // a new package can implement a cached interface
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
				if fd.Body == nil {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						fi.Calls = append(fi.Calls, CallSite{Expr: call, Callees: p.resolveCall(pkg, call)})
					}
					return true
				})
			}
		}
	}
}

// FuncOf returns the record for fn, canonicalizing across the
// defining/using type-checker split by FullName. Nil when fn's body was
// not loaded (dependency-only package).
func (p *Program) FuncOf(fn *types.Func) *FuncInfo {
	if fi := p.fns[fn]; fi != nil {
		return fi
	}
	return p.fnByName[fn.FullName()]
}

// resolveCall maps a call expression to its candidate callees.
func (p *Program) resolveCall(pkg *Package, call *ast.CallExpr) []*types.Func {
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
			return []*types.Func{fn}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok && sel.Kind() == types.MethodVal {
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil
			}
			if sig, ok := fn.Type().(*types.Signature); ok {
				if recv := sig.Recv(); recv != nil && types.IsInterface(recv.Type()) {
					return p.implementers(recv.Type(), fn.Name())
				}
			}
			return []*types.Func{fn}
		}
		if fn, ok := info.Uses[f.Sel].(*types.Func); ok {
			return []*types.Func{fn} // qualified pkg.Func
		}
	}
	return nil // call through a func value, conversion, or builtin
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
