// The ckptstate checker: every struct that registers state with
// internal/checkpoint.Registry must register ALL of its mutable stateful
// fields. The "added a field, forgot to snapshot it" bug class is the
// worst kind of resume divergence — the run restores cleanly, then
// drifts bit-by-bit from the uncheckpointed state — and golden resume
// tests only catch it for fields the test scenario happens to exercise.
//
// Mechanics (on the Program substrate):
//
//   - registration primitives are the Vector/RNG/Int/Float/Dynamic
//     methods of the registry types named in Policy.CkptRegistries;
//     forwarders (same method names, body calls a primitive — e.g.
//     fl.Checkpointer) are detected by fixpoint and count as primitives;
//   - every function that calls a primitive or forwarder is a registrar;
//     the argument expressions of each registration call are walked to
//     mark covered fields, expanding accessor methods, method values,
//     closures, and chasing local variables back through := and range
//     clauses to the fields they alias;
//   - a struct with at least one covered field is checkpoint-registered;
//     its remaining fields are then classified: float64 vectors (nested
//     slices included) and RNG handles are always stateful; plain
//     ints/floats (and int slices) only count when mutated outside the
//     struct's constructors. Stateful-but-uncovered fields are reported
//     at their declaration.
//
// A deliberately unregistered scratch field carries
// //flvet:allow ckptstate -- <reason> on its declaration line.
package analysis

import (
	"go/ast"
	"go/types"
)

var ckptstateChecker = &Checker{
	Name: "ckptstate",
	Doc:  "every mutable stateful field of a checkpoint-registered struct must be covered by a registration call",
	Run:  runCkptstate,
}

var registrationKinds = []string{"Vector", "RNG", "Int", "Float", "Dynamic"}

// ckptResult caches the whole-program registration facts for one Run.
// All keys are strings ("pkg/path.Struct", "pkg/path.Struct.field",
// function FullNames) so facts unify across the per-package type-checker
// instances.
type ckptResult struct {
	prims    map[string]bool        // FullName of registration primitives
	fwd      map[string]bool        // FullName of forwarder methods
	covered  map[string]bool        // "owner.field" covered by a registration
	cand     map[string]bool        // owners with ≥1 registration
	mutators map[string][]*FuncInfo // "owner.field" → functions mutating it
	rngNames map[string]bool        // named types that are RNG handles
}

func runCkptstate(pass *Pass) {
	if pass.Prog == nil {
		return
	}
	res := pass.Prog.ckptFacts(pass.Policy)
	if len(res.prims) == 0 {
		return // no registry type in scope: nothing to enforce
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				pass.Prog.checkStruct(pass, ts, st, res)
			}
		}
	}
}

// checkStruct reports the stateful-but-unregistered fields of one
// checkpoint-registered struct declaration.
func (p *Program) checkStruct(pass *Pass, ts *ast.TypeSpec, st *ast.StructType, res *ckptResult) {
	tn, ok := pass.Pkg.Info.Defs[ts.Name].(*types.TypeName)
	if !ok {
		return
	}
	owner := typeKey(tn)
	if !res.cand[owner] {
		return
	}
	short := tn.Pkg().Name() + "." + tn.Name()
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			fobj, ok := pass.Pkg.Info.Defs[name].(*types.Var)
			if !ok {
				continue
			}
			label, always, stateful := res.fieldKind(fobj.Type())
			if !stateful {
				continue
			}
			fieldKey := owner + "." + name.Name
			if res.covered[fieldKey] {
				continue
			}
			if !always && !res.mutatedOutsideInit(fieldKey, owner) {
				continue
			}
			pass.Reportf(name.Pos(),
				"struct %s registers checkpoint state but %s field %q is never registered — resume would silently reset it",
				short, label, name.Name)
		}
	}
}

// ckptFacts computes registration coverage for the whole program.
func (p *Program) ckptFacts(pol Policy) *ckptResult {
	if p.ckpt != nil {
		return p.ckpt
	}
	res := &ckptResult{
		prims:    map[string]bool{},
		fwd:      map[string]bool{},
		covered:  map[string]bool{},
		cand:     map[string]bool{},
		mutators: map[string][]*FuncInfo{},
		rngNames: map[string]bool{},
	}
	p.ckpt = res

	// 1. Primitives: the five registration methods of each registry type.
	for _, reg := range pol.CkptRegistries {
		tn := p.lookupTypeName(reg)
		if tn == nil {
			continue
		}
		ptr := types.NewPointer(tn.Type())
		for _, kind := range registrationKinds {
			obj, _, _ := types.LookupFieldOrMethod(ptr, true, tn.Pkg(), kind)
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			res.prims[fn.FullName()] = true
			if kind == "RNG" {
				// The RNG handle type is whatever the primitive takes: a
				// pointer to some named generator type.
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Params().Len() >= 2 {
					if pt, ok := sig.Params().At(1).Type().(*types.Pointer); ok {
						if named, ok := pt.Elem().(*types.Named); ok {
							res.rngNames[typeKey(named.Obj())] = true
						}
					}
				}
			}
		}
	}
	if len(res.prims) == 0 {
		return res
	}

	// 2. Forwarders: registration-named methods whose body reaches a
	// primitive (fixpoint for forwarder-of-forwarder chains).
	isRegName := map[string]bool{}
	for _, k := range registrationKinds {
		isRegName[k] = true
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range p.fnList {
			name := fi.Obj.FullName()
			if fi.Decl.Recv == nil || !isRegName[fi.Obj.Name()] || res.prims[name] || res.fwd[name] {
				continue
			}
			for i := range fi.Calls {
				for _, callee := range fi.Calls[i].Callees {
					cn := callee.FullName()
					if res.prims[cn] || res.fwd[cn] {
						res.fwd[name] = true
						changed = true
					}
				}
			}
		}
	}

	// 3. Coverage: walk every registration call's argument expressions.
	cw := &coverWalker{p: p, res: res}
	for _, fi := range p.fnList {
		name := fi.Obj.FullName()
		if res.prims[name] || res.fwd[name] {
			continue
		}
		for i := range fi.Calls {
			call := &fi.Calls[i]
			reg := false
			for _, callee := range call.Callees {
				cn := callee.FullName()
				if res.prims[cn] || res.fwd[cn] {
					reg = true
				}
			}
			if !reg || call.Expr == nil || len(call.Expr.Args) < 2 {
				continue
			}
			for _, arg := range call.Expr.Args[1:] {
				cw.expr(fi, arg, 0)
			}
		}
	}

	// 4. Mutation sites for the mutation-gated field kinds.
	for _, fi := range p.fnList {
		p.recordMutations(fi, res)
	}
	return res
}

// coverWalker marks fields reachable from registration-call arguments,
// expanding accessor bodies and chasing local aliases.
type coverWalker struct {
	p    *Program
	res  *ckptResult
	seen map[types.Object]bool
}

func (c *coverWalker) expr(fi *FuncInfo, e ast.Expr, depth int) {
	if e == nil || depth > 4 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			c.selector(fi, x, depth)
		case *ast.CallExpr:
			callees, _ := c.p.resolveCall(fi.Pkg, x)
			for _, callee := range callees {
				c.expand(callee, depth)
			}
		case *ast.Ident:
			c.chase(fi, x, depth)
		}
		return true
	})
}

// selector marks field selections covered and expands method values.
func (c *coverWalker) selector(fi *FuncInfo, sel *ast.SelectorExpr, depth int) {
	s, ok := fi.Pkg.Info.Selections[sel]
	if !ok {
		return
	}
	switch s.Kind() {
	case types.FieldVal:
		if owner, field, ok := fieldKeys(fi.Pkg, sel); ok {
			if depth > 0 && constructs(fi, owner) {
				// An expanded constructor initializing its own struct is
				// not registering it: a local chased back to
				// `t := NewT(...)` must not cover every field NewT sets.
				return
			}
			c.res.covered[field] = true
			// Only a field named in the registration call itself makes its
			// owner a checkpoint-registered struct. Selections inside
			// expanded accessor bodies and alias chases add coverage but
			// not candidacy — otherwise every type an accessor touches
			// (an RNG's own internals, say) would be audited as if it
			// were registered.
			if depth == 0 {
				c.res.cand[owner] = true
			}
		}
	case types.MethodVal:
		if fn, ok := s.Obj().(*types.Func); ok {
			c.expand(fn, depth)
		}
	}
}

// expand walks an accessor/callback body, marking its field selections.
func (c *coverWalker) expand(fn *types.Func, depth int) {
	name := fn.FullName()
	if c.res.prims[name] || c.res.fwd[name] {
		return
	}
	cfi := c.p.FuncOf(fn)
	if cfi == nil || cfi.Decl.Body == nil {
		return
	}
	if c.seen == nil {
		c.seen = map[types.Object]bool{}
	}
	if c.seen[cfi.Obj] {
		return
	}
	c.seen[cfi.Obj] = true
	for _, st := range cfi.Decl.Body.List {
		ast.Inspect(st, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				c.selector(cfi, sel, depth+1)
			}
			return true
		})
	}
}

// chase follows a plain local identifier back through := definitions and
// range clauses to the expression it aliases: the `r` in
// `for _, r := range h.samplers[l]` covers h.samplers.
func (c *coverWalker) chase(fi *FuncInfo, id *ast.Ident, depth int) {
	obj, ok := fi.Pkg.Info.Uses[id].(*types.Var)
	if !ok || obj.IsField() || fi.Decl.Body == nil {
		return
	}
	if obj.Pos() < fi.Decl.Pos() || obj.Pos() >= fi.Decl.End() {
		return // not a local of this registrar
	}
	if c.seen == nil {
		c.seen = map[types.Object]bool{}
	}
	if c.seen[obj] {
		return
	}
	c.seen[obj] = true
	info := fi.Pkg.Info
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				lid, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || (info.Defs[lid] != obj && info.Uses[lid] != obj) {
					continue
				}
				if len(st.Rhs) == len(st.Lhs) {
					c.expr(fi, st.Rhs[i], depth+1)
				} else if len(st.Rhs) == 1 {
					c.expr(fi, st.Rhs[0], depth+1)
				}
			}
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{st.Key, st.Value} {
				if rid, ok := e.(*ast.Ident); ok && info.Defs[rid] == obj {
					c.expr(fi, st.X, depth+1)
				}
			}
		case *ast.ValueSpec:
			for i, vid := range st.Names {
				if info.Defs[vid] == obj && i < len(st.Values) {
					c.expr(fi, st.Values[i], depth+1)
				}
			}
		}
		return true
	})
}

// recordMutations collects field assignment/increment/address-taken sites
// for the mutation-gated candidate kinds.
func (p *Program) recordMutations(fi *FuncInfo, res *ckptResult) {
	if fi.Decl.Body == nil {
		return
	}
	mark := func(e ast.Expr) {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.IndexExpr:
				e = x.X
			case *ast.SliceExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.SelectorExpr:
				if _, field, ok := fieldKeys(fi.Pkg, x); ok {
					res.mutators[field] = append(res.mutators[field], fi)
				}
				return
			default:
				return
			}
		}
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				mark(lhs)
			}
		case *ast.IncDecStmt:
			mark(st.X)
		case *ast.UnaryExpr:
			if st.Op.String() == "&" {
				mark(st.X)
			}
		}
		return true
	})
}

// mutatedOutsideInit reports whether any non-constructor function mutates
// the field. Constructors (functions returning the owner type) setting
// initial values do not make a field "mutable state".
func (res *ckptResult) mutatedOutsideInit(fieldKey, owner string) bool {
	for _, fi := range res.mutators[fieldKey] {
		if !constructs(fi, owner) {
			return true
		}
	}
	return false
}

// constructs reports whether fi returns the owner type (by value or
// pointer) — the constructor heuristic.
func constructs(fi *FuncInfo, owner string) bool {
	sig, ok := fi.Obj.Type().(*types.Signature)
	if !ok {
		return false
	}
	results := sig.Results()
	for i := 0; i < results.Len(); i++ {
		t := results.At(i).Type()
		if pt, ok := t.(*types.Pointer); ok {
			t = pt.Elem()
		}
		if named, ok := t.(*types.Named); ok && typeKey(named.Obj()) == owner {
			return true
		}
	}
	return false
}

// fieldKind classifies a field type: (label, always-stateful, stateful).
// Vector-like and RNG-handle fields are stateful unconditionally; scalar
// ints/floats and int slices only when mutated outside init.
func (res *ckptResult) fieldKind(t types.Type) (string, bool, bool) {
	u := t.Underlying()
	if pt, ok := u.(*types.Pointer); ok {
		if named, ok := pt.Elem().(*types.Named); ok && res.rngNames[typeKey(named.Obj())] {
			return "RNG-handle", true, true
		}
		return "", false, false
	}
	// Peel slice/map layers down to the element leaf.
	leaf, dims, viaMap := t, 0, false
	for {
		switch lu := leaf.Underlying().(type) {
		case *types.Slice:
			leaf = lu.Elem()
			dims++
			continue
		case *types.Map:
			leaf = lu.Elem()
			dims++
			viaMap = true
			continue
		}
		break
	}
	if dims > 0 {
		if pt, ok := leaf.Underlying().(*types.Pointer); ok {
			if named, ok := pt.Elem().(*types.Named); ok && res.rngNames[typeKey(named.Obj())] {
				return "RNG-handle", true, true
			}
			return "", false, false
		}
		if b, ok := leaf.Underlying().(*types.Basic); ok {
			switch {
			case b.Info()&types.IsFloat != 0:
				if viaMap {
					return "float-state map", true, true
				}
				return "vector-state", true, true
			case b.Info()&types.IsInteger != 0 && !viaMap:
				return "counter-vector", false, true
			}
		}
		return "", false, false
	}
	if b, ok := u.(*types.Basic); ok {
		switch {
		case b.Info()&types.IsFloat != 0:
			return "scalar-state", false, true
		case b.Info()&types.IsInteger != 0 && b.Kind() != types.Uintptr:
			return "counter", false, true
		}
	}
	return "", false, false
}

// fieldKeys derives the ("pkg.Owner", "pkg.Owner.field") coverage keys
// for a field selection.
func fieldKeys(pkg *Package, sel *ast.SelectorExpr) (owner, field string, ok bool) {
	s, found := pkg.Info.Selections[sel]
	if !found || s.Kind() != types.FieldVal {
		return "", "", false
	}
	xt := pkg.Info.TypeOf(sel.X)
	for {
		if pt, isPtr := xt.(*types.Pointer); isPtr {
			xt = pt.Elem()
			continue
		}
		break
	}
	named, isNamed := xt.(*types.Named)
	if !isNamed {
		return "", "", false
	}
	owner = typeKey(named.Obj())
	return owner, owner + "." + sel.Sel.Name, true
}

// typeKey renders a TypeName as "pkg/path.Name", identical across
// type-checker instances.
func typeKey(obj *types.TypeName) string {
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}
