package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// maporder: Go map iteration order is deliberately randomized, so a range
// over a map must never feed an order-sensitive sink — appending to a
// slice that is not subsequently sorted (the PartitionClasses bug PR 3
// fixed), accumulating floats (`s += v` or `s = s + v`: non-associative
// rounding makes the result order-dependent), or emitting trace events
// (trace byte-identity is a headline invariant). The one sanctioned idiom
// is collect-keys-then-sort:
// an append inside the range is accepted when the same enclosing block
// later passes that slice to sort.* or slices.*.
var maporderChecker = &Checker{
	Name: "maporder",
	Doc:  "no order-sensitive work (unsorted appends, float accumulation, trace emission) inside range-over-map",
	Run:  runMaporder,
}

func runMaporder(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			list, ok := stmtList(n)
			if !ok {
				return true
			}
			for i, stmt := range list {
				rs, ok := stmt.(*ast.RangeStmt)
				if !ok || !isMapType(p.TypeOf(rs.X)) {
					continue
				}
				checkMapRange(p, rs, list[i+1:])
			}
			return true
		})
	}
}

// stmtList extracts the statement list of any block-like node, so range
// statements nested in switch/select cases are found too.
func stmtList(n ast.Node) ([]ast.Stmt, bool) {
	switch n := n.(type) {
	case *ast.BlockStmt:
		return n.List, true
	case *ast.CaseClause:
		return n.Body, true
	case *ast.CommClause:
		return n.Body, true
	}
	return nil, false
}

// isMapType reports whether t is a map, including a type parameter whose
// constraint is a union of map types (the sortedKeys-style generic helper).
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Map); ok {
		return true
	}
	tp, ok := types.Unalias(t).(*types.TypeParam)
	if !ok {
		return false
	}
	iface, ok := tp.Constraint().Underlying().(*types.Interface)
	if !ok {
		return false
	}
	found := false
	for i := 0; i < iface.NumEmbeddeds(); i++ {
		switch e := iface.EmbeddedType(i).(type) {
		case *types.Union:
			for j := 0; j < e.Len(); j++ {
				if _, ok := e.Term(j).Type().Underlying().(*types.Map); !ok {
					return false
				}
				found = true
			}
		default:
			if _, ok := e.Underlying().(*types.Map); !ok {
				return false
			}
			found = true
		}
	}
	return found
}

// checkMapRange walks one range-over-map body for order-sensitive sinks.
// rest is the tail of the enclosing statement list after the range, where
// the sanctioned collect-then-sort idiom places its sort call.
func checkMapRange(p *Pass, rs *ast.RangeStmt, rest []ast.Stmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			checkMapRangeAssign(p, n, rest)
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Emit" {
				if _, isMethod := p.ObjectOf(sel.Sel).(*types.Func); isMethod {
					p.Reportf(n.Pos(), "trace emission inside range over a map: event order would follow map iteration order")
				}
			}
		}
		return true
	})
}

func checkMapRangeAssign(p *Pass, as *ast.AssignStmt, rest []ast.Stmt) {
	floatLHS := len(as.Lhs) == 1 && isFloat(p.TypeOf(as.Lhs[0]))
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		if floatLHS {
			reportFloatAccum(p, as)
		}
		return
	case token.ASSIGN:
		if floatLHS && len(as.Rhs) == 1 && selfArith(p, as.Lhs[0], as.Rhs[0]) {
			reportFloatAccum(p, as)
			return
		}
	case token.DEFINE:
	default:
		return
	}
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		call, ok := as.Rhs[i].(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			continue
		}
		if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" || p.ObjectOf(id) != types.Universe.Lookup("append") {
			continue
		}
		if !sameExpr(p, lhs, call.Args[0]) {
			continue // not a self-accumulating append
		}
		id, ok := lhs.(*ast.Ident)
		if ok && sortedAfter(p, id, rest) {
			continue // collect-then-sort idiom
		}
		p.Reportf(as.Pos(), "append to %s inside range over a map without sorting afterwards: element order would follow map iteration order", exprString(lhs))
	}
}

func reportFloatAccum(p *Pass, as *ast.AssignStmt) {
	p.Reportf(as.Pos(), "float accumulation inside range over a map: result depends on iteration order (iterate sorted keys instead)")
}

// selfArith reports whether e is arithmetic over an expression containing
// lhs: `s = s + v` and the like, the spelled-out forms of `s += v`.
func selfArith(p *Pass, lhs, e ast.Expr) bool {
	be, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch be.Op {
	case token.ADD, token.SUB, token.MUL, token.QUO:
	default:
		return false
	}
	found := false
	ast.Inspect(be, func(n ast.Node) bool {
		if x, ok := n.(ast.Expr); ok && sameExpr(p, lhs, x) {
			found = true
		}
		return !found
	})
	return found
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// sameExpr reports structural equality for the simple expressions that
// appear as append targets: identifiers, selectors, and index expressions.
func sameExpr(p *Pass, a, b ast.Expr) bool {
	switch a := a.(type) {
	case *ast.Ident:
		b, ok := b.(*ast.Ident)
		return ok && p.ObjectOf(a) == p.ObjectOf(b)
	case *ast.SelectorExpr:
		b, ok := b.(*ast.SelectorExpr)
		return ok && a.Sel.Name == b.Sel.Name && sameExpr(p, a.X, b.X)
	case *ast.IndexExpr:
		b, ok := b.(*ast.IndexExpr)
		return ok && sameExpr(p, a.X, b.X) && sameExpr(p, a.Index, b.Index)
	}
	return false
}

func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	}
	return "expression"
}

// sortedAfter reports whether a later statement in the enclosing block
// passes the collected slice to a sort.* or slices.* call.
func sortedAfter(p *Pass, id *ast.Ident, rest []ast.Stmt) bool {
	obj := p.ObjectOf(id)
	if obj == nil {
		return false
	}
	for _, stmt := range rest {
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
			pkgID, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := p.ObjectOf(pkgID).(*types.PkgName)
			if !ok {
				return true
			}
			if path := pn.Imported().Path(); path != "sort" && path != "slices" {
				return true
			}
			for _, arg := range call.Args {
				if argID, ok := arg.(*ast.Ident); ok && p.ObjectOf(argID) == obj {
					found = true
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}
