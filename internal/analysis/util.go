package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// exprString renders a simple expression (identifiers, selectors, index
// and unary forms) to a stable string for structural comparison, e.g.
// matching the slice appended inside a loop against the argument of a
// later sort call. Unsupported forms render as "?".
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[" + exprString(e.Index) + "]"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.UnaryExpr:
		return e.Op.String() + exprString(e.X)
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.BasicLit:
		return e.Value
	case *ast.CallExpr:
		args := make([]string, len(e.Args))
		for i, a := range e.Args {
			args[i] = exprString(a)
		}
		return exprString(e.Fun) + "(" + strings.Join(args, ",") + ")"
	}
	return "?"
}

// rootIdent returns the leftmost identifier of an lvalue-ish expression
// (x, x.f, x[i], *x, &x), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// objOf resolves an identifier to its object via Uses then Defs.
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// declaredWithin reports whether obj's declaration lies inside the
// [lo, hi] position range. Objects with NoPos (builtins, some package
// members) count as outside.
func declaredWithin(obj types.Object, lo, hi token.Pos) bool {
	if obj == nil || !obj.Pos().IsValid() {
		return false
	}
	return obj.Pos() >= lo && obj.Pos() <= hi
}

// isPkgFunc reports whether the call's callee is the named function of
// the named package (by import path), e.g. isPkgFunc(info, call,
// "regexp", "MustCompile").
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath string, names ...string) bool {
	obj := calleeObj(info, call)
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != pkgPath {
		return false
	}
	if len(names) == 0 {
		return true
	}
	for _, n := range names {
		if obj.Name() == n {
			return true
		}
	}
	return false
}

// calleeObj resolves the object a call invokes: a *types.Func for
// static function and method calls, a *types.Builtin for builtins, nil
// for dynamic calls through function values or interfaces it cannot
// see through.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return objOf(info, fun)
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj()
		}
		return objOf(info, fun.Sel)
	}
	return nil
}

// isBuiltin reports whether the call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = objOf(info, id).(*types.Builtin)
	return ok
}

// isWaitGroup reports whether t (possibly behind pointers) is
// sync.WaitGroup.
func isWaitGroup(t types.Type) bool {
	for {
		p, ok := t.Underlying().(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}

// isMapType reports whether the expression's type is a map.
func isMapType(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// containsExpr reports whether the expression tree contains a
// sub-expression rendering equal to target under exprString.
func containsExpr(e ast.Expr, target string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if x, ok := n.(ast.Expr); ok && exprString(x) == target {
			found = true
		}
		return !found
	})
	return found
}

// stmtLists yields every []ast.Stmt container in the file (blocks, case
// bodies, comm clauses) so analyzers can reason about a statement's
// followers within its enclosing list.
func stmtLists(f *ast.File, visit func([]ast.Stmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			visit(n.List)
		case *ast.CaseClause:
			visit(n.Body)
		case *ast.CommClause:
			visit(n.Body)
		}
		return true
	})
}

// unlabel unwraps labeled statements.
func unlabel(s ast.Stmt) ast.Stmt {
	for {
		l, ok := s.(*ast.LabeledStmt)
		if !ok {
			return s
		}
		s = l.Stmt
	}
}

// callViaSelection reports whether the call is a method call through a
// receiver value (info.Selections), as opposed to a package-qualified
// function call.
func callViaSelection(pkg *Package, call *ast.CallExpr) (*ast.SelectorExpr, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	_, isSel := pkg.Info.Selections[sel]
	return sel, isSel
}
