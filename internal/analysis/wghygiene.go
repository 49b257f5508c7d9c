package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// wghygiene checks the WaitGroup and channel discipline of the repo's
// goroutines (extract/batch.go, core/matrix.go, core/learn.go,
// cluster's fan-outs and loops):
//
//   - wg.Add must run before the goroutine is spawned, never inside it
//     (inside, Wait can return before Add runs);
//   - wg.Done inside a goroutine must be deferred so every return and
//     panic path releases the wait;
//   - close() of a shared channel inside a goroutine with early returns
//     must be deferred for the same reason.
//
// Tests catch each of these only at some sites, or only on some runs:
// a misplaced Add in a probe loop, or a Done skipped on a worker's
// cancellation path, can pass every test. Shared-slice and map writes
// inside goroutines are left to -race, which fails on every such site.
//
// Both `go func(){...}()` and `go worker(...)` launches are checked:
// named workers resolve through the typed call graph to their
// declaration, whose body is held to the same rules. A worker launched
// from several sites is checked once.
var wghygiene = &Analyzer{
	Name: "wghygiene",
	Doc:  "WaitGroup Add before go, deferred Done and close in goroutines",
	Verb: "wg-ok",
	Run:  runWGHygiene,
}

func runWGHygiene(p *Program) []Diagnostic {
	g := p.CallGraph()
	checkedDecl := make(map[*Node]bool)
	var out []Diagnostic
	for _, pkg := range p.Packages {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
					out = append(out, checkGoroutineBody(p, pkg, lit.Body, lit.Pos(), lit.End())...)
				} else if fn, ok := calleeObj(pkg.Info, gs.Call).(*types.Func); ok {
					// A named worker: resolve to its declaration and hold
					// the body to the same rules.
					if node := g.NodeOf(fn); node != nil && node.Decl != nil && node.Decl.Body != nil && !checkedDecl[node] {
						checkedDecl[node] = true
						out = append(out, checkGoroutineBody(p, node.Pkg, node.Decl.Body, node.Decl.Pos(), node.Decl.End())...)
					}
				}
				return true
			})
		}
	}
	return out
}

// checkGoroutineBody inspects one goroutine body — a go'd function
// literal or the declaration of a named worker. Channels declared within
// [lo, hi] (locals, parameters) belong to the goroutine, so their close
// is not checked.
func checkGoroutineBody(p *Program, pkg *Package, body *ast.BlockStmt, lo, hi token.Pos) []Diagnostic {
	var out []Diagnostic
	hasReturn := false
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.ReturnStmt); ok {
			hasReturn = true
		}
		return true
	})

	// deferred tracks whether each node sits under a defer statement
	// (directly or inside a deferred closure).
	var visit func(n ast.Node, deferred bool)
	visit = func(n ast.Node, deferred bool) {
		if n == nil {
			return
		}
		switch n := n.(type) {
		case *ast.DeferStmt:
			visit(n.Call, true)
			return
		case *ast.CallExpr:
			if sel, isMethod := callViaSelection(pkg, n); isMethod && isWaitGroup(pkg.Info.TypeOf(sel.X)) {
				switch sel.Sel.Name {
				case "Add":
					out = append(out, Diagnostic{
						Pos:     p.Fset.Position(n.Pos()),
						Check:   "wghygiene",
						Message: quote(exprString(sel.X)) + ".Add inside the spawned goroutine races Wait; call Add before the go statement",
						Suggest: "//hoiho:wg-ok <why Add-inside-goroutine cannot race Wait here>",
					})
				case "Done":
					if !deferred {
						out = append(out, Diagnostic{
							Pos:     p.Fset.Position(n.Pos()),
							Check:   "wghygiene",
							Message: quote(exprString(sel.X)) + ".Done is not deferred; an early return or panic would leak the WaitGroup",
							Suggest: "//hoiho:wg-ok <why every path reaches this Done>",
						})
					}
				}
			}
			if isBuiltin(pkg.Info, n, "close") && !deferred && hasReturn && len(n.Args) == 1 {
				if id := rootIdent(n.Args[0]); id != nil {
					if obj := objOf(pkg.Info, id); obj != nil && !declaredWithin(obj, lo, hi) {
						out = append(out, Diagnostic{
							Pos:     p.Fset.Position(n.Pos()),
							Check:   "wghygiene",
							Message: "close(" + exprString(n.Args[0]) + ") is not deferred but the goroutine has return paths; a skipped close deadlocks the receiver",
							Suggest: "//hoiho:wg-ok <why every path reaches this close>",
						})
					}
				}
			}
		}
		var children []ast.Node
		ast.Inspect(n, func(c ast.Node) bool {
			if c == nil || c == n {
				return c == n
			}
			children = append(children, c)
			return false
		})
		for _, c := range children {
			visit(c, deferred)
		}
	}
	visit(body, false)
	return out
}
