package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// This file is the dataflow half of the typed driver: per-function
// summaries that analyzers combine with call-graph reachability.
// Summaries are computed over a node's OWN body — nested function
// literals are separate graph nodes and are summarized separately, so a
// closure's allocations are attributed to the closure (which is
// reachable from its creator via an EdgeClosure edge), not smeared over
// the enclosing function.

// AllocSite is one place a function allocates: what allocates, where,
// and a human-readable description for the diagnostic.
type AllocSite struct {
	Pos  token.Pos
	Desc string
}

// allocSites summarizes every allocation in the node's own body:
//
//   - append (may grow the backing array)
//   - make / new
//   - map, slice, and &struct composite literals
//   - string concatenation (+ / +=)
//   - string <-> []byte / []rune conversions, except a conversion used
//     directly as a map index (m[string(b)]), which the compiler
//     performs without copying
//   - fmt.* calls (always allocate; their operands' boxing is part of
//     the call and not reported separately)
//   - interface boxing: a non-pointer-shaped concrete value passed
//     where a parameter is interface-typed
//   - creating a function literal (the closure and its captures live on
//     the heap when the closure escapes, which a hot path must assume)
//
// Constant expressions never allocate and are skipped.
func allocSites(pkg *Package, n *Node) []AllocSite {
	body := n.Body()
	if body == nil {
		return nil
	}
	info := pkg.Info
	var sites []AllocSite
	add := func(pos token.Pos, desc string) {
		sites = append(sites, AllocSite{Pos: pos, Desc: desc})
	}

	// Conversions appearing directly as a map index are exempt.
	mapIndexConv := make(map[ast.Expr]bool)
	// Arguments of fmt calls are covered by the call's own site.
	fmtArg := make(map[ast.Expr]bool)
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.IndexExpr:
			if isMapType(info, x.X) {
				mapIndexConv[ast.Unparen(x.Index)] = true
			}
		case *ast.CallExpr:
			if isPkgFunc(info, x, "fmt") {
				for _, a := range x.Args {
					fmtArg[ast.Unparen(a)] = true
				}
			}
		}
		return true
	})

	var visit func(x ast.Node)
	visit = func(x ast.Node) {
		if x == nil {
			return
		}
		switch x := x.(type) {
		case *ast.FuncLit:
			if x != n.Lit {
				add(x.Pos(), "creating a closure allocates the function value and heap-promotes its captures")
				return // the literal's body is its own node
			}
		case *ast.CallExpr:
			visitAllocCall(pkg, x, mapIndexConv, fmtArg, add)
		case *ast.CompositeLit:
			switch info.TypeOf(x).Underlying().(type) {
			case *types.Map:
				add(x.Pos(), "map literal allocates")
			case *types.Slice:
				add(x.Pos(), "slice literal allocates its backing array")
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if lit, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					add(x.Pos(), "&"+types.TypeString(info.TypeOf(lit), types.RelativeTo(pkg.Types))+"{...} escapes to the heap")
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isStringType(info.TypeOf(x)) && !isConst(info, x) {
				add(x.Pos(), "string concatenation allocates the joined copy")
			}
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && isStringType(info.TypeOf(x.Lhs[0])) {
				add(x.Pos(), "string += allocates the joined copy")
			}
		}
		var children []ast.Node
		ast.Inspect(x, func(c ast.Node) bool {
			if c == nil || c == x {
				return c == x
			}
			children = append(children, c)
			return false
		})
		for _, c := range children {
			visit(c)
		}
	}
	visit(body)
	return sites
}

// visitAllocCall classifies one call expression's allocations.
func visitAllocCall(pkg *Package, call *ast.CallExpr, mapIndexConv, fmtArg map[ast.Expr]bool, add func(token.Pos, string)) {
	info := pkg.Info

	// Conversion? (string <-> []byte/[]rune)
	if fun := ast.Unparen(call.Fun); len(call.Args) == 1 {
		if tv, ok := info.Types[fun]; ok && tv.IsType() {
			if isConst(info, call) || mapIndexConv[call] {
				return
			}
			to, from := tv.Type, info.TypeOf(call.Args[0])
			switch {
			case isStringType(to) && isByteOrRuneSlice(from):
				add(call.Pos(), "string(...) conversion copies the bytes")
			case isByteOrRuneSlice(to) && isStringType(from):
				add(call.Pos(), types.TypeString(to, types.RelativeTo(pkg.Types))+"(...) conversion copies the string")
			}
			return
		}
	}

	if isBuiltin(info, call, "append") {
		add(call.Pos(), "append may grow the backing array")
		return
	}
	if isBuiltin(info, call, "make") {
		add(call.Pos(), "make allocates")
		return
	}
	if isBuiltin(info, call, "new") {
		add(call.Pos(), "new allocates")
		return
	}
	if isPkgFunc(info, call, "fmt") {
		obj := calleeObj(info, call)
		add(call.Pos(), "fmt."+obj.Name()+" formats through reflection and allocates")
		return
	}

	// Interface boxing at the call boundary: a concrete, non-pointer-
	// shaped argument passed to an interface-typed parameter is copied
	// to the heap. fmt arguments are covered by the fmt call site.
	sig := callSignature(info, call)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		if fmtArg[ast.Unparen(arg)] || isConst(info, arg) {
			continue
		}
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // passing a slice through ...: no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || types.IsInterface(at) || isPointerShaped(at) || isUntypedNil(at) {
			continue
		}
		add(arg.Pos(), "passing "+types.TypeString(at, types.RelativeTo(pkg.Types))+" as "+types.TypeString(pt, types.RelativeTo(pkg.Types))+" boxes it on the heap")
	}
}

// callSignature returns the callee's signature for ordinary calls, nil
// for conversions and builtins.
func callSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[ast.Unparen(call.Fun)]
	if !ok || tv.IsType() {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// isPointerShaped reports whether values of t fit in a pointer word and
// convert to interfaces without allocating a copy.
func isPointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.UnsafePointer {
		return true
	}
	return false
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

// isConst reports whether the expression is a compile-time constant
// (constants convert and box at link time, not per call).
func isConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

// --- lock summaries -------------------------------------------

// LockOp is one mutex operation in a function body, in source order.
type LockOp struct {
	Key    string // stable identity of the mutex (see mutexKey)
	Pos    token.Pos
	Unlock bool
	Defer  bool
}

// lockSummary lists the node's mutex Lock/RLock/Unlock/RUnlock calls in
// source order. Deferred unlocks are marked: they release at function
// end, so for ordering purposes the mutex stays held.
func lockSummary(pkg *Package, n *Node) []LockOp {
	body := n.Body()
	if body == nil {
		return nil
	}
	var ops []LockOp
	var visit func(x ast.Node, deferred bool)
	visit = func(x ast.Node, deferred bool) {
		if x == nil {
			return
		}
		switch x := x.(type) {
		case *ast.FuncLit:
			if x != n.Lit {
				return // separate node
			}
		case *ast.DeferStmt:
			visit(x.Call, true)
			return
		case *ast.CallExpr:
			if sel, ok := callViaSelection(pkg, x); ok && isMutexType(pkg.Info.TypeOf(sel.X)) {
				switch sel.Sel.Name {
				case "Lock", "RLock":
					ops = append(ops, LockOp{Key: mutexKey(pkg, sel.X), Pos: x.Pos(), Defer: deferred})
				case "Unlock", "RUnlock":
					ops = append(ops, LockOp{Key: mutexKey(pkg, sel.X), Pos: x.Pos(), Unlock: true, Defer: deferred})
				}
			}
		}
		var children []ast.Node
		ast.Inspect(x, func(c ast.Node) bool {
			if c == nil || c == x {
				return c == x
			}
			children = append(children, c)
			return false
		})
		for _, c := range children {
			visit(c, deferred)
		}
	}
	visit(body, false)
	return ops
}

// isMutexType reports whether t (possibly behind pointers) is
// sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
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
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// mutexKey derives a stable identity for the locked expression:
//
//   - a field on a named type -> "Type.field" (the same mutex across
//     every method of the type, so cross-function orderings compare);
//   - a package-level var -> "pkg.var";
//   - a local -> "local@file:line" of its declaration, unique per
//     declaration so unrelated locals in different functions never
//     alias.
func mutexKey(pkg *Package, e ast.Expr) string {
	e = ast.Unparen(e)
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
			if named := namedOf(s.Recv()); named != nil {
				return named.Obj().Name() + "." + sel.Sel.Name
			}
		}
		// Qualified package-level var (pkg.Mu) or field on an unnamed
		// receiver: fall back to the printed form.
		return exprString(e)
	}
	if id, ok := e.(*ast.Ident); ok {
		if v, ok := objOf(pkg.Info, id).(*types.Var); ok {
			if v.Parent() == pkg.Types.Scope() {
				return pkg.Types.Name() + "." + v.Name()
			}
			// token.Pos is unique per declaration across the FileSet, so
			// unrelated locals never alias.
			return "local@" + strconv.Itoa(int(v.Pos()))
		}
	}
	return exprString(e)
}

// namedOf unwraps pointers to a named type.
func namedOf(t types.Type) *types.Named {
	for {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	named, _ := t.(*types.Named)
	return named
}
