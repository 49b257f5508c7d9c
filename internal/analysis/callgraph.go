package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
)

// This file is the typed interprocedural driver every reachability-based
// analyzer shares. A resolver that only follows identifiers misses three
// whole classes of edges: calls through method values (f := c.helper;
// f()), dynamic dispatch through interfaces (m.MatchString where m has
// an interface type), and closures handed to other code. A fmt.Sprintf
// two calls deep behind any of those is exactly the shape that silently
// re-allocates the zero-alloc hot path. The typed graph resolves all
// three against go/types:
//
//   - static calls and method calls bind to the callee's *types.Func;
//   - interface-method calls fan out to every declared implementation
//     in the module (types.Implements over the package scopes);
//   - references to functions — method values, method expressions,
//     function identifiers used as values — add a "ref" edge from the
//     referencing function, so a function stored now and called later
//     is reachable from the code that took its address;
//   - every function literal is its own node with a "closure" edge from
//     its encloser (creating a closure in hot code makes its body hot),
//     and a local variable bound to exactly one function literal or
//     declared function resolves calls through that variable directly.
//
// The graph is deliberately an over-approximation: a ref edge means
// "may be invoked by code this function armed", not "is always called".
// For the invariants checked here (no allocations on the zero-alloc
// path, no unguarded sends, one lock order) over-approximation errs
// exactly the right way.

// EdgeKind classifies how a caller reaches a callee.
type EdgeKind uint8

const (
	// EdgeCall is a direct static call (function, method, or a call
	// through a local variable bound to exactly one function).
	EdgeCall EdgeKind = iota
	// EdgeDispatch is an interface-method call resolved to a declared
	// implementation in the module.
	EdgeDispatch
	// EdgeRef is a function reference: a method value, method
	// expression, or function identifier used as a value. The target may
	// be invoked later by whoever receives the value.
	EdgeRef
	// EdgeClosure connects a function to a literal it creates.
	EdgeClosure
)

// Edge is one resolved caller→callee relation with the source position
// that justifies it.
type Edge struct {
	Kind EdgeKind
	Pos  token.Pos
	To   *Node
}

// Node is one function in the typed call graph: a declared function or
// method (Fn != nil, Decl != nil) or a function literal (Lit != nil).
type Node struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	Pkg  *Package
	// Edges are the node's outgoing edges in source order.
	Edges []Edge
	// OnceBody marks a literal passed directly to (*sync.Once).Do: its
	// body runs exactly once per Once no matter how hot the caller, so
	// per-item analyses (hotalloc) do not descend into it.
	OnceBody bool
	name     string
}

// Name returns the node's stable display name: (*types.Func).FullName
// for declared functions, "func@file:line" for literals.
func (n *Node) Name() string { return n.name }

// Body returns the node's function body (nil for bodiless decls).
func (n *Node) Body() *ast.BlockStmt {
	if n.Lit != nil {
		return n.Lit.Body
	}
	if n.Decl != nil {
		return n.Decl.Body
	}
	return nil
}

// Graph is the module-wide typed call graph. Build it once per Program
// via (*Program).CallGraph.
type Graph struct {
	Nodes  []*Node
	byFn   map[*types.Func]*Node
	byLit  map[*ast.FuncLit]*Node
	byName map[string]*Node
	prog   *Program

	implMu    sync.Mutex
	implCache map[implKey][]*Node
	named     []*types.Named // every named (non-interface-alias) type declared in the module
}

type implKey struct {
	iface  *types.Interface
	method string
}

// CallGraph returns the program's typed call graph, building it on
// first use.
func (p *Program) CallGraph() *Graph {
	p.graphOnce.Do(func() { p.graph = buildGraph(p) })
	return p.graph
}

// NodeOf returns the node for a declared function, or nil.
func (g *Graph) NodeOf(fn *types.Func) *Node { return g.byFn[fn] }

// NodeOfLit returns the node for a function literal, or nil.
func (g *Graph) NodeOfLit(lit *ast.FuncLit) *Node { return g.byLit[lit] }

// NodeByName resolves a (*types.Func).FullName-style root name.
func (g *Graph) NodeByName(full string) *Node { return g.byName[full] }

// UnresolvedRoots returns every configured zero-alloc root name that
// does not resolve to a declared function in the loaded module. A
// rename of ExtractBatch must fail loudly here, not silently disable
// the hotalloc proof rooted at it; Run reports each one as a "roots"
// finding.
func (p *Program) UnresolvedRoots() []string {
	g := p.CallGraph()
	var missing []string
	for _, name := range p.Config.ZeroAllocRoots {
		if g.NodeByName(name) == nil {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	return missing
}

// Reachable walks the graph from the named roots and maps every
// reachable node to the name of the root it was first reached from
// (BFS, so the nearest root wins deterministically). skip, when
// non-nil, prunes traversal: a skipped node is neither visited nor
// descended into.
func (g *Graph) Reachable(roots []string, skip func(*Node) bool) map[*Node]string {
	reach := make(map[*Node]string)
	var queue []*Node
	for _, name := range roots {
		n := g.byName[name]
		if n == nil || (skip != nil && skip(n)) {
			continue
		}
		if _, ok := reach[n]; ok {
			continue
		}
		reach[n] = name
		queue = append(queue, n)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Edges {
			if _, ok := reach[e.To]; ok {
				continue
			}
			if skip != nil && skip(e.To) {
				continue
			}
			reach[e.To] = reach[n]
			queue = append(queue, e.To)
		}
	}
	return reach
}

func buildGraph(p *Program) *Graph {
	g := &Graph{
		byFn:      make(map[*types.Func]*Node),
		byLit:     make(map[*ast.FuncLit]*Node),
		byName:    make(map[string]*Node),
		prog:      p,
		implCache: make(map[implKey][]*Node),
	}
	// Pass 0: named types (for interface dispatch) and declared nodes.
	for _, pkg := range p.Packages {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				g.named = append(g.named, named)
			}
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				n := &Node{Fn: fn, Decl: fd, Pkg: pkg, name: fn.FullName()}
				g.Nodes = append(g.Nodes, n)
				g.byFn[fn] = n
				g.byName[n.name] = n
			}
		}
	}
	// Pass 1: walk every declared body, creating literal nodes and edges.
	for _, pkg := range p.Packages {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				owner := g.byFn[pkg.Info.Defs[fd.Name].(*types.Func)]
				b := &graphBuilder{g: g, pkg: pkg, bindings: collectBindings(pkg, fd.Body)}
				b.walk(fd.Body, owner)
			}
		}
	}
	return g
}

// collectBindings maps local variables to the single function they are
// bound to, when that binding is unambiguous: every assignment to the
// variable in the body has a function literal, function identifier, or
// method value on its right-hand side, and they all name one target.
// Calls through such a variable resolve as direct calls.
func collectBindings(pkg *Package, body *ast.BlockStmt) map[*types.Var]ast.Expr {
	cands := make(map[*types.Var][]ast.Expr)
	poisoned := make(map[*types.Var]bool)
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		v, ok := objOf(pkg.Info, id).(*types.Var)
		if !ok || v.IsField() {
			return
		}
		if _, isSig := v.Type().Underlying().(*types.Signature); !isSig {
			return
		}
		switch ast.Unparen(rhs).(type) {
		case *ast.FuncLit, *ast.Ident, *ast.SelectorExpr:
			cands[v] = append(cands[v], ast.Unparen(rhs))
		default:
			poisoned[v] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i := range as.Lhs {
			record(as.Lhs[i], as.Rhs[i])
		}
		return true
	})
	out := make(map[*types.Var]ast.Expr)
	for v, rhss := range cands {
		if poisoned[v] || len(rhss) != 1 {
			continue
		}
		out[v] = rhss[0]
	}
	return out
}

type graphBuilder struct {
	g        *Graph
	pkg      *Package
	bindings map[*types.Var]ast.Expr
	// callFuns marks expressions that are the callee position of a call,
	// so the reference pass does not double-count them.
	callFuns map[ast.Expr]bool
}

// walk visits n attributing edges to owner; entering a function literal
// switches ownership to the literal's node.
func (b *graphBuilder) walk(root ast.Node, owner *Node) {
	if b.callFuns == nil {
		b.callFuns = make(map[ast.Expr]bool)
	}
	var visit func(n ast.Node, owner *Node)
	visit = func(n ast.Node, owner *Node) {
		if n == nil {
			return
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			lit := b.g.byLit[n]
			if lit == nil {
				pos := b.g.prog.Fset.Position(n.Pos())
				lit = &Node{
					Lit: n, Pkg: b.pkg,
					name: fmt.Sprintf("%s.func@%s:%d", b.pkg.Path, shortFile(pos.Filename), pos.Line),
				}
				b.g.Nodes = append(b.g.Nodes, lit)
				b.g.byLit[n] = lit
			}
			owner.Edges = append(owner.Edges, Edge{Kind: EdgeClosure, Pos: n.Pos(), To: lit})
			visit(n.Body, lit)
			return
		case *ast.CallExpr:
			b.callExpr(n, owner)
			// The callee expression's children (receiver expressions,
			// nested calls in arguments) still need visiting; mark only
			// the exact callee node as consumed.
			b.callFuns[ast.Unparen(n.Fun)] = true
		case *ast.Ident:
			if !b.callFuns[n] {
				if fn, ok := objOf(b.pkg.Info, n).(*types.Func); ok {
					if to := b.g.byFn[fn]; to != nil {
						owner.Edges = append(owner.Edges, Edge{Kind: EdgeRef, Pos: n.Pos(), To: to})
					}
				}
			}
		case *ast.SelectorExpr:
			if !b.callFuns[n] {
				if sel, ok := b.pkg.Info.Selections[n]; ok {
					switch sel.Kind() {
					case types.MethodVal, types.MethodExpr:
						if fn, ok := sel.Obj().(*types.Func); ok {
							if to := b.g.byFn[fn]; to != nil {
								owner.Edges = append(owner.Edges, Edge{Kind: EdgeRef, Pos: n.Pos(), To: to})
							}
						}
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
			visit(c, owner)
		}
	}
	visit(root, owner)
}

// callExpr resolves one call expression into edges from owner.
func (b *graphBuilder) callExpr(call *ast.CallExpr, owner *Node) {
	fun := ast.Unparen(call.Fun)
	// Interface dispatch: a method call whose receiver is an interface
	// fans out to every declared implementation.
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if s, ok := b.pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			if iface, ok := s.Recv().Underlying().(*types.Interface); ok {
				if m, ok := s.Obj().(*types.Func); ok {
					for _, impl := range b.g.implementations(iface, m.Name()) {
						owner.Edges = append(owner.Edges, Edge{Kind: EdgeDispatch, Pos: call.Pos(), To: impl})
					}
					b.markOnceBody(call, fun)
					return
				}
			}
		}
	}
	// Static call (function, method, conversion excluded by the Func
	// assertion).
	if fn, ok := calleeObj(b.pkg.Info, call).(*types.Func); ok {
		if to := b.g.byFn[fn]; to != nil {
			owner.Edges = append(owner.Edges, Edge{Kind: EdgeCall, Pos: call.Pos(), To: to})
		}
		b.markOnceBody(call, fun)
		return
	}
	// Call through a local variable bound to exactly one function.
	if id, ok := fun.(*ast.Ident); ok {
		if v, ok := objOf(b.pkg.Info, id).(*types.Var); ok {
			if target, ok := b.bindings[v]; ok {
				switch t := target.(type) {
				case *ast.FuncLit:
					if to := b.g.byLit[t]; to != nil {
						owner.Edges = append(owner.Edges, Edge{Kind: EdgeCall, Pos: call.Pos(), To: to})
					}
				case *ast.Ident:
					if fn, ok := objOf(b.pkg.Info, t).(*types.Func); ok {
						if to := b.g.byFn[fn]; to != nil {
							owner.Edges = append(owner.Edges, Edge{Kind: EdgeCall, Pos: call.Pos(), To: to})
						}
					}
				case *ast.SelectorExpr:
					if s, ok := b.pkg.Info.Selections[t]; ok {
						if fn, ok := s.Obj().(*types.Func); ok {
							if to := b.g.byFn[fn]; to != nil {
								owner.Edges = append(owner.Edges, Edge{Kind: EdgeCall, Pos: call.Pos(), To: to})
							}
						}
					}
				}
			}
		}
	}
	// A call through an immediately-invoked literal: func(){...}() — the
	// literal node and closure edge come from the FuncLit visit.
}

// markOnceBody flags a literal argument of (*sync.Once).Do.
func (b *graphBuilder) markOnceBody(call *ast.CallExpr, fun ast.Expr) {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Do" {
		return
	}
	obj := calleeObj(b.pkg.Info, call)
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return
	}
	if len(call.Args) != 1 {
		return
	}
	if lit, ok := ast.Unparen(call.Args[0]).(*ast.FuncLit); ok {
		// The literal node may not exist yet (arguments are visited after
		// the call); defer by creating it here.
		n := b.g.byLit[lit]
		if n == nil {
			pos := b.g.prog.Fset.Position(lit.Pos())
			n = &Node{
				Lit: lit, Pkg: b.pkg,
				name: fmt.Sprintf("%s.func@%s:%d", b.pkg.Path, shortFile(pos.Filename), pos.Line),
			}
			b.g.Nodes = append(b.g.Nodes, n)
			b.g.byLit[lit] = n
		}
		n.OnceBody = true
	}
}

// implementations resolves an interface method to the nodes of every
// declared module implementation (value or pointer receiver, including
// promoted methods that resolve to module code).
func (g *Graph) implementations(iface *types.Interface, method string) []*Node {
	key := implKey{iface: iface, method: method}
	g.implMu.Lock()
	defer g.implMu.Unlock()
	if impls, ok := g.implCache[key]; ok {
		return impls
	}
	var impls []*Node
	seen := make(map[*Node]bool)
	for _, named := range g.named {
		if types.IsInterface(named) {
			continue
		}
		var recv types.Type
		switch {
		case types.Implements(named, iface):
			recv = named
		case types.Implements(types.NewPointer(named), iface):
			recv = types.NewPointer(named)
		default:
			continue
		}
		// Lookup relative to the implementing type's own package, so
		// unexported interface methods (same-package dispatch) resolve too.
		obj, _, _ := types.LookupFieldOrMethod(recv, true, named.Obj().Pkg(), method)
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if n := g.byFn[fn]; n != nil && !seen[n] {
			seen[n] = true
			impls = append(impls, n)
		}
	}
	g.implCache[key] = impls
	return impls
}

// shortFile trims a fixture/module path down to its base name for node
// labels.
func shortFile(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
