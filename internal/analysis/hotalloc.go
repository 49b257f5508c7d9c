package analysis

import (
	"go/token"
)

// hotalloc statically proves the contract extract's alloc-bound tests
// measure: after Precompile, per-hostname extraction allocates nothing.
// It walks the typed call graph from Config.ZeroAllocRoots — following method
// values, interface dispatch, and closures, the edges the old
// ident-based graph missed — and flags every allocation site
// (allocSites in dataflow.go) in every reachable function.
//
// Two escape hatches, both spelled //hoiho:hotalloc <reason>:
//
//   - on a statement, the annotation budgets that one site (the batch
//     result slice, the worker closures — allocations that happen once
//     per call, not once per hostname);
//   - on a function declaration's doc comment, it marks the whole
//     function a budgeted cold region and stops traversal into its
//     callees (the compile-once fallbacks reached behind sync.Once).
//
// Function literals passed directly to (*sync.Once).Do are exempt
// without annotation: their bodies run once per Once no matter how hot
// the caller.
var hotalloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "no unbudgeted allocation reachable from the zero-alloc extraction roots",
	Verb: "hotalloc",
	Run:  runHotalloc,
}

func runHotalloc(p *Program) []Diagnostic {
	if len(p.Config.ZeroAllocRoots) == 0 {
		return nil
	}
	g := p.CallGraph()
	skip := func(n *Node) bool {
		if n.OnceBody {
			return true
		}
		if p.ann != nil {
			if _, ok := p.ann.take("hotalloc", nodePos(p, n)); ok {
				return true
			}
		}
		return false
	}
	reach := g.Reachable(p.Config.ZeroAllocRoots, skip)
	var out []Diagnostic
	for _, n := range g.Nodes { // g.Nodes is in deterministic build order
		root, ok := reach[n]
		if !ok {
			continue
		}
		for _, site := range allocSites(n.Pkg, n) {
			out = append(out, Diagnostic{
				Pos:     p.Fset.Position(site.Pos),
				Check:   "hotalloc",
				Message: "allocation on the zero-alloc path from " + root + ": " + site.Desc,
				Suggest: "//hoiho:hotalloc <why this allocation is budgeted>",
			})
		}
	}
	return out
}

// nodePos returns the position annotations attach to: the func keyword
// of a declaration (its doc comment sits on the lines above) or the
// literal's own position.
func nodePos(p *Program, n *Node) token.Position {
	if n.Decl != nil {
		return p.Fset.Position(n.Decl.Pos())
	}
	if n.Lit != nil {
		return p.Fset.Position(n.Lit.Pos())
	}
	return token.Position{}
}
