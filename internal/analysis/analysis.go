// Package analysis implements hoiholint, the project's static-analysis
// pass. Hoiho's headline results (Figure 4 ATP=8, Figures 5/6, Table 1)
// are value-pinned tests, and the pipeline is only reproducible because
// every package obeys rules the compiler does not check: seeded
// rand.New(rand.NewSource(...)) only, no map-iteration order leaking
// into output, regexes compiled exactly once. This package makes those
// invariants machine-checked.
//
// The pass is stdlib-only (go/parser + go/types + go/ast; no x/tools),
// loads every package in the module through go/types, builds a typed
// interprocedural call graph (callgraph.go) shared by every
// reachability-based analyzer, and runs the analyzers:
//
//   - detmap: in deterministic packages, range over a map must not leak
//     iteration order into slices, strings, output, or channels unless
//     the result is sorted afterward.
//   - rngseed: only explicitly seeded *rand.Rand values; no global
//     math/rand state, no time-derived seeds, no crypto/rand.
//   - recompile: regexp.Compile/MustCompile must not run inside loops or
//     on the per-item hot path reachable from the Corpus extraction entry
//     points and Set evaluation; the sanctioned hot-path matcher is the
//     compiled internal/match engine (stdlib regexp is the cold-path
//     fallback behind the compile-once caches).
//   - wghygiene: WaitGroup and shard-pattern discipline for goroutines
//     (Add before go, deferred Done, loop-variable-indexed result
//     writes).
//   - panicguard: panics in library packages must be annotated as
//     data-embedded invariants or replaced by returned errors.
//   - ctxflow: exported functions in the pipeline packages that spawn
//     goroutines or loop over per-item work must accept and consult a
//     context.Context, so every long-running entry point stays
//     cancellable.
//   - hotalloc: no allocation site (append growth, string concat or
//     conversion, composite literals, interface boxing, closure
//     creation, fmt calls) may be reachable from the zero-alloc
//     extraction roots unless budgeted with //hoiho:hotalloc.
//   - lockorder: mutexes must be acquired in one consistent order, and
//     a field accessed through sync/atomic must never also be accessed
//     plainly.
//   - errwrap: fmt.Errorf in the serving/codec packages must qualify
//     errors with the package path and wrap error operands with %w.
//   - gororeturn: a channel send inside a goroutine must sit in a
//     select with a ctx.Done (or default) arm, so cancelled consumers
//     cannot strand the sender.
//
// Intentional violations are suppressed with a //hoiho:<verb>-ok
// annotation carrying a reason; see annot.go for the grammar.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// Diagnostic is one finding: a position, the analyzer that produced it,
// and a message. Suggest carries the suppression annotation a caller
// would add to silence it deliberately.
type Diagnostic struct {
	Pos     token.Position `json:"pos"`
	Check   string         `json:"check"`
	Message string         `json:"message"`
	Suggest string         `json:"suggest,omitempty"`
	// Anchor, when valid, is the enclosing annotatable construct (e.g.
	// the range statement whose body produced the finding); annotations
	// there also suppress the diagnostic.
	Anchor token.Position `json:"-"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Check, d.Message)
}

// Analyzer is one project rule. Verb is the annotation verb (the token
// after "//hoiho:") that suppresses its diagnostics at an annotated site.
type Analyzer struct {
	Name string
	Doc  string
	Verb string
	Run  func(*Program) []Diagnostic
}

// Analyzers returns the full pass in reporting order. The first six
// are the PR 3 syntax-era analyzers (since migrated onto the typed call
// graph); hotalloc, lockorder, errwrap, and gororeturn are the typed
// interprocedural additions.
func Analyzers() []*Analyzer {
	return []*Analyzer{detmap, rngseed, recompile, wghygiene, panicguard, ctxflow, hotalloc, lockorder, errwrap, gororeturn}
}

// Config scopes the analyzers to the project's packages. The zero value
// checks nothing; Default returns hoiho's configuration.
type Config struct {
	// DetPkgs are the import paths under determinism discipline: detmap
	// and rngseed apply only here. Training, synthesis, and figure output
	// must be bit-for-bit reproducible across runs and Go runtimes.
	DetPkgs []string
	// PanicPkgs are the import paths where panicguard applies: library
	// packages whose callers expect errors, not crashes.
	PanicPkgs []string
	// HotRoots are types.Func full names (as printed by
	// (*types.Func).FullName) rooting the per-item hot path for the
	// recompile analyzer, e.g. "(*hoiho/internal/extract.Corpus).Extract".
	HotRoots []string
	// CtxPkgs are the import paths under the cancellation contract:
	// ctxflow applies only here. These are the pipeline packages whose
	// exported entry points can run for minutes on real corpora.
	CtxPkgs []string
	// ZeroAllocRoots are types.Func full names rooting the zero-alloc
	// contract: hotalloc flags every allocation site reachable from them
	// unless budgeted with //hoiho:hotalloc.
	ZeroAllocRoots []string
	// LockPkgs are the import paths under lock discipline: lockorder
	// checks mutex acquisition order and atomic/non-atomic field mixing
	// only here.
	LockPkgs []string
	// ErrPkgs are the import paths under the error-taxonomy contract:
	// errwrap requires fmt.Errorf calls here to be path-qualified and to
	// wrap error operands with %w.
	ErrPkgs []string
	// GoroPkgs are the import paths where gororeturn checks that channel
	// sends inside goroutines carry a ctx-cancel select arm.
	GoroPkgs []string
}

// Default is hoiho's lint configuration: the deterministic packages the
// value-pinned figures depend on, and the serving/evaluation hot roots
// added in PRs 1-2.
func Default() Config {
	det := []string{
		"hoiho/internal/core",
		"hoiho/internal/rex",
		"hoiho/internal/extract",
		"hoiho/internal/match",
		"hoiho/internal/experiments",
		"hoiho/internal/topo",
		"hoiho/internal/itdk",
		"hoiho/internal/bdrmapit",
		"hoiho/internal/corpusbin",
	}
	return Config{
		DetPkgs:   det,
		PanicPkgs: append(append([]string{}, det...), "hoiho/internal/psl", "hoiho/internal/hostname"),
		// Every extraction entry point of the v2 API roots the hot path,
		// plus the compiled engine itself: internal/match is the sanctioned
		// per-hostname matcher, so nothing reachable from it may fall back
		// to a fresh stdlib compile.
		HotRoots: []string{
			"(*hoiho/internal/extract.Corpus).Extract",
			"(*hoiho/internal/extract.Corpus).ExtractBatch",
			"(*hoiho/internal/match.Engine).MatchString",
			"(*hoiho/internal/core.Set).Evaluate",
			"(*hoiho/internal/core.Set).Learn",
			// The HBC decode path exists to skip recompilation: a cold
			// start that compiled stdlib regexp per convention would erase
			// the format's point, so the whole decode is held to the same
			// compile-once rule as serving.
			"hoiho/internal/corpusbin.Decode",
		},
		CtxPkgs: []string{
			"hoiho/internal/core",
			"hoiho/internal/extract",
			"hoiho/internal/cluster",
		},
		// The PR 6 contract: after Precompile, per-hostname extraction and
		// matching allocate nothing (the batch path budgets its result
		// slice and worker closures explicitly). extract's TestBound*Allocs
		// tests enforce this dynamically; hotalloc proves it statically.
		ZeroAllocRoots: []string{
			"(*hoiho/internal/extract.Corpus).Extract",
			"(*hoiho/internal/extract.Corpus).ExtractBatch",
			"(*hoiho/internal/match.Engine).MatchString",
		},
		LockPkgs: []string{
			"hoiho/internal/serve",
			"hoiho/internal/core",
			"hoiho/internal/cluster",
		},
		ErrPkgs: []string{
			"hoiho/internal/serve",
			"hoiho/internal/extract",
			"hoiho/internal/corpusbin",
			"hoiho/internal/cluster",
		},
		GoroPkgs: []string{
			"hoiho/internal/serve",
			"hoiho/internal/core",
			"hoiho/internal/extract",
			"hoiho/internal/cluster",
		},
	}
}

func (c Config) det(path string) bool     { return containsStr(c.DetPkgs, path) }
func (c Config) panicky(path string) bool { return containsStr(c.PanicPkgs, path) }
func (c Config) ctx(path string) bool     { return containsStr(c.CtxPkgs, path) }
func (c Config) lock(path string) bool    { return containsStr(c.LockPkgs, path) }
func (c Config) errw(path string) bool    { return containsStr(c.ErrPkgs, path) }
func (c Config) goro(path string) bool    { return containsStr(c.GoroPkgs, path) }

func containsStr(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// Run executes the analyzers over the program, drops diagnostics
// suppressed by a matching annotation, and returns the rest sorted by
// position. Malformed annotations are themselves diagnostics.
func (p *Program) Run(analyzers []*Analyzer) []Diagnostic {
	verbs := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		verbs[a.Verb] = true
	}
	ann := collectAnnotations(p, verbs)
	p.ann = ann
	defer func() { p.ann = nil }()
	out := append([]Diagnostic{}, ann.diags...)
	for _, a := range analyzers {
		for _, d := range a.Run(p) {
			if ann.suppressed(a.Verb, d.Pos) || ann.suppressed(a.Verb, d.Anchor) {
				continue
			}
			out = append(out, d)
		}
	}
	// An annotation no diagnostic or budget lookup touched is stale:
	// the code it excused has been fixed or moved, so the waiver must go.
	out = append(out, ann.stale()...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return out
}
