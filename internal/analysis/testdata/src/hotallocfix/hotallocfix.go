// Package hotallocfix exercises the hotalloc analyzer: every
// allocation class, reachability through method values and interface
// dispatch (the edges the PR 3 ident graph could not see), the
// sync.Once body exemption, and both forms of the //hoiho:hotalloc
// budget annotation.
package hotallocfix

import (
	"fmt"
	"sync"
)

// ServeHot is the fixture's zero-alloc root (fixtureConfig
// ZeroAllocRoots).
func ServeHot(hosts []string) int {
	n := 0
	for _, h := range hosts {
		n += scan(h)
		n += len(classes(h))
		if useMatcher(am, h) {
			n++
		}
		lazyInit(h)
		n += len(coldError(h))
		n += budgeted(h)
		n += budgetedClosure(h)
	}
	r := renderer{}
	f := r.render // the method value the old ident graph lost track of
	n += apply(f, "x")
	return n
}

// scan is allocation-free: slicing, indexing, comparisons only.
func scan(h string) int {
	n := 0
	for i := 0; i < len(h); i++ {
		if h[i] == '.' {
			n++
		}
	}
	return n
}

type renderer struct{}

// render is reached from ServeHot only through a method value handed to
// apply — two calls deep. The injected Sprintf must still be caught.
func (renderer) render(h string) string {
	return fmt.Sprintf("r=%s", h) // want `allocation on the zero-alloc path from fix/hotallocfix.ServeHot: fmt.Sprintf formats through reflection and allocates`
}

func apply(f func(string) string, h string) int { return len(f(h)) }

// classes hits one site per allocation class.
func classes(h string) []byte {
	m := map[string]int{} // want `map literal allocates`
	_ = m
	s := h + "!"                 // want `string concatenation allocates the joined copy`
	b := []byte(s)               // want `\[\]byte\(\.\.\.\) conversion copies the string`
	b = append(b, 'x')           // want `append may grow the backing array`
	buf := make([]byte, 0, 8)    // want `make allocates`
	_ = buf
	p := &renderer{} // want `&renderer\{\.\.\.\} escapes to the heap`
	_ = p
	box(h)                       // want `passing string as interface\{\} boxes it on the heap`
	f := func() int { return len(h) } // want `creating a closure allocates the function value`
	_ = f()
	if cache[string(b)] > 0 { // silent: a conversion used directly as a map index does not copy
		return nil
	}
	return b
}

func box(v interface{}) {}

var cache = map[string]int{}

type matcher interface{ match(string) bool }

type allocMatcher struct{}

// match is reached through interface dispatch from useMatcher.
func (*allocMatcher) match(h string) bool {
	return len([]rune(h)) > 0 // want `\[\]rune\(\.\.\.\) conversion copies the string`
}

var am = &allocMatcher{}

func useMatcher(m matcher, h string) bool { return m.match(h) }

var once sync.Once
var compiled string

// lazyInit compiles once behind a sync.Once: the literal's body is
// exempt (it runs once per process, not per item), and the closure
// creation itself carries a site budget.
func lazyInit(h string) {
	//hoiho:hotalloc compile-once guard: the literal runs once and does not escape on the armed fast path
	once.Do(func() {
		compiled = h + h // silent: once bodies are cold by construction
	})
}

// coldError is a budgeted cold region: the function-level annotation
// stops traversal, so nothing inside (or below) it is reported.
//
//hoiho:hotalloc budgeted cold region: error rendering happens at most once per failed request
func coldError(h string) string {
	return fmt.Sprintf("bad host %q", h) // silent: function-level budget
}

// budgeted shows the site-level budget form.
func budgeted(h string) int {
	ids := make([]int, 4) //hoiho:hotalloc one scratch slice per call, amortized by the caller's batching
	for i := range ids {
		ids[i] = i + len(h)
	}
	return len(ids)
}

// Unreachable from the root: allocations here are silent.
func ColdPath(h string) string {
	return fmt.Sprintf("cold %s", h)
}

// budgetedClosure budgets creating its closure once per call; the
// closure's body still runs per hostname, so an allocation inside it
// is reported.
func budgetedClosure(h string) int {
	//hoiho:hotalloc one closure per call
	f := func() int {
		return len(h + "!") // want `string concatenation allocates the joined copy`
	}
	return f()
}
