// Package match compiles learned naming-convention regexes (the
// internal/rex AST) into specialized byte-level matchers. The paper's
// conventions are a narrow, fully structured subset of regex — anchored
// literal/class/exclusion sequences with a single ASN capture — so
// instead of interpreting them through the general-purpose regexp
// machinery per hostname, each suffix's NC set compiles once into an
// Engine: per-regex prefilters (required head/tail literals, minimum
// length) rejected with plain byte comparisons, a shared reversed trie
// over the set's anchored tail literals so one backward pass over the
// hostname prunes the candidate regexes, and a small backtracking VM
// that replicates the stdlib's leftmost-first capture semantics without
// submatch machinery or allocation.
//
// The stdlib path is retained as the oracle: NewRegexpSet offers the
// same MatchString on regexp, the property tests and the
// FuzzCompiledMatchParity target assert agreement between the two on
// match/no-match, winning regex index, and capture span, and a compiled
// program whose backtracking exceeds its step budget (possible only on
// pathological inputs, never on learned conventions) falls back to the
// stdlib compilation of the same regex mid-match, so the fast path can
// never change an answer.
package match

import (
	"regexp"

	"hoiho/internal/rex"
)

// Hit is one successful match: the index of the winning regex within
// the matcher's compiled set (regexes are tried in NC order, first match
// wins) and the byte span of its ASN capture group in the hostname.
type Hit struct {
	Index int
	Start int
	End   int
}

// trieThreshold gates the shared tail trie: sets smaller than this check
// their own tail literal directly (one memcmp beats a byte-walk), larger
// sets amortize one backward pass across all candidates.
const trieThreshold = 4

// Engine is the compiled form of one suffix's regex set.
type Engine struct {
	programs []*program
	trie     *tailTrie
}

// Compile lowers each regex into a compiled program, in order. Regexes
// that the stdlib cannot compile are dropped — exactly the set
// NewRegexpSet drops, so compiled and oracle indexes stay aligned.
func Compile(regexes []*rex.Regex) *Engine {
	e := &Engine{}
	for _, r := range regexes {
		if r == nil {
			continue
		}
		if p, ok := compileProgram(r); ok {
			e.programs = append(e.programs, p)
		}
	}
	if len(e.programs) >= trieThreshold {
		e.trie = newTailTrie(e.programs)
	}
	if e.trie == nil {
		for _, p := range e.programs {
			p.tailID = -1
		}
	}
	return e
}

// Len reports the number of compiled programs.
func (e *Engine) Len() int { return len(e.programs) }

// MatchString tries each program in order and returns the first hit.
// It performs no allocation.
func (e *Engine) MatchString(host string) (Hit, bool) {
	if len(e.programs) == 1 {
		// Most suffixes compile to a single program; skip the trie mask
		// and candidate loop entirely.
		if s, en, ok := e.programs[0].match(host); ok {
			return Hit{Start: s, End: en}, true
		}
		return Hit{}, false
	}
	var mask uint64
	if e.trie != nil {
		mask = e.trie.suffixMask(host)
	}
	for i, p := range e.programs {
		if p.tailID >= 0 && mask&(1<<uint(p.tailID)) == 0 {
			continue
		}
		if s, en, ok := p.match(host); ok {
			return Hit{Index: i, Start: s, End: en}, true
		}
	}
	return Hit{}, false
}

// AppendTokenSpans reports the byte span each token of program index
// (the Hit.Index MatchString reports) consumed in host, along the
// leftmost-first path MatchString accepts, appending them to dst[:0]. It
// is the compiled counterpart of rex.Regex.AppendTokenSpans, and a
// separate walk from MatchString, which records nothing. ok is false
// when the program does not match host or cannot say: an oracle-backed
// program, or a search that exhausts the step budget. Callers then ask
// rex.Regex.AppendTokenSpans, the stdlib oracle.
func (e *Engine) AppendTokenSpans(dst [][2]int, index int, host string) ([][2]int, bool) {
	p := e.programs[index]
	if p.oracle || len(host) < p.minLen {
		return dst[:0], false
	}
	if cap(dst) < len(p.ops) {
		dst = make([][2]int, len(p.ops))
	}
	// A successful search records every op's span, so the slots need no
	// clearing first.
	v := spanVM{host: host, steps: stepBudget, spans: dst[:len(p.ops)]}
	if v.search(p) {
		return v.spans, true
	}
	return dst[:0], false
}

// RegexpSet is the stdlib counterpart of Engine: the property-test and
// fuzz oracle the compiled engine must agree with.
type RegexpSet struct {
	res []*regexp.Regexp
}

// NewRegexpSet compiles regexes with the stdlib, dropping failures.
func NewRegexpSet(regexes []*rex.Regex) *RegexpSet {
	rs := &RegexpSet{}
	for _, r := range regexes {
		if r == nil {
			continue
		}
		re, err := r.Compile()
		if err != nil {
			continue
		}
		rs.res = append(rs.res, re)
	}
	return rs
}

// Len reports the number of compiled regexes.
func (rs *RegexpSet) Len() int { return len(rs.res) }

// MatchString runs each regex in order via FindStringSubmatchIndex.
func (rs *RegexpSet) MatchString(host string) (Hit, bool) {
	for i, re := range rs.res {
		m := re.FindStringSubmatchIndex(host)
		if m == nil || m[2] < 0 {
			continue
		}
		return Hit{Index: i, Start: m[2], End: m[3]}, true
	}
	return Hit{}, false
}
