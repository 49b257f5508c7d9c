// Package core implements Hoiho's ASN naming-convention learner, the
// primary contribution of "Learning to Extract and Use ASNs in Hostnames"
// (IMC 2020). Given router hostnames annotated with training ASNs
// (inferred by RouterToAsAssignment or bdrmapIT, or recorded by operators
// in PeeringDB), it learns, per domain suffix, a naming convention (NC):
// an ordered set of regular expressions that extract the ASN embedded in
// each hostname.
//
// The learner proceeds in the paper's four phases: base-regex generation
// (§3.2), merging similar regexes (§3.3), character-class embedding
// (§3.4), and regex-set construction (§3.5), ranking candidates by
// ATP = TP − (FP + FN) (§3.1) and selecting the final NC per §3.6.
package core

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"hoiho/internal/asn"
	"hoiho/internal/editdist"
	"hoiho/internal/hostname"
	"hoiho/internal/psl"
)

// Item is one training observation: a router interface hostname and the
// ASN the training method inferred (or an operator recorded) for the
// router that owns the interface. Addr, when valid, is the interface
// address, used to disqualify numbers that are really IP-address
// fragments (figure 3b).
type Item struct {
	Hostname string
	Addr     netip.Addr
	ASN      asn.ASN
}

// itemArena stores the prepared training items in struct-of-arrays form:
// one backing slice per field, with per-item offset tables instead of a
// heap object (and per-item parts/runs/spans slices) for every item. A
// 200-item set costs a dozen slice headers instead of ~800 scattered
// allocations, and the evaluator's inner loops walk dense arrays.
type itemArena struct {
	items    []Item   // original observations, hostname order preserved
	full     []string // normalized hostname
	digits   []string // training ASN digit string, rendered once
	apparent []bool   // hostname has an apparent ASN outside IP spans
	parts    []hostname.Part
	partOff  []int32 // item i's parts are parts[partOff[i]:partOff[i+1]]
	runs     []hostname.Run
	runOff   []int32
	spans    []hostname.Span
	spanOff  []int32
}

func (a *itemArena) len() int { return len(a.items) }

// name materializes item i's parsed hostname; the Parts slice aliases
// the arena and must not be appended to.
func (a *itemArena) name(i int) hostname.Name {
	return hostname.Name{Full: a.full[i], Parts: a.parts[a.partOff[i]:a.partOff[i+1]]}
}

func (a *itemArena) runsOf(i int) []hostname.Run   { return a.runs[a.runOff[i]:a.runOff[i+1]] }
func (a *itemArena) spansOf(i int) []hostname.Span { return a.spans[a.spanOff[i]:a.spanOff[i+1]] }

// Set is the training data for one suffix, ready for evaluation. A Set
// is not safe for concurrent use: evaluation fills the match matrix
// (matrix.go) that memoizes per-regex outcomes; ensure's internal
// fan-out is self-contained.
type Set struct {
	Suffix string
	ar     itemArena
	opts   Options
	mx     *matrix // the memoization engine, in the scratch the Set was built on
}

// Options tunes the learner. The zero value enables every phase with the
// paper's behavior; the Disable*/RankByPPV switches exist for the
// ablation experiments described in DESIGN.md.
type Options struct {
	// DisableTypoCredit turns off the §3.1 rule that credits a TP when the
	// extracted number is within Damerau-Levenshtein distance one of the
	// training ASN with matching first/last digits and length >= 3.
	DisableTypoCredit bool
	// DisableMerge skips phase 2 (§3.3).
	DisableMerge bool
	// DisableClasses skips phase 3 (§3.4).
	DisableClasses bool
	// DisableSets skips phase 4 (§3.5): the NC is the single best regex.
	DisableSets bool
	// RankByPPV ranks candidate regexes by positive predictive value
	// instead of ATP (an ablation; the paper argues ATP is the right
	// metric because it rewards coverage).
	RankByPPV bool
	// MaxGenItems bounds how many items seed base-regex generation
	// (deterministic head sample). 0 means the default (256).
	MaxGenItems int
	// MaxCandidates bounds the candidate pool after each phase.
	// 0 means the default (768).
	MaxCandidates int
	// MaxSetStarts bounds how many top-ranked regexes seed phase-4 set
	// construction. 0 means the default (8).
	MaxSetStarts int
	// MaxSetSize bounds the number of regexes in an NC. 0 means the
	// default (5).
	MaxSetSize int
	// MaxSingleNCs bounds how many top-ranked single regexes enter the
	// final NC selection (§3.6) as one-regex candidates. 0 means the
	// default (32).
	MaxSingleNCs int
	// Workers bounds intra-suffix parallelism: the goroutines used to
	// score a candidate pool against the training items (the match-matrix
	// column builds). 0 means GOMAXPROCS, 1 forces serial execution.
	// Results are deterministic regardless of the setting.
	Workers int
	// SuffixTimeout is the wall-clock budget for learning one suffix.
	// When positive, Learner.LearnSuffix derives a per-suffix deadline
	// from it, so a pathological suffix (a regex blow-up, a huge
	// candidate pool) degrades that one NC instead of stalling the whole
	// run; Learner.Learn quarantines the timed-out suffix and keeps
	// going. 0 means no per-suffix budget.
	SuffixTimeout time.Duration
}

func (o Options) maxGenItems() int {
	if o.MaxGenItems <= 0 {
		return 256
	}
	return o.MaxGenItems
}

func (o Options) maxCandidates() int {
	if o.MaxCandidates <= 0 {
		return 768
	}
	return o.MaxCandidates
}

func (o Options) maxSetStarts() int {
	if o.MaxSetStarts <= 0 {
		return 8
	}
	return o.MaxSetStarts
}

func (o Options) maxSetSize() int {
	if o.MaxSetSize <= 0 {
		return 5
	}
	return o.MaxSetSize
}

func (o Options) maxSingleNCs() int {
	if o.MaxSingleNCs <= 0 {
		return 32
	}
	return o.MaxSingleNCs
}

// NewSet parses and indexes training items for one suffix. Items whose
// hostname fails to parse, does not end with the suffix, or has no
// training ASN are dropped.
func NewSet(suffix string, items []Item, opts Options) (*Set, error) {
	return newSet(suffix, items, opts, new(scratch))
}

// scratch is the memory one suffix worker reuses across the suffixes it
// learns: the item arena's backing arrays and the match matrix. A Set
// is dead once its Learn returns (the NC keeps none of it), so the
// worker's next Set takes the same memory, grown only when a larger
// suffix needs more.
type scratch struct {
	ar itemArena
	mx matrix
}

// reuse returns s emptied, keeping its backing array when it holds n.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// newSet is NewSet on a worker's scratch: the Set's arena and matrix
// take sc's memory, and sc keeps whatever the Set grew.
func newSet(suffix string, items []Item, opts Options, sc *scratch) (*Set, error) {
	if suffix == "" {
		return nil, fmt.Errorf("core: empty suffix")
	}
	s := &Set{Suffix: suffix, opts: opts, ar: sc.ar}
	a := &s.ar
	// Size the arenas for every item up front, parts by counting
	// delimiters, so the appends below do not regrow them.
	n, nParts := len(items), 0
	for _, it := range items {
		nParts++
		for i := 0; i < len(it.Hostname); i++ {
			if hostname.IsPunct(it.Hostname[i]) {
				nParts++
			}
		}
	}
	a.items = reuse(a.items, n)
	a.full = reuse(a.full, n)
	a.digits = reuse(a.digits, n)
	a.apparent = reuse(a.apparent, n)
	a.parts = reuse(a.parts, nParts)
	a.runs = reuse(a.runs, n)
	a.spans = a.spans[:0]
	a.partOff = append(reuse(a.partOff, n+1), 0)
	a.runOff = append(reuse(a.runOff, n+1), 0)
	a.spanOff = append(reuse(a.spanOff, n+1), 0)
	typo := !opts.DisableTypoCredit
	for _, it := range items {
		if it.ASN == asn.None {
			continue
		}
		partStart := len(a.parts)
		full, parts, err := hostname.AppendParse(a.parts, it.Hostname)
		if err != nil {
			continue // AppendParse validates before appending anything
		}
		a.parts = parts
		name := hostname.Name{Full: full, Parts: a.parts[partStart:]}
		if _, ok := name.SuffixParts(suffix); !ok {
			a.parts = a.parts[:partStart] // roll the rejected item back out
			continue
		}
		spanStart := len(a.spans)
		a.spans = name.AppendEmbeddedIPSpans(a.spans, it.Addr)
		runStart := len(a.runs)
		a.runs = name.AppendDigitRuns(a.runs)
		digits := it.ASN.Digits()
		a.items = append(a.items, it)
		a.full = append(a.full, full)
		a.digits = append(a.digits, digits)
		a.apparent = append(a.apparent, hasApparentASN(a.runs[runStart:], a.spans[spanStart:], digits, typo))
		a.partOff = append(a.partOff, int32(len(a.parts)))
		a.runOff = append(a.runOff, int32(len(a.runs)))
		a.spanOff = append(a.spanOff, int32(len(a.spans)))
	}
	sc.ar = *a
	s.mx = sc.mx.reset(s)
	return s, nil
}

// Len returns the number of usable training items.
func (s *Set) Len() int { return s.ar.len() }

// Items returns the usable training items (hostname order preserved).
func (s *Set) Items() []Item {
	return append([]Item(nil), s.ar.items...)
}

// Congruent implements the paper's §3.1 congruence test between a number
// extracted from a hostname and the training ASN: exact digit-string
// equality, or — when typo credit is enabled — a Damerau-Levenshtein
// distance of one with identical first and last characters and both
// numbers at least three digits long (catching typos like figure 3a
// without crediting coincidences).
func Congruent(extracted string, train asn.ASN, typoCredit bool) bool {
	return congruentDigits(extracted, train.Digits(), typoCredit)
}

// congruentDigits is Congruent against a pre-rendered training digit
// string (the item arena caches one per item, so the hot evaluation
// loops never re-render the ASN).
func congruentDigits(extracted, d string, typoCredit bool) bool {
	if extracted == d {
		return true
	}
	if !typoCredit || len(extracted) < 3 || len(d) < 3 {
		return false
	}
	if extracted[0] != d[0] || extracted[len(extracted)-1] != d[len(d)-1] {
		return false
	}
	return editdist.WithinOne(extracted, d)
}

// hasApparentASN reports whether the hostname contains a numeric string
// congruent with the training ASN outside any embedded-IP span (§3.1's
// "apparent ASN", the condition for charging a false negative).
func hasApparentASN(runs []hostname.Run, spans []hostname.Span, digits string, typoCredit bool) bool {
	for _, r := range runs {
		if inSpans(spans, r.Start, r.End()) {
			continue
		}
		if congruentDigits(r.Text, digits, typoCredit) {
			return true
		}
	}
	return false
}

func inSpans(spans []hostname.Span, start, end int) bool {
	for _, s := range spans {
		if s.Overlaps(start, end) {
			return true
		}
	}
	return false
}

// GroupItems buckets items by registered domain using the supplied public
// suffix list, returning the suffixes in sorted order alongside the map.
// The buckets are capacity-capped windows of one slab, in input order.
func GroupItems(list *psl.List, items []Item) (map[string][]Item, []string) {
	// One registered-domain lookup per item, numbering the suffixes in
	// first-seen order; -1 marks an item with none.
	ids := make(map[string]int32)
	var suffixes []string
	var counts []int
	kept := 0
	of := make([]int32, len(items))
	for i, it := range items {
		reg, ok := list.RegisteredDomain(it.Hostname)
		if !ok {
			of[i] = -1
			continue
		}
		id, seen := ids[reg]
		if !seen {
			id = int32(len(suffixes))
			ids[reg] = id
			suffixes = append(suffixes, reg)
			counts = append(counts, 0)
		}
		of[i] = id
		counts[id]++
		kept++
	}
	// counts becomes each suffix's next slot in the slab.
	slab := make([]Item, kept)
	groups := make(map[string][]Item, len(suffixes))
	off := 0
	for id, reg := range suffixes {
		n := counts[id]
		groups[reg] = slab[off : off+n : off+n]
		counts[id] = off
		off += n
	}
	for i, it := range items {
		if id := of[i]; id >= 0 {
			slab[counts[id]] = it
			counts[id]++
		}
	}
	sort.Strings(suffixes)
	return groups, suffixes
}
