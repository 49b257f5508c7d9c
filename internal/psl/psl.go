// Package psl implements the Mozilla Public Suffix List algorithm
// (https://publicsuffix.org/list/), which Hoiho uses to group router
// hostnames by the registered domain suffix under which an operator
// chooses its naming convention (paper §3).
//
// A List is built from rules of three kinds:
//
//   - normal rules ("com", "org.nz") name a public suffix;
//   - wildcard rules ("*.ck") make every direct child a public suffix;
//   - exception rules ("!www.ck") override a wildcard.
//
// Lookup follows the canonical algorithm: the longest matching rule wins,
// exception rules beat all others, and an unlisted TLD is treated as a
// public suffix (the implicit "*" rule).
package psl

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// List is a compiled public suffix list. The zero value is not usable;
// construct one with Parse, Default, or FromRules.
type List struct {
	// rules maps a rule's label sequence (reversed, dot-joined) to its kind.
	rules map[string]ruleKind
	// maxLabels is the largest number of labels in any rule, bounding lookups.
	maxLabels int

	// beneath holds every proper label-boundary tail of every rule key —
	// the set of suffixes with an explicit rule strictly beneath them.
	// Built lazily by HasRuleBeneath; guarded by beneathOnce.
	beneathOnce sync.Once
	beneath     map[string]struct{}
}

type ruleKind uint8

const (
	ruleNormal ruleKind = iota
	ruleWildcard
	ruleException
)

// Parse reads a public suffix list in the standard text format: one rule
// per line, // comments, blank lines ignored. Both the ICANN and private
// sections are honored (the distinction does not matter for grouping).
func Parse(r io.Reader) (*List, error) {
	l := &List{rules: make(map[string]ruleKind)}
	sc := bufio.NewScanner(r)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		// Rules end at the first whitespace.
		if i := strings.IndexAny(line, " \t"); i >= 0 {
			line = line[:i]
		}
		if err := l.addRule(line); err != nil {
			return nil, fmt.Errorf("psl: line %d: %w", lineno, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("psl: %w", err)
	}
	return l, nil
}

// FromRules builds a list from explicit rule strings, e.g.
// FromRules("com", "org.nz", "*.ck", "!www.ck"). It is convenient for
// tests and synthetic topologies.
func FromRules(rules ...string) (*List, error) {
	l := &List{rules: make(map[string]ruleKind)}
	for _, r := range rules {
		if err := l.addRule(r); err != nil {
			return nil, err
		}
	}
	return l, nil
}

var (
	defaultOnce sync.Once
	defaultList *List
)

// Default returns a list compiled from the embedded snapshot of the
// public suffix list (see snapshot.go), sufficient for the suffixes used
// throughout this repository and its experiments. The snapshot is
// parsed once and the compiled list shared: a List is immutable after
// Parse (the lazy tails index builds under its own sync.Once), and
// corpus construction calls Default on every load, where re-parsing
// the snapshot was a measurable slice of cold start.
func Default() *List {
	defaultOnce.Do(func() {
		l, err := Parse(strings.NewReader(snapshot))
		if err != nil {
			//hoiho:panic-ok invariant on embedded data: the compiled-in PSL snapshot failing to parse means the binary itself is broken
			panic("psl: embedded snapshot invalid: " + err.Error())
		}
		defaultList = l
	})
	return defaultList
}

func (l *List) addRule(rule string) error {
	kind := ruleNormal
	switch {
	case strings.HasPrefix(rule, "!"):
		kind = ruleException
		rule = rule[1:]
	case strings.HasPrefix(rule, "*."):
		kind = ruleWildcard
		rule = rule[2:]
	case rule == "*":
		kind = ruleWildcard
		rule = ""
	}
	rule = strings.ToLower(strings.TrimSuffix(rule, "."))
	if rule == "" && kind != ruleWildcard {
		return fmt.Errorf("empty rule")
	}
	labels := strings.Split(rule, ".")
	for _, lab := range labels {
		if lab == "" && rule != "" {
			return fmt.Errorf("rule %q has empty label", rule)
		}
	}
	n := len(labels)
	if kind == ruleWildcard {
		n++ // the wildcard label itself
	}
	if n > l.maxLabels {
		l.maxLabels = n
	}
	l.rules[rule] = kind
	return nil
}

// PublicSuffix returns the public suffix of domain and whether the match
// came from an explicit rule (as opposed to the implicit "*" fallback).
// The domain must be a normalized hostname; a trailing dot is tolerated.
func (l *List) PublicSuffix(domain string) (suffix string, explicit bool) {
	domain = normalize(domain)
	if domain == "" {
		return "", false
	}
	labels := strings.Split(domain, ".")
	// Walk from the most specific candidate suffix to the least.
	// Track the best (longest) match.
	bestLen := 0 // number of labels in the winning suffix
	bestExplicit := false
	for i := 0; i < len(labels); i++ {
		cand := strings.Join(labels[i:], ".")
		kind, ok := l.rules[cand]
		if !ok {
			continue
		}
		switch kind {
		case ruleException:
			// Exception: the public suffix is the rule minus its
			// leftmost label. This always wins.
			n := len(labels) - i - 1
			if n <= 0 {
				return "", false
			}
			return strings.Join(labels[i+1:], "."), true
		case ruleWildcard:
			// Wildcard matches one extra label to the left, if present.
			n := len(labels) - i + 1
			if i == 0 {
				n = len(labels) // cannot extend beyond the domain
			}
			if n > bestLen {
				bestLen, bestExplicit = n, true
			}
		case ruleNormal:
			n := len(labels) - i
			if n > bestLen {
				bestLen, bestExplicit = n, true
			}
		}
	}
	if bestLen == 0 {
		// Implicit "*" rule: the TLD is a public suffix.
		return labels[len(labels)-1], false
	}
	if bestLen >= len(labels) {
		return domain, bestExplicit
	}
	return strings.Join(labels[len(labels)-bestLen:], "."), bestExplicit
}

// RegisteredDomain returns the registrable domain (public suffix plus one
// label, often called eTLD+1) for domain. ok is false when the domain is
// itself a public suffix or is empty.
func (l *List) RegisteredDomain(domain string) (reg string, ok bool) {
	domain = normalize(domain)
	start, ok := l.RegisteredDomainStart(domain)
	if !ok {
		return "", false
	}
	return domain[start:], true
}

// RegisteredDomainStart is the allocation-free form of RegisteredDomain:
// it returns the byte offset at which the registrable domain of domain
// begins, so callers slice the input instead of receiving a joined copy.
// Unlike RegisteredDomain it does not normalize: domain must already be
// lowercase with no surrounding whitespace and no trailing dot (the form
// normalize produces). ok is false exactly when RegisteredDomain's ok
// would be false on the same normalized input.
func (l *List) RegisteredDomainStart(domain string) (start int, ok bool) {
	if domain == "" {
		return 0, false
	}
	n := strings.Count(domain, ".") + 1
	// Walk candidate suffixes from most specific (label 0) to least,
	// tracking the longest match in labels, exactly as PublicSuffix does.
	// Candidates with more labels than any rule cannot match and are
	// skipped without probing.
	bestLen := 0
	off := 0
	for i := 0; i < n; i++ {
		if n-i <= l.maxLabels {
			switch kind, ok := l.rules[domain[off:]]; {
			case !ok:
			case kind == ruleException:
				// Exception: the public suffix is the rule minus its
				// leftmost label, so the registered domain is the rule
				// itself — unless nothing remains.
				if n-i-1 <= 0 {
					return 0, false
				}
				return off, true
			case kind == ruleWildcard:
				m := n - i + 1
				if i == 0 {
					m = n
				}
				if m > bestLen {
					bestLen = m
				}
			default: // ruleNormal
				if m := n - i; m > bestLen {
					bestLen = m
				}
			}
		}
		j := strings.IndexByte(domain[off:], '.')
		if j < 0 {
			break
		}
		off += j + 1
	}
	if bestLen == 0 {
		bestLen = 1 // implicit "*" rule: the TLD is a public suffix
	}
	if bestLen >= n {
		return 0, false // the domain is itself a public suffix
	}
	return labelStart(domain, n-bestLen-1), true
}

// labelStart returns the byte offset of label k (0-based from the left).
// k must be less than the number of labels in domain.
func labelStart(domain string, k int) int {
	off := 0
	for ; k > 0; k-- {
		off += strings.IndexByte(domain[off:], '.') + 1
	}
	return off
}

// HasRuleBeneath reports whether any explicit rule lies strictly beneath
// suffix: a rule whose labels extend suffix to the left (its key ends in
// "."+suffix), or a wildcard rooted at suffix itself ("*.suffix", stored
// under the key suffix). When no rule lies beneath a corpus's indexed
// suffixes, probing the suffix index directly at label boundaries is
// equivalent to a registered-domain walk, which is how extract earns its
// fast path.
//
// The first call builds a tails index over the rule set (every proper
// label-boundary tail of every rule key), so corpus indexing — which
// asks this once per suffix — pays one pass over the rules instead of
// one per query. That pass matters: it is a measurable slice of corpus
// cold-start time.
func (l *List) HasRuleBeneath(suffix string) bool {
	if suffix == "" {
		return false
	}
	if kind, ok := l.rules[suffix]; ok && kind == ruleWildcard {
		return true
	}
	l.beneathOnce.Do(func() {
		tails := make(map[string]struct{}, len(l.rules))
		for r := range l.rules {
			for {
				dot := strings.IndexByte(r, '.')
				if dot < 0 {
					break
				}
				r = r[dot+1:]
				tails[r] = struct{}{}
			}
		}
		l.beneath = tails
	})
	_, ok := l.beneath[suffix]
	return ok
}

// GroupByRegisteredDomain buckets hostnames by their registrable domain.
// Hostnames with no registrable domain (bare TLDs, empty strings) are
// dropped. Bucket ordering within a suffix preserves input order; the
// returned map's keys can be sorted by the caller for determinism.
func (l *List) GroupByRegisteredDomain(hostnames []string) map[string][]string {
	groups := make(map[string][]string)
	for _, h := range hostnames {
		if reg, ok := l.RegisteredDomain(h); ok {
			groups[reg] = append(groups[reg], h)
		}
	}
	return groups
}

// Suffixes returns all explicit rules, sorted, primarily for debugging
// and tests.
func (l *List) Suffixes() []string {
	out := make([]string, 0, len(l.rules))
	for r, k := range l.rules {
		switch k {
		case ruleWildcard:
			if r == "" {
				out = append(out, "*")
			} else {
				out = append(out, "*."+r)
			}
		case ruleException:
			out = append(out, "!"+r)
		default:
			out = append(out, r)
		}
	}
	sort.Strings(out)
	return out
}

// Len returns the number of explicit rules in the list.
func (l *List) Len() int { return len(l.rules) }

func normalize(domain string) string {
	domain = strings.ToLower(strings.TrimSpace(domain))
	domain = strings.TrimSuffix(domain, ".")
	return domain
}
