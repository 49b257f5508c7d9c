// Package rex provides a small structured representation of the regular
// expressions Hoiho learns (paper §3). Instead of manipulating regex
// source strings, the learner works with token sequences, which makes the
// paper's phase-2 merge ("regexes that differ by a single simple string",
// §3.3) and phase-3 character-class embedding (§3.4) well-defined
// structural transforms. Tokens render to the exact syntax the paper
// prints (e.g. "[^\.]+", "(?:p|s)?", "[a-z\d]+") and compile to the
// standard library's regexp for matching.
//
// Every Regex is implicitly anchored: it renders with a leading "^" and a
// trailing "$".
package rex

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
)

// Kind discriminates token types.
type Kind uint8

const (
	// KindLit is a literal string, escaped on render ("\.equinix\.com").
	KindLit Kind = iota
	// KindCapture is the ASN capture group "(\d+)".
	KindCapture
	// KindExcl is an exclusion component "[^...]+" matching one or more
	// characters that are none of the excluded punctuation.
	KindExcl
	// KindClass is a character-class component: "[a-z]+", "\d+", or
	// "[a-z\d]+" (phase 3).
	KindClass
	// KindDotPlus is ".+", used at most once per regex (§3.2).
	KindDotPlus
	// KindAlt is a non-capturing alternation of literals "(?:p|s)",
	// optionally followed by "?" when one alternative is empty (§3.3).
	KindAlt
	// KindCaptureAlpha is the AS-name capture group "([a-z]+)" used by
	// the §7 extension that learns name-extracting conventions.
	KindCaptureAlpha
)

// Class enumerates the character classes phase 3 may embed.
type Class uint8

const (
	ClassAlpha Class = iota // [a-z]+
	ClassDigit              // \d+
	ClassAlnum              // [a-z\d]+
)

// Token is one component of a learned regex.
type Token struct {
	Kind Kind
	// Lit holds the literal text for KindLit.
	Lit string
	// Excl holds the excluded punctuation characters for KindExcl, in
	// render order (e.g. ".-").
	Excl string
	// Class holds the class for KindClass.
	Class Class
	// Alts holds the alternatives for KindAlt, sorted; Opt marks the
	// trailing "?".
	Alts []string
	Opt  bool
}

// Lit returns a literal token. Empty literals are legal inside builders
// but are dropped by New.
func Lit(s string) Token { return Token{Kind: KindLit, Lit: s} }

// Capture returns the "(\d+)" token.
func Capture() Token { return Token{Kind: KindCapture} }

// CaptureAlpha returns the "([a-z]+)" token (AS-name extraction, §7).
func CaptureAlpha() Token { return Token{Kind: KindCaptureAlpha} }

// Excl returns an exclusion component excluding the given punctuation.
func Excl(chars string) Token { return Token{Kind: KindExcl, Excl: chars} }

// ClassTok returns a character-class component.
func ClassTok(c Class) Token { return Token{Kind: KindClass, Class: c} }

// DotPlus returns the ".+" token.
func DotPlus() Token { return Token{Kind: KindDotPlus} }

// Alt returns an alternation token over alts; opt appends "?".
func Alt(opt bool, alts ...string) Token {
	sorted := append([]string(nil), alts...)
	sort.Strings(sorted)
	return Token{Kind: KindAlt, Alts: sorted, Opt: opt}
}

// render appends the token's regex syntax to sb.
func (t Token) render(sb *strings.Builder) {
	switch t.Kind {
	case KindLit:
		writeEscLit(sb, t.Lit)
	case KindCapture:
		sb.WriteString(`(\d+)`)
	case KindCaptureAlpha:
		sb.WriteString(`([a-z]+)`)
	case KindExcl:
		sb.WriteString("[^")
		writeClassChars(sb, t.Excl)
		sb.WriteString("]+")
	case KindClass:
		switch t.Class {
		case ClassAlpha:
			sb.WriteString("[a-z]+")
		case ClassDigit:
			sb.WriteString(`\d+`)
		default:
			sb.WriteString(`[a-z\d]+`)
		}
	case KindDotPlus:
		sb.WriteString(".+")
	case KindAlt:
		sb.WriteString("(?:")
		for i, a := range t.Alts {
			if i > 0 {
				sb.WriteByte('|')
			}
			writeEscLit(sb, a)
		}
		sb.WriteByte(')')
		if t.Opt {
			sb.WriteByte('?')
		}
	}
}

// renderMax is a cheap upper bound on the token's rendered byte length,
// used to size the String builder in one allocation.
func (t Token) renderMax() int {
	switch t.Kind {
	case KindLit:
		return 2 * len(t.Lit)
	case KindExcl:
		return 3 + 2*len(t.Excl)
	case KindAlt:
		n := 5
		for _, a := range t.Alts {
			n += 2*len(a) + 1
		}
		return n
	default:
		return 8 // the widest fixed form is "([a-z]+)"
	}
}

// equal reports deep equality of tokens.
func (t Token) equal(u Token) bool {
	if t.Kind != u.Kind || t.Lit != u.Lit || t.Excl != u.Excl ||
		t.Class != u.Class || t.Opt != u.Opt || len(t.Alts) != len(u.Alts) {
		return false
	}
	for i := range t.Alts {
		if t.Alts[i] != u.Alts[i] {
			return false
		}
	}
	return true
}

// escapeLit escapes regex metacharacters in hostname literals. Hostname
// alphabets only contain [a-z0-9.-_]; '.' and '-' are the characters that
// need care ('-' only inside classes, but the paper escapes neither '-'
// nor '_' in literals).
func escapeLit(s string) string {
	// QuoteMeta rather than dot-only: a literal containing \ or a
	// quantifier character would otherwise render into a string that
	// re-parses (and compiles) as a different regex, breaking the
	// String/Parse round-trip FuzzParse pins. Normalized hostnames never
	// contain those bytes, so real renders are unchanged.
	return regexp.QuoteMeta(s)
}

// litMeta marks the bytes regexp.QuoteMeta escapes; writeEscLit keeps
// byte-for-byte parity with escapeLit without QuoteMeta's intermediate
// string (candidate generation renders thousands of regexes per suffix).
var litMeta = func() (t [256]bool) {
	for _, b := range []byte(`\.+*?()|[]{}^$`) {
		t[b] = true
	}
	return
}()

// writeEscLit writes s with regex metacharacters escaped, equivalent to
// sb.WriteString(escapeLit(s)) with zero intermediate allocation.
func writeEscLit(sb *strings.Builder, s string) {
	for i := 0; i < len(s); i++ {
		if litMeta[s[i]] {
			sb.WriteByte('\\')
		}
		sb.WriteByte(s[i])
	}
}

// writeClassChars renders characters inside [^...] the way the paper
// prints them: dot escaped, dash last.
func writeClassChars(sb *strings.Builder, chars string) {
	dash := false
	for i := 0; i < len(chars); i++ {
		switch chars[i] {
		case '.':
			sb.WriteString(`\.`)
		case '-':
			dash = true
		default:
			sb.WriteByte(chars[i])
		}
	}
	if dash {
		sb.WriteByte('-')
	}
}

// Regex is a token sequence with exactly one Capture token. It is always
// anchored at the end ("$"); by default it is anchored at the start too,
// but a left-open regex (see NewOpen) omits the "^", as in the paper's
// "as(\d+)\.nts\.ch$" (figure 2), matching anywhere up to the end of the
// hostname.
type Regex struct {
	tokens   []Token
	leftOpen bool
	// str and re are lazily populated caches; a Regex is immutable after
	// construction.
	str   string
	re    *regexp.Regexp
	inRe  *regexp.Regexp // instrumented: every token in its own group
	inIdx []int          // token index -> instrumented group number
}

// New builds a Regex from tokens. Empty literal tokens are dropped and
// adjacent literals coalesced. New returns an error if the sequence does
// not contain exactly one Capture, or contains more than one DotPlus
// (§3.2 allows ".+" at most once per regex).
func New(tokens ...Token) (*Regex, error) {
	return build(false, tokens)
}

// NewOpen builds a left-open Regex: anchored at the end only.
func NewOpen(tokens ...Token) (*Regex, error) {
	return build(true, tokens)
}

func build(leftOpen bool, tokens []Token) (*Regex, error) {
	cleaned := make([]Token, 0, len(tokens))
	for _, t := range tokens {
		if t.Kind == KindLit && t.Lit == "" {
			continue
		}
		if len(cleaned) > 0 && t.Kind == KindLit && cleaned[len(cleaned)-1].Kind == KindLit {
			cleaned[len(cleaned)-1].Lit += t.Lit
			continue
		}
		cleaned = append(cleaned, t)
	}
	captures, dots := 0, 0
	for _, t := range cleaned {
		switch t.Kind {
		case KindCapture, KindCaptureAlpha:
			captures++
		case KindDotPlus:
			dots++
		}
	}
	if captures != 1 {
		return nil, fmt.Errorf("rex: %d capture tokens, want 1", captures)
	}
	if dots > 1 {
		return nil, fmt.Errorf("rex: %d .+ tokens, want at most 1", dots)
	}
	return &Regex{tokens: cleaned, leftOpen: leftOpen}, nil
}

// MustNew is New that panics on error, for literal construction in tests.
func MustNew(tokens ...Token) *Regex {
	r, err := New(tokens...)
	if err != nil {
		//hoiho:panic-ok invariant on literal token data: New only rejects malformed literal constructions, a programmer error any test run catches
		panic(err)
	}
	return r
}

// Tokens returns a copy of the token sequence.
func (r *Regex) Tokens() []Token {
	return append([]Token(nil), r.tokens...)
}

// Token returns the i-th token without copying the sequence.
func (r *Regex) Token(i int) Token { return r.tokens[i] }

// NumTokens returns the number of tokens.
func (r *Regex) NumTokens() int { return len(r.tokens) }

// LeftOpen reports whether the regex omits the start anchor.
func (r *Regex) LeftOpen() bool { return r.leftOpen }

// String renders the regex in the paper's syntax, including anchors.
func (r *Regex) String() string {
	if r.str == "" {
		size := 2
		for _, t := range r.tokens {
			size += t.renderMax()
		}
		var sb strings.Builder
		sb.Grow(size)
		if !r.leftOpen {
			sb.WriteByte('^')
		}
		for _, t := range r.tokens {
			t.render(&sb)
		}
		sb.WriteByte('$')
		r.str = sb.String()
	}
	return r.str
}

// Equal reports whether two regexes have identical token sequences and
// anchoring.
func (r *Regex) Equal(o *Regex) bool {
	if r.leftOpen != o.leftOpen || len(r.tokens) != len(o.tokens) {
		return false
	}
	for i := range r.tokens {
		if !r.tokens[i].equal(o.tokens[i]) {
			return false
		}
	}
	return true
}

// Compile returns the compiled form (cached).
func (r *Regex) Compile() (*regexp.Regexp, error) {
	if r.re == nil {
		//hoiho:recompile-ok this is the compile-once cache itself: the result is stored on r.re and every later call returns it
		re, err := regexp.Compile(r.String())
		if err != nil {
			return nil, fmt.Errorf("rex: compile %q: %w", r.String(), err)
		}
		r.re = re
	}
	return r.re, nil
}

// Extract runs the regex against hostname and returns the captured ASN
// digits along with the capture's byte offsets. ok is false when the
// regex does not match.
func (r *Regex) Extract(hostname string) (asn string, start, end int, ok bool) {
	re, err := r.Compile()
	if err != nil {
		return "", 0, 0, false
	}
	m := re.FindStringSubmatchIndex(hostname)
	if m == nil {
		return "", 0, 0, false
	}
	// Group 1 is the single Capture token.
	s, e := m[2], m[3]
	if s < 0 {
		return "", 0, 0, false
	}
	return hostname[s:e], s, e, true
}

// TokenSpans matches hostname with an instrumented compilation in which
// every token is its own group, returning the byte span covered by each
// token (aligned with Tokens()). ok is false when the regex does not
// match. Optional alternations that matched nothing yield a zero-width
// span.
func (r *Regex) TokenSpans(hostname string) (spans [][2]int, ok bool) {
	return r.AppendTokenSpans(nil, hostname)
}

// AppendTokenSpans is TokenSpans with caller-provided span storage: the
// spans are appended to dst[:0]'s backing array when it has capacity, so
// a caller probing many hostnames against one regex (phase-3 class
// embedding) reuses a single buffer instead of allocating per match.
func (r *Regex) AppendTokenSpans(dst [][2]int, hostname string) (spans [][2]int, ok bool) {
	if r.inRe == nil {
		var sb strings.Builder
		if !r.leftOpen {
			sb.WriteByte('^')
		}
		r.inIdx = make([]int, len(r.tokens))
		group := 0
		for i, t := range r.tokens {
			group++
			r.inIdx[i] = group
			sb.WriteByte('(')
			switch t.Kind {
			case KindAlt:
				// render without the outer (?:...) since we add our own group
				sb.WriteString("(?:")
				for j, a := range t.Alts {
					if j > 0 {
						sb.WriteByte('|')
					}
					sb.WriteString(escapeLit(a))
				}
				sb.WriteByte(')')
				if t.Opt {
					sb.WriteByte('?')
				}
			case KindCapture:
				sb.WriteString(`\d+`)
			case KindCaptureAlpha:
				sb.WriteString(`[a-z]+`)
			default:
				var tb strings.Builder
				t.render(&tb)
				sb.WriteString(tb.String())
			}
			sb.WriteByte(')')
		}
		sb.WriteByte('$')
		//hoiho:recompile-ok compile-once cache for the instrumented span matcher: stored on r.inRe, rebuilt never
		re, err := regexp.Compile(sb.String())
		if err != nil {
			return dst[:0], false
		}
		r.inRe = re
	}
	m := r.inRe.FindStringSubmatchIndex(hostname)
	if m == nil {
		return dst[:0], false
	}
	spans = dst[:0]
	for i := range r.tokens {
		g := r.inIdx[i]
		spans = append(spans, [2]int{m[2*g], m[2*g+1]})
	}
	return spans, true
}

// Merge attempts the paper's §3.3 merge of two regexes that differ by a
// single simple string. It succeeds when
//
//   - the token sequences are equal everywhere except one position where
//     both tokens are literals (or alternations of literals), producing an
//     alternation; or
//   - one sequence has exactly one extra literal (or alternation) token
//     and is otherwise equal, producing an optional alternation.
//
// The merged regex is returned with ok=true; otherwise ok is false.
func Merge(a, b *Regex) (*Regex, bool) {
	if a.leftOpen != b.leftOpen {
		return nil, false
	}
	switch {
	case len(a.tokens) == len(b.tokens):
		return mergeSameLen(a, b)
	case len(a.tokens) == len(b.tokens)+1:
		return mergeExtra(a, b)
	case len(b.tokens) == len(a.tokens)+1:
		return mergeExtra(b, a)
	}
	return nil, false
}

// altValues extracts the set of literal alternatives a token contributes
// to a merge, with ok=false for non-literal tokens.
func altValues(t Token) (alts []string, opt bool, ok bool) {
	switch t.Kind {
	case KindLit:
		return []string{t.Lit}, false, true
	case KindAlt:
		return t.Alts, t.Opt, true
	}
	return nil, false, false
}

// mergeableAlts reports whether an alternative set is a "single simple
// string" difference in the paper's sense: after removing the longest
// common prefix and suffix, the differing portions must be purely
// alphanumeric. This permits merging context strings like "p"/"s" or
// "-as"/"-" while refusing to alternate structural punctuation
// ("-" vs "."), which a human would never write as (?:-|\.).
func mergeableAlts(alts []string) bool {
	if len(alts) < 2 {
		return true
	}
	pre := alts[0]
	for _, a := range alts[1:] {
		for !strings.HasPrefix(a, pre) {
			pre = pre[:len(pre)-1]
		}
	}
	suf := alts[0]
	for _, a := range alts[1:] {
		for !strings.HasSuffix(a, suf) {
			suf = suf[1:]
		}
	}
	for _, a := range alts {
		mid := a[len(pre):]
		// Guard against prefix/suffix overlap on the shortest alternative.
		if len(suf) <= len(mid) {
			mid = mid[:len(mid)-len(suf)]
		}
		for i := 0; i < len(mid); i++ {
			c := mid[i]
			if !('a' <= c && c <= 'z' || '0' <= c && c <= '9') {
				return false
			}
		}
	}
	return true
}

func mergeSameLen(a, b *Regex) (*Regex, bool) {
	diff := -1
	for i := range a.tokens {
		if !a.tokens[i].equal(b.tokens[i]) {
			if diff >= 0 {
				return nil, false
			}
			diff = i
		}
	}
	if diff < 0 {
		// identical regexes: nothing to merge
		return nil, false
	}
	av, aopt, ok := altValues(a.tokens[diff])
	if !ok {
		return nil, false
	}
	bv, bopt, ok := altValues(b.tokens[diff])
	if !ok {
		return nil, false
	}
	merged := unionAlts(av, bv)
	if !mergeableAlts(merged) {
		return nil, false
	}
	toks := a.Tokens()
	toks[diff] = Alt(aopt || bopt, merged...)
	r, err := build(a.leftOpen, toks)
	if err != nil {
		return nil, false
	}
	return r, true
}

// mergeExtra merges long (len n+1) with short (len n): the extra token in
// long must be a literal/alternation and everything else aligned.
func mergeExtra(long, short *Regex) (*Regex, bool) {
	// Try removing each literal-ish token from long and compare.
	for i, t := range long.tokens {
		av, _, ok := altValues(t)
		if !ok || !mergeableAlts(append([]string{""}, av...)) {
			continue
		}
		if !tokensEqual(long.tokens[:i], short.tokens[:i]) ||
			!tokensEqual(long.tokens[i+1:], short.tokens[i:]) {
			continue
		}
		toks := long.Tokens()
		toks[i] = Alt(true, av...)
		if r, err := build(long.leftOpen, toks); err == nil {
			return r, true
		}
	}
	return nil, false
}

func tokensEqual(a, b []Token) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].equal(b[i]) {
			return false
		}
	}
	return true
}

func unionAlts(a, b []string) []string {
	seen := make(map[string]bool, len(a)+len(b))
	var out []string
	for _, s := range a {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, s := range b {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// WithToken returns a copy of r with token i replaced by t.
func (r *Regex) WithToken(i int, t Token) (*Regex, error) {
	if i < 0 || i >= len(r.tokens) {
		return nil, fmt.Errorf("rex: token index %d out of range", i)
	}
	toks := r.Tokens()
	toks[i] = t
	return build(r.leftOpen, toks)
}

// NarrowestClass returns the narrowest character class covering every
// string in samples: [a-z]+ if all-alphabetic, \d+ if all-numeric,
// [a-z\d]+ if alphanumeric. ok is false when a sample contains a
// character outside [a-z0-9] or samples is empty (no basis to
// generalize).
func NarrowestClass(samples []string) (Class, bool) {
	if len(samples) == 0 {
		return 0, false
	}
	hasAlpha, hasDigit := false, false
	for _, s := range samples {
		if s == "" {
			return 0, false
		}
		for i := 0; i < len(s); i++ {
			c := s[i]
			switch {
			case 'a' <= c && c <= 'z':
				hasAlpha = true
			case '0' <= c && c <= '9':
				hasDigit = true
			default:
				return 0, false
			}
		}
	}
	switch {
	case hasAlpha && hasDigit:
		return ClassAlnum, true
	case hasDigit:
		return ClassDigit, true
	default:
		return ClassAlpha, true
	}
}
