package match

import (
	"math/bits"
	"strings"
	"unicode/utf8"

	"hoiho/internal/rex"
)

type opKind uint8

const (
	// opLit consumes an exact byte string.
	opLit opKind = iota
	// opSet consumes one or more bytes drawn from an ASCII set: the
	// capture groups "(\d+)" / "([a-z]+)" and the phase-3 classes. ASCII
	// sets never match a non-ASCII byte, so byte stepping and rune
	// stepping agree.
	opSet
	// opExcl consumes one or more runes outside an ASCII set: "[^...]+"
	// and ".+" (which excludes only '\n'). Non-ASCII runes — including
	// each byte of invalid UTF-8, which the stdlib decodes as one-byte
	// U+FFFD — always match, so this op must step by rune.
	opExcl
	// opAlt consumes one alternative of "(?:a|b)", tried in rendered
	// order; when opt is set the empty match is tried last, matching how
	// a backtracking engine treats a greedy "?".
	opAlt
)

// asciiSet is a 128-bit membership set over ASCII bytes.
type asciiSet [2]uint64

func (s *asciiSet) add(b byte) {
	if b < 128 {
		s[b>>6] |= 1 << (b & 63)
	}
}

func (s *asciiSet) addRange(lo, hi byte) {
	for b := lo; b <= hi; b++ {
		s.add(b)
	}
}

func (s *asciiSet) has(b byte) bool {
	return b < 128 && s[b>>6]&(1<<(b&63)) != 0
}

type op struct {
	kind opKind
	lit  string
	set  asciiSet // opSet: allowed bytes; opExcl: excluded bytes
	alts []string
	opt  bool
	// capture marks the single ASN capture op.
	capture bool
	// minW is the minimum number of bytes this op consumes.
	minW int
	// excl1 is the single excluded byte when an opExcl set holds exactly
	// one ASCII byte — "[^.]+" and ".+" — letting the greedy run use one
	// SIMD IndexByte instead of a per-byte set walk. An ASCII byte is
	// never part of a multi-byte rune and invalid bytes decode one at a
	// time, so the first occurrence under byte search and under the
	// rune-stepping scan coincide.
	excl1   byte
	isExcl1 bool
	// isDigit marks an opSet over exactly [0-9]: the capture op of almost
	// every learned convention, scanned with one subtract-compare per
	// byte instead of the general bitset test.
	isDigit bool
	// fixedTail is the exact byte width of everything after this op when
	// the remaining ops are all literals — then a greedy op's end
	// position is forced and needs no backtracking — and -1 otherwise.
	fixedTail int
}

// program is one compiled regex: the lowered op sequence plus the
// prefilters that reject most hostnames without entering the VM.
type program struct {
	ops      []op
	leftOpen bool
	minLen   int
	// headLit is the first op's literal, required as a prefix when the
	// regex is start-anchored and used to skip non-viable start offsets
	// when it is left-open.
	headLit string
	// tailLit is the last op's literal: the regex is always end-anchored,
	// so it is a required hostname suffix.
	tailLit string
	// tailID indexes the owning engine's tail trie, -1 when unused.
	tailID int
	oracle bool
	// det marks a program whose every quantified op has exactly one
	// viable end position per attempt — its tail is fixed-width, or the
	// following literal's first byte cannot extend its run — so a match
	// attempt never backtracks and runs on the iterative matchDet loop
	// instead of the VM. Learned conventions are almost always det.
	// matchDet and matchDetAll have no stdlib fallback, so a det
	// program has no stdlib compilation: almost every learned
	// convention matches without one.
	det bool
	// std is the stdlib compilation oracleMatch answers with, set
	// exactly when the program can reach oracleMatch (see setStdlib):
	// the whole matcher of an oracle program (ASTs the lowering cannot
	// represent, e.g. non-ASCII exclusion sets), and the mid-match
	// fallback of a non-det VM program whose backtracking budget runs
	// out. It is nil for det programs. The matcher reads it only there,
	// so it sits apart from the fields every match reads.
	std *stdlibRegexp
}

// compileProgram lowers r. ok is false when the stdlib cannot compile r
// (such regexes have always been dropped from serving), which syntaxOK
// decides on the tokens. A lowerable AST gets the VM; anything else
// keeps stdlib matching behind the same prefilters.
func compileProgram(r *rex.Regex) (*program, bool) {
	if !syntaxOK(r) {
		return nil, false
	}
	p := &program{leftOpen: r.LeftOpen(), tailID: -1}
	supported := true
	p.ops = make([]op, 0, r.NumTokens())
	for i := 0; i < r.NumTokens(); i++ {
		t := r.Token(i)
		var o op
		switch t.Kind {
		case rex.KindLit:
			o = op{kind: opLit, lit: t.Lit, minW: len(t.Lit)}
		case rex.KindCapture:
			o = op{kind: opSet, capture: true, minW: 1}
			o.set.addRange('0', '9')
		case rex.KindCaptureAlpha:
			o = op{kind: opSet, capture: true, minW: 1}
			o.set.addRange('a', 'z')
		case rex.KindClass:
			o = op{kind: opSet, minW: 1}
			switch t.Class {
			case rex.ClassAlpha:
				o.set.addRange('a', 'z')
			case rex.ClassDigit:
				o.set.addRange('0', '9')
			default:
				o.set.addRange('a', 'z')
				o.set.addRange('0', '9')
			}
		case rex.KindExcl:
			o = op{kind: opExcl, minW: 1}
			for i := 0; i < len(t.Excl); i++ {
				b := t.Excl[i]
				if b >= utf8.RuneSelf {
					// A non-ASCII excluded character is rune-level class
					// semantics a byte set cannot express.
					supported = false
				}
				o.set.add(b)
			}
		case rex.KindDotPlus:
			o = op{kind: opExcl, minW: 1}
			o.set.add('\n')
		case rex.KindAlt:
			alts := t.Alts
			if len(alts) == 0 {
				alts = []string{""} // "(?:)" matches the empty string
			}
			o = op{kind: opAlt, alts: alts, opt: t.Opt}
			if !t.Opt {
				o.minW = len(alts[0])
				for _, a := range alts[1:] {
					if len(a) < o.minW {
						o.minW = len(a)
					}
				}
			}
		default:
			supported = false
		}
		p.ops = append(p.ops, o)
	}
	p.oracle = !supported
	p.finalize()
	p.setStdlib(r)
	return p, true
}

// setStdlib gives a program that can reach oracleMatch the stdlib
// compilation of its source r, which must have passed syntaxOK. An
// oracle program compiles it now, since oracleMatch is its whole
// matcher; a non-det VM program compiles it on its first budget
// fallback, which no learned convention reaches; a det program gets
// none.
func (p *program) setStdlib(r *rex.Regex) {
	if p.det {
		return
	}
	p.std = &stdlibRegexp{src: r}
	if p.oracle {
		p.std.get()
	}
}

// finalize derives every field the matcher dispatch needs from the
// fundamental op sequence (kind, lit, set, alts, opt, capture) and the
// oracle flag: per-op minW/excl1/isDigit/fixedTail, the program's
// minLen and head/tail literals, and the det classification.
func (p *program) finalize() {
	p.minLen = 0
	for i := range p.ops {
		o := &p.ops[i]
		switch o.kind {
		case opLit:
			o.minW = len(o.lit)
		case opSet, opExcl:
			o.minW = 1
		case opAlt:
			o.minW = 0
			if !o.opt && len(o.alts) > 0 {
				o.minW = len(o.alts[0])
				for _, a := range o.alts[1:] {
					if len(a) < o.minW {
						o.minW = len(a)
					}
				}
			}
		}
		p.minLen += o.minW
	}
	var digits asciiSet
	digits.addRange('0', '9')
	for i := range p.ops {
		o := &p.ops[i]
		o.excl1, o.isExcl1, o.isDigit = 0, false, false
		if o.kind == opExcl && bits.OnesCount64(o.set[0])+bits.OnesCount64(o.set[1]) == 1 {
			if o.set[0] != 0 {
				o.excl1 = byte(bits.TrailingZeros64(o.set[0]))
			} else {
				o.excl1 = byte(64 + bits.TrailingZeros64(o.set[1]))
			}
			o.isExcl1 = true
		}
		if o.kind == opSet && o.set == digits {
			o.isDigit = true
		}
	}
	// fixedTail: scan from the end while only literals remain.
	run, allLit := 0, true
	for i := len(p.ops) - 1; i >= 0; i-- {
		if allLit {
			p.ops[i].fixedTail = run
		} else {
			p.ops[i].fixedTail = -1
		}
		if p.ops[i].kind == opLit {
			run += len(p.ops[i].lit)
		} else {
			allLit = false
		}
	}
	p.headLit, p.tailLit = "", ""
	if n := len(p.ops); n > 0 {
		if p.ops[0].kind == opLit {
			p.headLit = p.ops[0].lit
		}
		if p.ops[n-1].kind == opLit {
			p.tailLit = p.ops[n-1].lit
		}
	}
	p.det = !p.oracle && p.deterministic()
}

// deterministic reports whether every quantified op in the program has
// exactly one viable end position in any attempt, making backtracking
// impossible:
//
//   - a greedy run with a fixed-width literal tail (fixedTail >= 0) has
//     its end forced by the end anchor;
//   - a greedy run followed by a literal whose first byte cannot extend
//     the run can only stop at its maximal extent — any shorter end
//     puts a run-extending byte where the literal's first byte must be;
//   - an alternation with a single required branch is a literal.
func (p *program) deterministic() bool {
	for i := range p.ops {
		o := &p.ops[i]
		switch o.kind {
		case opLit:
		case opAlt:
			if len(o.alts) != 1 || o.opt {
				return false
			}
		case opSet, opExcl:
			if o.fixedTail >= 0 {
				continue
			}
			if i+1 >= len(p.ops) || p.ops[i+1].kind != opLit || len(p.ops[i+1].lit) == 0 {
				return false
			}
			nb := p.ops[i+1].lit[0]
			// opSet runs over bytes in the set; opExcl runs over bytes
			// outside it. Either way nb must stop the run.
			if o.kind == opSet && o.set.has(nb) {
				return false
			}
			if o.kind == opExcl && !o.set.has(nb) {
				return false
			}
		}
	}
	return true
}

// matchDet matches ops against host[pos:] without backtracking — valid
// only for det programs, where each quantified op has a single viable
// end. It replicates the VM's leftmost-first answer exactly: for every
// op the end position it picks is the only one whose continuation can
// succeed.
func (p *program) matchDet(host string, pos int) (int, int, bool) {
	var capS, capE int
	for i := range p.ops {
		o := &p.ops[i]
		switch o.kind {
		case opLit:
			switch len(o.lit) {
			case 1:
				if pos >= len(host) || host[pos] != o.lit[0] {
					return 0, 0, false
				}
				pos++
				continue
			case 2:
				if pos+2 > len(host) || host[pos] != o.lit[0] || host[pos+1] != o.lit[1] {
					return 0, 0, false
				}
				pos += 2
				continue
			}
			end := pos + len(o.lit)
			if end > len(host) || host[pos:end] != o.lit {
				return 0, 0, false
			}
			pos = end
		case opAlt: // det: exactly one required branch
			a := o.alts[0]
			end := pos + len(a)
			if end > len(host) || host[pos:end] != a {
				return 0, 0, false
			}
			pos = end
		case opSet:
			max := pos
			if o.isDigit {
				for max < len(host) && uint(host[max])-'0' < 10 {
					max++
				}
			} else {
				for max < len(host) && o.set.has(host[max]) {
					max++
				}
			}
			end := max
			if ft := o.fixedTail; ft >= 0 {
				end = len(host) - ft
				if end > max {
					return 0, 0, false
				}
			}
			if end <= pos {
				return 0, 0, false
			}
			if o.capture {
				capS, capE = pos, end
			}
			pos = end
		case opExcl:
			var end int
			if o.isExcl1 {
				max := len(host)
				if j := strings.IndexByte(host[pos:], o.excl1); j >= 0 {
					max = pos + j
				}
				end = max
				if ft := o.fixedTail; ft >= 0 {
					end = len(host) - ft
					if end > max {
						return 0, 0, false
					}
					// end == max stops at an ASCII byte or the end of host,
					// both rune boundaries; a shorter forced end must be
					// checked.
					if end < max && !runeBoundaryFrom(host, pos, end) {
						return 0, 0, false
					}
				}
			} else {
				max, sawMulti := pos, false
				for max < len(host) {
					b := host[max]
					if b < utf8.RuneSelf {
						if o.set.has(b) {
							break
						}
						max++
					} else {
						_, w := utf8.DecodeRuneInString(host[max:])
						max += w
						sawMulti = sawMulti || w > 1
					}
				}
				end = max
				if ft := o.fixedTail; ft >= 0 {
					end = len(host) - ft
					if end > max {
						return 0, 0, false
					}
					if sawMulti && !runeBoundaryFrom(host, pos, end) {
						return 0, 0, false
					}
				}
			}
			if end <= pos {
				return 0, 0, false
			}
			if o.capture {
				capS, capE = pos, end
			}
			pos = end
		}
	}
	return capS, capE, pos == len(host)
}

// stepBudget bounds backtracking work per (host, start) attempt set.
// Learned conventions use a handful of steps; only adversarial token
// sequences (stacked exclusion runs that all fail late) approach the
// budget, and those fall back to the stdlib engine so the answer is
// unchanged.
const stepBudget = 1 << 14

// vm is per-match state. It is passed by pointer through the recursion
// but never stored, so it stays on MatchString's stack.
type vm struct {
	host       string
	steps      int
	capS, capE int
}

// match runs the program against host, returning the capture span.
func (p *program) match(host string) (capS, capE int, ok bool) {
	if len(host) < p.minLen {
		return 0, 0, false
	}
	if p.det && !p.leftOpen {
		// The op sequence itself verifies the head and tail literals at
		// their only viable positions; prefilters would duplicate work.
		return p.matchDet(host, 0)
	}
	if p.tailLit != "" && !strings.HasSuffix(host, p.tailLit) {
		return 0, 0, false
	}
	if p.oracle {
		return p.oracleMatch(host)
	}
	if p.det {
		return p.matchDetAll(host)
	}
	v := vm{host: host, steps: stepBudget}
	if !p.leftOpen {
		if p.headLit != "" && !strings.HasPrefix(host, p.headLit) {
			return 0, 0, false
		}
		if v.run(p, 0, 0) {
			return v.capS, v.capE, true
		}
		if v.steps < 0 {
			return p.oracleMatch(host)
		}
		return 0, 0, false
	}
	// Left-open: the leftmost start offset that matches wins, exactly as
	// the stdlib resolves an unanchored pattern. When the first op is a
	// literal only its occurrences are viable starts.
	limit := len(host) - p.minLen
	if p.headLit != "" {
		for s := 0; s <= limit; {
			i := strings.Index(host[s:], p.headLit)
			if i < 0 {
				return 0, 0, false
			}
			s += i
			if s > limit {
				return 0, 0, false
			}
			if v.run(p, 0, s) {
				return v.capS, v.capE, true
			}
			if v.steps < 0 {
				return p.oracleMatch(host)
			}
			s++
		}
		return 0, 0, false
	}
	for s := 0; s <= limit; s++ {
		if v.run(p, 0, s) {
			return v.capS, v.capE, true
		}
		if v.steps < 0 {
			return p.oracleMatch(host)
		}
	}
	return 0, 0, false
}

// matchDetAll is the start-offset search for left-open det programs:
// the same leftmost-first start scan as the VM path, with each attempt
// running the linear matchDet. det attempts cannot exhaust a step
// budget, so there is no mid-match oracle fallback to consider.
func (p *program) matchDetAll(host string) (int, int, bool) {
	limit := len(host) - p.minLen
	if p.headLit != "" {
		for s := 0; s <= limit; {
			i := strings.Index(host[s:], p.headLit)
			if i < 0 {
				return 0, 0, false
			}
			s += i
			if s > limit {
				return 0, 0, false
			}
			if cs, ce, ok := p.matchDet(host, s); ok {
				return cs, ce, true
			}
			s++
		}
		return 0, 0, false
	}
	for s := 0; s <= limit; s++ {
		if cs, ce, ok := p.matchDet(host, s); ok {
			return cs, ce, true
		}
	}
	return 0, 0, false
}

// oracleMatch answers with the stdlib compilation of the same regex.
func (p *program) oracleMatch(host string) (int, int, bool) {
	m := p.std.get().FindStringSubmatchIndex(host)
	if m == nil || m[2] < 0 {
		return 0, 0, false
	}
	return m[2], m[3], true
}

// run matches ops[i:] at pos, replicating a leftmost-first backtracking
// search: greedy quantifiers try their longest extent first, alternation
// alternatives are tried in rendered order with the optional empty match
// last. The whole host must be consumed (every regex is end-anchored).
func (v *vm) run(p *program, i, pos int) bool {
	v.steps--
	if v.steps < 0 {
		return false
	}
	if i == len(p.ops) {
		return pos == len(v.host)
	}
	o := &p.ops[i]
	switch o.kind {
	case opLit:
		end := pos + len(o.lit)
		if end > len(v.host) || v.host[pos:end] != o.lit {
			return false
		}
		return v.run(p, i+1, end)

	case opAlt:
		for _, a := range o.alts {
			end := pos + len(a)
			if end <= len(v.host) && v.host[pos:end] == a {
				if v.run(p, i+1, end) {
					return true
				}
				if v.steps < 0 {
					return false
				}
			}
		}
		if o.opt {
			return v.run(p, i+1, pos)
		}
		return false

	case opSet:
		max := pos
		for max < len(v.host) && o.set.has(v.host[max]) {
			max++
		}
		if max == pos {
			return false
		}
		if ft := o.fixedTail; ft >= 0 {
			// Everything after this op is literal: the end is forced.
			end := len(v.host) - ft
			if end <= pos || end > max {
				return false
			}
			if v.run(p, i+1, end) {
				if o.capture {
					v.capS, v.capE = pos, end
				}
				return true
			}
			return false
		}
		for end := max; end > pos; end-- {
			if v.run(p, i+1, end) {
				if o.capture {
					v.capS, v.capE = pos, end
				}
				return true
			}
			if v.steps < 0 {
				return false
			}
		}
		return false

	case opExcl:
		// Greedy rune run: ASCII bytes stop at the excluded set, non-ASCII
		// runes always match (the excluded characters are ASCII), and each
		// invalid byte decodes as one-byte U+FFFD, matching the stdlib's
		// treatment.
		max, sawMulti := pos, false
		for max < len(v.host) {
			b := v.host[max]
			if b < utf8.RuneSelf {
				if o.set.has(b) {
					break
				}
				max++
			} else {
				_, w := utf8.DecodeRuneInString(v.host[max:])
				max += w
				sawMulti = sawMulti || w > 1
			}
		}
		if max == pos {
			return false
		}
		if ft := o.fixedTail; ft >= 0 {
			end := len(v.host) - ft
			if end <= pos || end > max {
				return false
			}
			if sawMulti && !runeBoundaryFrom(v.host, pos, end) {
				return false
			}
			return v.run(p, i+1, end) && v.setCap(o, pos, end)
		}
		for end := max; end > pos; {
			if v.run(p, i+1, end) {
				return v.setCap(o, pos, end)
			}
			if v.steps < 0 {
				return false
			}
			// Step back one rune. DecodeLastRuneInString mirrors forward
			// decoding boundaries, including one-byte steps over invalid
			// sequences.
			if v.host[end-1] < utf8.RuneSelf {
				end--
			} else {
				_, w := utf8.DecodeLastRuneInString(v.host[:end])
				end -= w
			}
		}
		return false
	}
	return false
}

// setCap records the capture span when o is the capture op; it always
// reports true so callers can chain it after a successful tail match.
func (v *vm) setCap(o *op, s, e int) bool {
	if o.capture {
		v.capS, v.capE = s, e
	}
	return true
}

// spanVM is vm with every op's span recorded along the accepted path,
// for the learner's class phase. It is a separate walk so that vm.run,
// which lookups use, does no recording work.
type spanVM struct {
	host  string
	steps int
	spans [][2]int
}

// search tries each start offset in turn, as vm's leftmost-first search
// does: only offset 0 for a start-anchored program.
func (v *spanVM) search(p *program) bool {
	for s := 0; s <= len(v.host)-p.minLen; s++ {
		if v.run(p, 0, s) {
			return true
		}
		if v.steps < 0 || !p.leftOpen {
			return false
		}
	}
	return false
}

// run explores ops[i:] at pos in vm.run's order — greedy runs longest
// first, alternatives in rendered order with the optional empty match
// last — and on success records each op's span on the way back out.
func (v *spanVM) run(p *program, i, pos int) bool {
	v.steps--
	if v.steps < 0 {
		return false
	}
	if i == len(p.ops) {
		return pos == len(v.host)
	}
	o := &p.ops[i]
	switch o.kind {
	case opLit:
		end := pos + len(o.lit)
		return end <= len(v.host) && v.host[pos:end] == o.lit && v.take(p, i, pos, end)

	case opAlt:
		for _, a := range o.alts {
			end := pos + len(a)
			if end <= len(v.host) && v.host[pos:end] == a {
				if v.take(p, i, pos, end) {
					return true
				}
				if v.steps < 0 {
					return false
				}
			}
		}
		return o.opt && v.take(p, i, pos, pos)

	case opSet:
		max := pos
		for max < len(v.host) && o.set.has(v.host[max]) {
			max++
		}
		if ft := o.fixedTail; ft >= 0 {
			end := len(v.host) - ft
			return end > pos && end <= max && v.take(p, i, pos, end)
		}
		for end := max; end > pos; end-- {
			if v.take(p, i, pos, end) {
				return true
			}
			if v.steps < 0 {
				return false
			}
		}

	case opExcl:
		max, sawMulti := pos, false
		for max < len(v.host) {
			b := v.host[max]
			if b < utf8.RuneSelf {
				if o.set.has(b) {
					break
				}
				max++
			} else {
				_, w := utf8.DecodeRuneInString(v.host[max:])
				max += w
				sawMulti = sawMulti || w > 1
			}
		}
		if ft := o.fixedTail; ft >= 0 {
			end := len(v.host) - ft
			return end > pos && end <= max && (!sawMulti || runeBoundaryFrom(v.host, pos, end)) && v.take(p, i, pos, end)
		}
		for end := max; end > pos; {
			if v.take(p, i, pos, end) {
				return true
			}
			if v.steps < 0 {
				return false
			}
			if v.host[end-1] < utf8.RuneSelf {
				end--
			} else {
				_, w := utf8.DecodeLastRuneInString(v.host[:end])
				end -= w
			}
		}
	}
	return false
}

// take matches the rest of the program from end and, when that
// succeeds, records op i's span.
func (v *spanVM) take(p *program, i, pos, end int) bool {
	if !v.run(p, i+1, end) {
		return false
	}
	v.spans[i] = [2]int{pos, end}
	return true
}

// runeBoundaryFrom reports whether end lies on a rune boundary when
// decoding forward from start.
func runeBoundaryFrom(host string, start, end int) bool {
	for start < end {
		if host[start] < utf8.RuneSelf {
			start++
		} else {
			_, w := utf8.DecodeRuneInString(host[start:])
			start += w
		}
	}
	return start == end
}
