package match

import (
	"regexp"
	"regexp/syntax"
	"sync"
	"unicode/utf8"

	"hoiho/internal/rex"
)

// gateParseBytes bounds the rendered length up to which syntaxOK
// decides on the tokens alone. The parser's only other refusal is
// ErrLarge, which needs millions of runes or nodes; above this bound,
// far below that, syntaxOK asks syntax.Parse itself rather than model
// its limits. No learned regex comes near it.
const gateParseBytes = 64 << 10

// syntaxOK reports whether syntax.Parse(r.String(), syntax.Perl)
// succeeds — exactly what regexp.Compile accepts, since syntax.Compile
// never fails — without rendering or parsing, and without allocating.
//
// Every construct rex renders is valid syntax: literals and
// alternatives are escaped byte for byte as regexp.QuoteMeta escapes
// them, exclusion sets escape '\', ']', '[' and '.' and put '-' last,
// and rex refuses an empty set. What remains is UTF-8: the parser
// refuses invalid UTF-8 anywhere in the text. Every byte rex inserts is
// ASCII, which neither completes nor breaks a multi-byte sequence that
// the source bytes would not, so the text is valid exactly when each
// literal, each alternative and each exclusion set in render order is.
// An exclusion set renders with its dashes moved to the end, so it is
// checked with them removed.
func syntaxOK(r *rex.Regex) bool {
	size := 2 // the anchors
	for i := 0; i < r.NumTokens(); i++ {
		t := r.Token(i)
		size += 8 // the widest fixed syntax, "[a-z\d]+"
		switch t.Kind {
		case rex.KindLit:
			if !utf8.ValidString(t.Lit) {
				return false
			}
			size += 2 * len(t.Lit)
		case rex.KindExcl:
			if !validWithout(t.Excl, '-') {
				return false
			}
			size += 2 * len(t.Excl)
		case rex.KindAlt:
			for _, a := range t.Alts {
				if !utf8.ValidString(a) {
					return false
				}
				size += 2*len(a) + 1
			}
		}
	}
	if size > gateParseBytes {
		_, err := syntax.Parse(string(rex.AppendString(nil, r.LeftOpen(), r.Tokens())), syntax.Perl)
		return err == nil
	}
	return true
}

// validWithout reports whether s with every skip byte removed is valid
// UTF-8. skip must be ASCII.
func validWithout(s string, skip byte) bool {
	var buf [utf8.UTFMax]byte
	for i := 0; i < len(s); {
		if s[i] < utf8.RuneSelf {
			i++
			continue
		}
		// Gather the next rune's worth of kept bytes and decode them.
		n := 0
		for j := i; j < len(s) && n < len(buf); j++ {
			if s[j] != skip {
				buf[n] = s[j]
				n++
			}
		}
		c, w := utf8.DecodeRune(buf[:n])
		if c == utf8.RuneError && w == 1 {
			return false
		}
		// Step past the w kept bytes just decoded.
		for w > 0 {
			if s[i] != skip {
				w--
			}
			i++
		}
	}
	return true
}

// stdlibRegexp is a program's stdlib compilation, for oracleMatch. An
// oracle program builds it with the program; a non-det VM program
// builds it on its first budget fallback, which no learned convention
// reaches. A served engine runs on many goroutines, so the compile runs
// under a sync.Once, renders into its own buffer and never touches the
// source regex's unsynchronized String and Compile caches.
type stdlibRegexp struct {
	once sync.Once
	src  *rex.Regex
	re   *regexp.Regexp
	// compiles counts the compilations run, so that tests can show one
	// per program however many goroutines fall back at once.
	compiles int
}

// get returns the compilation, building it on the first call.
//
//hoiho:hotalloc budgeted cold region: reached only through oracleMatch, on an oracle program or past a VM program's step budget, where the stdlib match allocates anyway; TestBoundMatchStringAllocs holds those calls to the stdlib's own count
func (s *stdlibRegexp) get() *regexp.Regexp {
	s.once.Do(func() {
		s.compiles++
		var buf [256]byte
		text := rex.AppendString(buf[:0], s.src.LeftOpen(), s.src.Tokens())
		// syntaxOK passed for src before the program was built, and
		// regexp.Compile fails only where syntax.Parse does.
		s.re = regexp.MustCompile(string(text))
	})
	return s.re
}
