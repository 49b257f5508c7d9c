package match

import (
	"regexp/syntax"
	"strings"
	"testing"

	"hoiho/internal/rex"
)

// paritySeeds are FuzzCompiledMatchParity's seeds, specAST specs with a
// subject host; FuzzSyntaxGate starts from their specs too.
var paritySeeds = []struct {
	spec []byte
	host string
}{
	{[]byte{0, 3, 2, 1, 4, 0}, "as64512.example.net"},
	{[]byte{1, 0, 2, 9, 0, 200, 4, 4}, "xas15576.nts.ch"},
	{[]byte{5, 8, 2, 1, 0, 0}, "p9.net"},
	{[]byte{4, 0, 0, 7, 2, 3, 6, 1}, "AS64512.EXAMPLE.NET"},
	{[]byte{2, 2, 2, 2, 2, 2, 2, 2, 2, 2}, "a-a-a-a-a-a-a-a"},
	{[]byte{3, 1, 0, 4, 1, 0}, "\xff\xfe9as.net"},
	{[]byte{6, 0, 0, 1}, "as12é.net"},
	// ^a(\d+)[^\[:digit:]+z[^\.]+a$: with '[' unescaped the stdlib read
	// a POSIX class and captured 12 here, where the engine found no match.
	{[]byte{0, 0, 1, 0, 2, 6, 0, 3, 2, 0, 0, 0}, "a12bba"},
}

// FuzzCompiledMatchParity is the compiled-vs-stdlib oracle fuzz: spec
// bytes deterministically assemble a rex AST (specAST), host is an
// arbitrary byte string, and the compiled engine must agree with the
// stdlib regexp path on match/no-match, winning index, capture span,
// the extracted digits rex.Extract reports for the same regex, and
// every token's span (checkSpans).
func FuzzCompiledMatchParity(f *testing.F) {
	for _, seed := range paritySeeds {
		f.Add(seed.spec, seed.host)
	}
	f.Fuzz(func(t *testing.T, spec []byte, host string) {
		if len(spec) > 64 || len(host) > 256 {
			return
		}
		r := specAST(spec)
		if r == nil {
			return
		}
		eng := Compile([]*rex.Regex{r})
		ora := NewRegexpSet([]*rex.Regex{r})
		if eng.Len() != ora.Len() {
			t.Fatalf("regex %q: engine kept %d programs, oracle %d", r, eng.Len(), ora.Len())
		}
		gh, gok := eng.MatchString(host)
		wh, wok := ora.MatchString(host)
		if gok != wok || gh != wh {
			t.Fatalf("parity broken: regex %q host %q:\n  compiled %+v ok=%v\n  stdlib   %+v ok=%v",
				r, host, gh, gok, wh, wok)
		}
		if eng.Len() == 1 {
			checkSpans(t, eng, r, host)
		}
		if !gok {
			return
		}
		digits, s, e, ok := r.Extract(host)
		if !ok || s != gh.Start || e != gh.End || digits != host[s:e] {
			t.Fatalf("capture disagrees with rex.Extract: regex %q host %q: hit %+v, Extract (%q,%d,%d,%v)",
				r, host, gh, digits, s, e, ok)
		}
	})
}

// FuzzSyntaxGate: syntaxOK, the token-level gate Compile applies, must
// agree with syntax.Parse on the rendered text for every regex. spec
// builds one regex with gateAST, whose text tokens copy arbitrary bytes
// (invalid UTF-8, every punctuation byte), and one with specAST; src is
// parsed with rex.Parse.
func FuzzSyntaxGate(f *testing.F) {
	for _, seed := range paritySeeds {
		f.Add(seed.spec, "")
	}
	for _, src := range []string{
		`^as(\d+)\.example\.net$`,
		`^(?:p|s)?(\d+)\.[a-z\d]+\.equinix\.com$`,
		`as(\d+)\.nts\.ch$`,
		`^[^\.]+-as(\d+)\.[^-]+\.example\.com$`,
		`^.+\.as(\d+)\.example\.org$`,
		`^(?:as|AS)(\d+)\.\d+\.example\.net$`,
		`^a\\b(\d+)\.x$`,
		`^([a-z]+)\.peer\.example\.net$`,
		`(\d+)$`,
		`^(\d+)[^]-+]+$`,
		`^a(\d+)[^[:digit:]+x[^\.]+\.net$`,
		"^[^\xc3-\xa9]+(\\d+)$",
		"^[^\xc3.\xa9]+(\\d+)$",
		"^(?:a|\xff)(\\d+)$",
		strings.Repeat(`(?:a|b)?`, 40) + `(\d+)$`,
	} {
		f.Add([]byte{}, src)
	}
	// "[:-" as a literal, then the exclusion set "\xc3-\xa9", which
	// renders as the valid "é-"; then an alternative holding 0xff.
	f.Add([]byte{1, 0, 3, '[', ':', '-', 1, 2, 3, 0xc3, '-', 0xa9}, "")
	f.Add([]byte{0, 1, 5, 2, 1, 0xff, 0}, "")
	f.Fuzz(func(t *testing.T, spec []byte, src string) {
		if len(spec) > 256 || len(src) > 256 {
			return
		}
		check := func(from string, r *rex.Regex) {
			_, err := syntax.Parse(r.String(), syntax.Perl)
			if got := syntaxOK(r); got != (err == nil) {
				t.Fatalf("%s regex %q: syntaxOK = %v, syntax.Parse error %v", from, r, got, err)
			}
		}
		if r := gateAST(spec); r != nil {
			check("gateAST", r)
		}
		if r := specAST(spec); r != nil {
			check("specAST", r)
		}
		if r, err := rex.Parse(src); err == nil {
			check("rex.Parse", r)
		}
	})
}

// gateAST builds a regex from raw bytes for FuzzSyntaxGate. spec[0]'s
// low bit makes it left-open; then each selector byte adds a token, and
// literal, exclusion and alternative text is copied from the bytes that
// follow it verbatim, so it can hold any byte. It returns nil where rex
// refuses the tokens (an empty exclusion set).
func gateAST(spec []byte) *rex.Regex {
	if len(spec) == 0 {
		return nil
	}
	i := 1
	next := func() byte {
		if i >= len(spec) {
			return 0
		}
		i++
		return spec[i-1]
	}
	text := func() string {
		n := int(next() % 6)
		end := min(i+n, len(spec))
		s := string(spec[i:end])
		i = end
		return s
	}
	var toks []rex.Token
	capPlaced, dotUsed := false, false
	for i < len(spec) && len(toks) < 16 {
		switch next() % 7 {
		case 0:
			toks = append(toks, rex.Lit(text()))
		case 1, 6:
			if !capPlaced {
				capPlaced = true
				toks = append(toks, rex.Capture())
			}
		case 2:
			toks = append(toks, rex.Excl(text()))
		case 3:
			toks = append(toks, rex.ClassTok(rex.Class(next()%3)))
		case 4:
			if !dotUsed {
				dotUsed = true
				toks = append(toks, rex.DotPlus())
			}
		case 5:
			alts := make([]string, next()%4)
			for j := range alts {
				alts[j] = text()
			}
			toks = append(toks, rex.Alt(next()&1 == 1, alts...))
		}
	}
	if !capPlaced {
		toks = append(toks, rex.CaptureAlpha())
	}
	build := rex.New
	if spec[0]&1 == 1 {
		build = rex.NewOpen
	}
	r, err := build(toks...)
	if err != nil {
		return nil
	}
	return r
}
