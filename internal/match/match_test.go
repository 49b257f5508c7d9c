package match

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"hoiho/internal/rex"
)

func mustOpen(t *testing.T, toks ...rex.Token) *rex.Regex {
	t.Helper()
	r, err := rex.NewOpen(toks...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// checkParity asserts the compiled engine and the stdlib oracle agree on
// host: match/no-match, winning index, and capture span.
func checkParity(t *testing.T, r *rex.Regex, host string) {
	t.Helper()
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
}

// checkSpans asserts the compiled token spans of eng's only program
// equal the stdlib's instrumented spans (rex.Regex.TokenSpans) on host.
// The engine may decline a host the regex matches only when its
// program is oracle-backed or the span search exhausts its step budget.
func checkSpans(t *testing.T, eng *Engine, r *rex.Regex, host string) {
	t.Helper()
	want, wok := r.TokenSpans(host)
	got, ok := eng.AppendTokenSpans(nil, 0, host)
	if !ok {
		if !wok {
			return
		}
		p := eng.programs[0]
		v := spanVM{host: host, steps: stepBudget, spans: make([][2]int, len(p.ops))}
		if !p.oracle && (v.search(p) || v.steps >= 0) {
			t.Fatalf("regex %q host %q: compiled spans declined a match the oracle spans as %v", r, host, want)
		}
		return
	}
	if !wok || !slices.Equal(got, want) {
		t.Fatalf("regex %q host %q: compiled spans %v, stdlib spans %v (ok=%v)", r, host, got, want, wok)
	}
}

// parityHosts stresses anchoring, backtracking, case, invalid UTF-8,
// multi-byte runes, and boundary lengths.
var parityHosts = []string{
	"", ".", "-", "as64512.example.net", "AS64512.EXAMPLE.NET",
	"as0-x.example.net", "xas15576.nts.ch", "as15576.nts.ch", "asxas9.nts.ch",
	"a.b.c.d", "999", "as999", "as12-pop.x.net", "as12-pop-9.x.net",
	"é.example.net", "as\xff\xfe12.net", "\xffas12.net", "as12é.net",
	"aaaaaaaaaaaaaaaaaaaaaaaa", "as--12..net", "-as9_p.net", "p9s", "sas9",
	"s9.net", "9.net", "as007.example.net", "as4294967295.x", "as4294967296.x",
	"\xe0\x80as9.net", "as9\xed\xa0\x80.net", "a123b", "1a2b3c",
	"as9p.net", "as9.net", "as9s.net", "r9x.net", "as9abc.net",
}

func tableRegexes(t *testing.T) []*rex.Regex {
	return []*rex.Regex{
		rex.MustNew(rex.Lit("as"), rex.Capture(), rex.Lit(".example.net")),
		mustOpen(t, rex.Lit("as"), rex.Capture(), rex.Lit(".nts.ch")),
		rex.MustNew(rex.Lit("as"), rex.Capture(), rex.Lit("-"), rex.Excl("."), rex.Lit(".x.net")),
		rex.MustNew(rex.Excl(".-"), rex.Lit("-as"), rex.Capture(), rex.DotPlus()),
		rex.MustNew(rex.Alt(true, "p", "s"), rex.Capture(), rex.Lit(".net")),
		rex.MustNew(rex.Alt(false, "as", "r"), rex.Capture(), rex.ClassTok(rex.ClassAlpha), rex.Lit(".net")),
		rex.MustNew(rex.DotPlus(), rex.Lit("as"), rex.Capture(), rex.Lit(".net")),
		rex.MustNew(rex.CaptureAlpha(), rex.Lit("-"), rex.ClassTok(rex.ClassAlnum), rex.Lit(".org")),
		rex.MustNew(rex.ClassTok(rex.ClassDigit), rex.Lit("x"), rex.Capture()),
		mustOpen(t, rex.Capture(), rex.Lit(".net")),
		rex.MustNew(rex.Capture()),
		rex.MustNew(rex.Excl("."), rex.Capture(), rex.Excl(".")),
		rex.MustNew(rex.Lit("as"), rex.Capture(), rex.Alt(true, "p", "s"), rex.Lit(".net")),
		mustOpen(t, rex.Excl("."), rex.Lit("-"), rex.Capture(), rex.Lit(".net")),
	}
}

func TestCompiledMatchParityTable(t *testing.T) {
	for _, r := range tableRegexes(t) {
		for _, host := range parityHosts {
			checkParity(t, r, host)
		}
		checkParity(t, r, strings.Repeat("a9.", 40)+"net")
	}
}

// exclSets are specAST's exclusion sets: a hostname's punctuation, and
// the bytes that are syntax inside a class ('[', ':', ']', '\\', '^').
var exclSets = []string{".", "-", ".-", "_", ".-_", "a", "[:digit:", "]", "\\", "^", "[^]-:"}

// specAST deterministically builds a rex AST from raw bytes — shared by
// the randomized property test and FuzzCompiledMatchParity. Literal and
// exclusion alphabets stay within ASCII so the rendered regex always
// compiles; subject hostnames remain arbitrary bytes.
func specAST(spec []byte) *rex.Regex {
	const litChars = "ab9z0.-_s"
	var toks []rex.Token
	capPlaced, dotUsed := false, false
	for i := 0; i+1 < len(spec) && len(toks) < 12; i += 2 {
		sel, pay := spec[i], spec[i+1]
		switch sel % 7 {
		case 0:
			n := int(pay%3) + 1
			var sb strings.Builder
			for j := 0; j < n; j++ {
				sb.WriteByte(litChars[(int(pay)+j*7)%len(litChars)])
			}
			toks = append(toks, rex.Lit(sb.String()))
		case 1:
			if !capPlaced {
				capPlaced = true
				toks = append(toks, rex.Capture())
			}
		case 2:
			excl := exclSets[int(pay)%len(exclSets)]
			toks = append(toks, rex.Excl(excl))
		case 3:
			toks = append(toks, rex.ClassTok(rex.Class(pay%3)))
		case 4:
			if !dotUsed {
				dotUsed = true
				toks = append(toks, rex.DotPlus())
			}
		case 5:
			alts := make([]string, int(pay%3)+1)
			for j := range alts {
				alts[j] = []string{"p", "s", "as", "", "r9"}[(int(pay)+j)%5]
			}
			toks = append(toks, rex.Alt(pay&8 != 0, alts...))
		case 6:
			if !capPlaced {
				capPlaced = true
				toks = append(toks, rex.CaptureAlpha())
			}
		}
	}
	if !capPlaced {
		toks = append(toks, rex.Capture())
	}
	var r *rex.Regex
	var err error
	if len(spec) > 0 && spec[0]&1 == 1 {
		r, err = rex.NewOpen(toks...)
	} else {
		r, err = rex.New(toks...)
	}
	if err != nil {
		return nil
	}
	return r
}

func randHost(rng *rand.Rand) string {
	b := make([]byte, rng.Intn(24))
	for i := range b {
		if rng.Intn(10) == 0 {
			b[i] = byte(rng.Intn(256)) // arbitrary bytes, including invalid UTF-8
		} else {
			b[i] = "as019.-_pzé"[rng.Intn(11)]
		}
	}
	return string(b)
}

func TestCompiledMatchParityRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 300; iter++ {
		spec := make([]byte, rng.Intn(20)+2)
		rng.Read(spec)
		r := specAST(spec)
		if r == nil {
			continue
		}
		for _, host := range parityHosts {
			checkParity(t, r, host)
		}
		for j := 0; j < 10; j++ {
			checkParity(t, r, randHost(rng))
		}
	}
}

// TestEngineSetParity exercises the multi-program path — NC order
// priority, index alignment, and the shared tail trie — against the
// oracle over the same set.
func TestEngineSetParity(t *testing.T) {
	set := []*rex.Regex{
		rex.MustNew(rex.Lit("as"), rex.Capture(), rex.Lit(".x.net")),
		rex.MustNew(rex.Lit("r"), rex.Capture(), rex.Lit(".x.net")), // shares a tail
		rex.MustNew(rex.Lit("as"), rex.Capture(), rex.Lit("-"), rex.Excl("."), rex.Lit(".x.org")),
		mustOpen(t, rex.Lit("as"), rex.Capture(), rex.Lit(".y.net")),
		rex.MustNew(rex.Capture(), rex.DotPlus()), // no literal tail
		rex.MustNew(rex.Lit("p"), rex.Capture(), rex.Lit(".x.net")),
	}
	eng := Compile(set)
	ora := NewRegexpSet(set)
	if eng.Len() != len(set) || ora.Len() != len(set) {
		t.Fatalf("kept %d/%d of %d regexes", eng.Len(), ora.Len(), len(set))
	}
	if eng.trie == nil {
		t.Fatal("engine with 6 tailed programs built no trie")
	}
	hosts := append([]string{}, parityHosts...)
	hosts = append(hosts, "as9.x.net", "r9.x.net", "p9.x.net", "as9-a.x.org",
		"z.as9.y.net", "9whatever", "as9.x.netx", "x.net")
	for _, host := range hosts {
		gh, gok := eng.MatchString(host)
		wh, wok := ora.MatchString(host)
		if gok != wok || gh != wh {
			t.Fatalf("set parity broken on %q: compiled %+v %v, stdlib %+v %v",
				host, gh, gok, wh, wok)
		}
		if !gok {
			continue
		}
		got, ok := eng.AppendTokenSpans(nil, gh.Index, host)
		want, _ := set[gh.Index].TokenSpans(host)
		if !ok || !slices.Equal(got, want) {
			t.Fatalf("%q: program %d spans %v (ok=%v), stdlib %v", host, gh.Index, got, ok, want)
		}
	}
}

// TestBoundMatchStringAllocs: MatchString allocates nothing on any of
// its compiled paths — the anchored det loop (ASCII and multi-byte
// exclusion runs), the backtracking VM, the left-open det start scan
// and the tail-trie dispatch of a multi-regex set — whether it hits,
// misses on the tail literal or misses in the body. The two paths that
// answer through oracleMatch — an oracle program, and a VM search that
// exhausts its step budget — allocate only what the stdlib spends on
// those same calls, measured in the same run.
func TestBoundMatchStringAllocs(t *testing.T) {
	budget := "^(\\d+)" + strings.Repeat("[^-]+", 12) + "!$"
	for _, tc := range []struct {
		name      string
		res       []string
		hit, miss string
		// oracle lists the hosts the case answers through oracleMatch.
		oracle []string
	}{
		{"det", []string{`^as(\d+)-[^\.]+\.carrier\.net$`}, "as1234-pop1.carrier.net", "lo0.core55.carrier.net", nil},
		{"det-multibyte", []string{`^as(\d+)-[^\.-]+\.carrier\.net$`}, "as1234-pé1.carrier.net", "as1234-p-é.carrier.net", nil},
		{"vm", []string{`^(?:p|s)?(\d+)\.[a-z\d]+\.rand\.net$`}, "p64500.fra3.rand.net", "x64500.fra3.rand.net", nil},
		{"det-left-open", []string{`(\d+)\.core\.carrier\.net$`}, "ae-1.as64500.core.carrier.net", "ae-1.asx.core.carrier.net", nil},
		{"set", []string{`^as(\d+)\.edge\.carrier\.net$`, `^as(\d+)\.peer\.carrier\.net$`,
			`^as(\d+)\.ix\.carrier\.net$`, `^as(\d+)-[^\.]+\.core\.carrier\.net$`},
			"as1234-pop1.core.carrier.net", "lo0.core55.core.carrier.net", nil},
		{"oracle", []string{`^as(\d+)[^é]+\.net$`}, "as9x.net", "as9é.net", []string{"as9x.net", "as9é.net"}},
		{"vm-budget", []string{budget}, "1abcdefghijkl!", budgetHost, []string{budgetHost}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var set []*rex.Regex
			for _, re := range tc.res {
				r, err := rex.Parse(re)
				if err != nil {
					t.Fatal(err)
				}
				set = append(set, r)
			}
			eng := Compile(set)
			missTail := tc.hit[:len(tc.hit)-3] + "org"
			if _, ok := eng.MatchString(tc.hit); !ok {
				t.Fatalf("%v: expected a hit on %q", tc.res, tc.hit)
			}
			if _, ok := eng.MatchString(tc.miss); ok {
				t.Fatalf("%v: expected a miss on %q", tc.res, tc.miss)
			}
			var want float64
			if len(tc.oracle) > 0 {
				p := eng.programs[0]
				for _, h := range tc.oracle {
					v := vm{host: h, steps: stepBudget}
					if !p.oracle && (v.run(p, 0, 0) || v.steps >= 0) {
						t.Fatalf("%q does not reach oracleMatch", h)
					}
				}
				re := p.std.get()
				want = testing.AllocsPerRun(500, func() {
					for _, h := range tc.oracle {
						re.FindStringSubmatchIndex(h)
					}
				})
			}
			allocs := testing.AllocsPerRun(500, func() {
				eng.MatchString(tc.hit)
				eng.MatchString(missTail)
				eng.MatchString(tc.miss)
			})
			if allocs > want {
				t.Fatalf("MatchString allocates %.1f allocs/op, want <= %.1f (the stdlib's own for its oracle calls)", allocs, want)
			}
		})
	}
}

// budgetRegex is "^(\d+)" then twelve "[^-]+" runs then "!$": stacked
// exclusion runs that fail late, a non-det VM program whose search
// exhausts its step budget on budgetHost.
func budgetRegex() *rex.Regex {
	toks := []rex.Token{rex.Capture()}
	for i := 0; i < 12; i++ {
		toks = append(toks, rex.Excl("-"))
	}
	return rex.MustNew(append(toks, rex.Lit("!"))...)
}

// budgetHost makes budgetRegex's VM exhaust its step budget and fall
// back to oracleMatch.
var budgetHost = "1" + strings.Repeat("a", 40) + "-!"

// TestBacktrackBudgetFallback: stacked exclusion runs that fail late
// would backtrack exponentially; the program must exhaust its step
// budget, fall back to the stdlib engine, and still agree with it.
func TestBacktrackBudgetFallback(t *testing.T) {
	r := budgetRegex()
	checkParity(t, r, "1"+strings.Repeat("a", 40))         // no match, exponential without budget
	checkParity(t, r, budgetHost)                          // no match, past the budget
	checkParity(t, r, "1"+strings.Repeat("a", 40)+"!")     // match
	checkParity(t, r, "123"+strings.Repeat("ab", 20)+"x!") // match with digits run
}

// TestOracleProgram: an AST the lowering cannot represent (non-ASCII
// exclusion characters are rune-level class semantics) must keep stdlib
// matching behind the same prefilters.
func TestOracleProgram(t *testing.T) {
	r := rex.MustNew(rex.Lit("as"), rex.Capture(), rex.Excl("é"), rex.Lit(".net"))
	p, ok := compileProgram(r)
	if !ok {
		t.Fatal("program did not compile")
	}
	if !p.oracle {
		t.Fatal("non-ASCII exclusion should force the oracle path")
	}
	for _, host := range append(parityHosts, "as9x.net", "as9é.net") {
		checkParity(t, r, host)
	}
}

// TestCompileDropsWhatStdlibDrops: Compile keeps exactly the regexes
// NewRegexpSet keeps. Text holding invalid UTF-8 is what the stdlib
// refuses to parse; Compile decides it on the tokens (syntaxOK), for
// every kind of program, and an exclusion set counts in render order,
// with its dashes moved to the end.
func TestCompileDropsWhatStdlibDrops(t *testing.T) {
	for _, tc := range []struct {
		name string
		toks []rex.Token
		det  bool // the same tokens with a valid first token lower to a det program
	}{
		{"det", []rex.Token{rex.Lit("a\xff"), rex.Capture(), rex.Lit(".net")}, true},
		{"det-excl", []rex.Token{rex.Lit("a\xff"), rex.Capture(), rex.Lit("-"), rex.Excl("."), rex.Lit(".net")}, true},
		{"vm", []rex.Token{rex.Lit("a\xff"), rex.Capture(), rex.Excl("-"), rex.Excl("-")}, false},
		{"oracle", []rex.Token{rex.Lit("a\xff"), rex.Capture(), rex.Excl("é"), rex.Lit(".net")}, false},
		{"alt", []rex.Token{rex.Alt(true, "a", "b\xff"), rex.Capture(), rex.Lit(".net")}, true},
		{"excl-dot-splits-rune", []rex.Token{rex.Excl("\xc3.\xa9"), rex.Capture(), rex.Lit(".net")}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rex.MustNew(tc.toks...)
			valid := slices.Clone(tc.toks)
			valid[0] = rex.Lit("a")
			if p, ok := compileProgram(rex.MustNew(valid...)); !ok || p.det != tc.det {
				t.Fatalf("valid form: ok=%v, want det=%v", ok, tc.det)
			}
			set := []*rex.Regex{r, rex.MustNew(rex.Lit("as"), rex.Capture(), rex.Lit(".net"))}
			eng, ora := Compile(set), NewRegexpSet(set)
			if eng.Len() != 1 || ora.Len() != 1 {
				t.Fatalf("regex %q: engine kept %d of 2, oracle %d; want 1 each", r, eng.Len(), ora.Len())
			}
			if _, ok := eng.MatchString("as9.net"); !ok {
				t.Fatal("the kept program is not the valid regex's")
			}
			checkParity(t, r, "a\xff9.net")
		})
	}
	// A dash between a rune's bytes renders after them: "[^é-]+" is
	// valid, and both sides keep it.
	r := rex.MustNew(rex.Excl("\xc3-\xa9"), rex.Capture(), rex.Lit(".net"))
	if got := r.String(); got != `^[^é-]+(\d+)\.net$` {
		t.Fatalf("render %q", got)
	}
	for _, host := range append(parityHosts, "x9.net", "é9.net", "-9.net") {
		checkParity(t, r, host)
	}
}

// TestExclusionBracketParity: a '[' in an exclusion set once rendered
// unescaped, so "[^[:digit:]+" named the POSIX class [:digit:] and the
// stdlib matched hosts the compiled engine refused (it captured 12 in
// "a12bb.net"). Both sides now read the set as its five characters.
func TestExclusionBracketParity(t *testing.T) {
	r := rex.MustNew(rex.Lit("a"), rex.Capture(), rex.Excl("[:digit:"), rex.Lit("x"), rex.Excl("."), rex.Lit(".net"))
	for _, host := range append(parityHosts, "a12bb.net", "a12bbxc.net", "a12[x.net", "a12:bxc.net", "a12bdxc.net") {
		checkParity(t, r, host)
	}
	if _, ok := Compile([]*rex.Regex{r}).MatchString("a12bbxc.net"); !ok {
		t.Fatal("a12bbxc.net: no match")
	}
}

// TestProgramRegexpOnlyWhereReachable pins the rule for a program's
// stdlib compilation: a det program never holds one; an oracle program holds one from the start,
// since oracleMatch is its whole matcher; a non-det VM program holds
// only its source until a match falls back, and compiles then.
func TestProgramRegexpOnlyWhereReachable(t *testing.T) {
	regexes := append(tableRegexes(t),
		rex.MustNew(rex.Lit("as"), rex.Capture(), rex.Excl("é"), rex.Lit(".net")),
		budgetRegex())
	rng := rand.New(rand.NewSource(2))
	for len(regexes) < 300 {
		spec := make([]byte, rng.Intn(20)+2)
		rng.Read(spec)
		if r := specAST(spec); r != nil {
			regexes = append(regexes, r)
		}
	}
	var det, vmProgs, oracle int
	check := func(label string, r *rex.Regex, e *Engine) {
		for _, p := range e.programs {
			switch {
			case p.oracle:
				oracle++
				if p.std == nil || p.std.re == nil {
					t.Errorf("%s %q: oracle program without its stdlib compilation", label, r)
				}
			case p.det:
				det++
				if p.std != nil {
					t.Errorf("%s %q: det program holds a stdlib fallback", label, r)
				}
			default:
				vmProgs++
				if p.std == nil || p.std.re != nil {
					t.Errorf("%s %q: VM program: fallback set=%v, compiled before any fallback=%v",
						label, r, p.std != nil, p.std != nil && p.std.re != nil)
				}
			}
		}
	}
	for _, r := range regexes {
		check("compiled", r, Compile([]*rex.Regex{r}))
	}
	if det == 0 || vmProgs == 0 || oracle == 0 {
		t.Fatalf("covered %d det, %d VM, %d oracle programs; want each kind", det, vmProgs, oracle)
	}
	e := Compile([]*rex.Regex{budgetRegex()})
	p := e.programs[0]
	if _, ok := e.MatchString("1abcdefghijkl!"); !ok || p.std.re != nil {
		t.Fatalf("a match within the budget: ok=%v, compiled=%v; want a match and no compile", ok, p.std.re != nil)
	}
	if _, ok := e.MatchString(budgetHost); ok || p.std.re == nil {
		t.Fatalf("a search past the budget: ok=%v, compiled=%v; want no match and a compile", ok, p.std.re != nil)
	}
}

func TestTailTrie(t *testing.T) {
	ps := []*program{
		{tailLit: ".x.net"},
		{tailLit: ".net"},
		{tailLit: ".x.net"}, // duplicate tail shares a bit
		{tailLit: ".org"},
		{tailLit: ""}, // no tail: never pruned
	}
	tr := newTailTrie(ps)
	if tr == nil {
		t.Fatal("no trie built")
	}
	if ps[0].tailID != ps[2].tailID {
		t.Fatal("duplicate tails got distinct ids")
	}
	if ps[4].tailID != -1 {
		t.Fatal("tail-less program got a tail id")
	}
	cases := []struct {
		host string
		want map[int]bool // tailID -> present
	}{
		{"a.x.net", map[int]bool{ps[0].tailID: true, ps[1].tailID: true, ps[3].tailID: false}},
		{"a.y.net", map[int]bool{ps[0].tailID: false, ps[1].tailID: true}},
		{"a.org", map[int]bool{ps[3].tailID: true, ps[1].tailID: false}},
		{"net", map[int]bool{ps[1].tailID: false}},
		{"", map[int]bool{ps[0].tailID: false, ps[1].tailID: false, ps[3].tailID: false}},
	}
	for _, c := range cases {
		mask := tr.suffixMask(c.host)
		for id, want := range c.want {
			if got := mask&(1<<uint(id)) != 0; got != want {
				t.Errorf("suffixMask(%q) bit %d = %v, want %v", c.host, id, got, want)
			}
		}
	}
}

func BenchmarkEngineMatch(b *testing.B) {
	set := []*rex.Regex{
		rex.MustNew(rex.Lit("as"), rex.Capture(), rex.Lit("-"), rex.Excl("."), rex.Lit(".carrier.net")),
	}
	eng := Compile(set)
	ora := NewRegexpSet(set)
	hosts := []string{"as1234-pop1.carrier.net", "lo0.core55.carrier.net", "as1234-pop1.other.org"}
	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng.MatchString(hosts[i%len(hosts)])
		}
	})
	b.Run("regexp", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ora.MatchString(hosts[i%len(hosts)])
		}
	})
}
