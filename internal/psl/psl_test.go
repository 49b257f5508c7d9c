package psl

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestPublicSuffixBasic(t *testing.T) {
	l := Default()
	cases := []struct {
		domain, suffix string
	}{
		{"equinix.com", "com"},
		{"sgw.equinix.com", "com"},
		{"example.org.nz", "org.nz"},
		{"luckie.org.nz", "org.nz"},
		{"nts.ch", "ch"},
		{"antel.net.uy", "net.uy"},
		{"akl-ix.nz", "nz"},
		{"foo.blogspot.com", "blogspot.com"},
		{"a.b.c.co.uk", "co.uk"},
		{"ba07.mctn.nb.aliant.net", "net"},
	}
	for _, c := range cases {
		got, _ := l.PublicSuffix(c.domain)
		if got != c.suffix {
			t.Errorf("PublicSuffix(%q) = %q, want %q", c.domain, got, c.suffix)
		}
	}
}

func TestRegisteredDomain(t *testing.T) {
	l := Default()
	cases := []struct {
		domain, reg string
		ok          bool
	}{
		{"equinix.com", "equinix.com", true},
		{"p714.sgw.equinix.com", "equinix.com", true},
		{"ge0-2.01.p.ost.ch.as15576.nts.ch", "nts.ch", true},
		{"mlg4bras1-be127-605.antel.net.uy", "antel.net.uy", true},
		{"as24940.akl-ix.nz", "akl-ix.nz", true},
		{"gw-as20732.init7.net", "init7.net", true},
		{"com", "", false},
		{"org.nz", "", false},
		{"", "", false},
		{"UPPER.Example.COM.", "example.com", true},
	}
	for _, c := range cases {
		got, ok := l.RegisteredDomain(c.domain)
		if got != c.reg || ok != c.ok {
			t.Errorf("RegisteredDomain(%q) = %q,%v want %q,%v", c.domain, got, ok, c.reg, c.ok)
		}
	}
}

func TestWildcardAndException(t *testing.T) {
	l := Default()
	// *.ck: every child of ck is a public suffix, except www.ck.
	if s, _ := l.PublicSuffix("foo.anything.ck"); s != "anything.ck" {
		t.Errorf("wildcard: got %q", s)
	}
	if reg, ok := l.RegisteredDomain("foo.anything.ck"); !ok || reg != "foo.anything.ck" {
		t.Errorf("wildcard reg: got %q,%v", reg, ok)
	}
	if s, _ := l.PublicSuffix("www.ck"); s != "ck" {
		t.Errorf("exception: got %q", s)
	}
	if reg, ok := l.RegisteredDomain("www.ck"); !ok || reg != "www.ck" {
		t.Errorf("exception reg: got %q,%v", reg, ok)
	}
	if reg, ok := l.RegisteredDomain("foo.www.ck"); !ok || reg != "www.ck" {
		t.Errorf("exception child reg: got %q,%v", reg, ok)
	}
	// Multi-label wildcard with exception.
	if s, _ := l.PublicSuffix("x.north.kawasaki.jp"); s != "north.kawasaki.jp" {
		t.Errorf("kawasaki wildcard: got %q", s)
	}
	if reg, ok := l.RegisteredDomain("a.city.kawasaki.jp"); !ok || reg != "city.kawasaki.jp" {
		t.Errorf("kawasaki exception: got %q,%v", reg, ok)
	}
}

func TestImplicitStarRule(t *testing.T) {
	l := Default()
	// "zz" is not on the embedded list: the TLD itself is the suffix.
	s, explicit := l.PublicSuffix("example.zz")
	if s != "zz" || explicit {
		t.Errorf("implicit rule: got %q explicit=%v", s, explicit)
	}
	if reg, ok := l.RegisteredDomain("www.example.zz"); !ok || reg != "example.zz" {
		t.Errorf("implicit reg: got %q,%v", reg, ok)
	}
}

func TestParseErrorsAndComments(t *testing.T) {
	in := `
// a comment
com
net  trailing junk ignored

org
`
	l, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 3 {
		t.Errorf("Len = %d, want 3", l.Len())
	}
	if _, err := FromRules(""); err == nil {
		t.Error("empty rule should error")
	}
	if _, err := FromRules("a..b"); err == nil {
		t.Error("empty label should error")
	}
}

func TestGroupByRegisteredDomain(t *testing.T) {
	l := Default()
	hosts := []string{
		"p714.sgw.equinix.com",
		"24482-fr5-ix.equinix.com",
		"ge0-2.01.p.ost.ch.as15576.nts.ch",
		"as24940.akl-ix.nz",
		"com", // dropped: bare suffix
	}
	g := l.GroupByRegisteredDomain(hosts)
	if len(g) != 3 {
		t.Fatalf("groups = %d, want 3: %v", len(g), g)
	}
	if len(g["equinix.com"]) != 2 {
		t.Errorf("equinix.com bucket = %v", g["equinix.com"])
	}
	if len(g["nts.ch"]) != 1 || len(g["akl-ix.nz"]) != 1 {
		t.Errorf("unexpected buckets: %v", g)
	}
}

func TestSuffixesRoundTrip(t *testing.T) {
	l, err := FromRules("com", "org.nz", "*.ck", "!www.ck")
	if err != nil {
		t.Fatal(err)
	}
	got := l.Suffixes()
	want := []string{"!www.ck", "*.ck", "com", "org.nz"}
	if len(got) != len(want) {
		t.Fatalf("Suffixes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Suffixes = %v, want %v", got, want)
		}
	}
}

// Property: RegisteredDomain(h) is always a suffix of h, contains the
// public suffix as its own suffix, and has exactly one more label than
// the public suffix.
func TestRegisteredDomainInvariants(t *testing.T) {
	l := Default()
	f := func(a, b, c uint8) bool {
		labels := []string{
			string(rune('a' + a%26)),
			string(rune('a'+b%26)) + "x",
			[]string{"com", "org.nz", "ch", "zz", "anything.ck"}[c%5],
		}
		h := strings.Join(labels, ".")
		reg, ok := l.RegisteredDomain(h)
		if !ok {
			return false
		}
		if !strings.HasSuffix(h, reg) {
			return false
		}
		suffix, _ := l.PublicSuffix(h)
		if !strings.HasSuffix(reg, suffix) {
			return false
		}
		return strings.Count(reg, ".") == strings.Count(suffix, ".")+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRegisteredDomain(b *testing.B) {
	l := Default()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.RegisteredDomain("te0-0-24.01.p.bre.ch.as15576.nts.ch")
	}
}

// registeredDomainOracle is RegisteredDomain as it was before it sliced
// the input at RegisteredDomainStart: the public suffix from
// PublicSuffix's label split and join, plus one label, joined into a new
// string.
func registeredDomainOracle(l *List, domain string) (string, bool) {
	domain = normalize(domain)
	if domain == "" {
		return "", false
	}
	suffix, _ := l.PublicSuffix(domain)
	if suffix == domain {
		return "", false
	}
	rest := strings.TrimSuffix(domain, "."+suffix)
	if rest == domain {
		return "", false
	}
	i := strings.LastIndexByte(rest, '.')
	return rest[i+1:] + "." + suffix, true
}

// Property: RegisteredDomain and RegisteredDomainStart agree with the
// split-and-join oracle across normal, wildcard, exception, and implicit
// rules, including degenerate shapes (bare TLDs, empty labels, public
// suffixes themselves); RegisteredDomain also on unnormalized input.
func TestRegisteredDomainStartEquivalence(t *testing.T) {
	lists := map[string]*List{
		"default": Default(),
		"mixed": mustFromRules(t, "com", "org.nz", "*.ck", "!www.ck",
			"deep.rule.zz", "*.wild.qq"),
	}
	hosts := []string{
		"", "com", "a.com", "b.a.com", "x.org.nz", "org.nz", "nz",
		"anything.ck", "sub.anything.ck", "www.ck", "sub.www.ck",
		"x.deep.rule.zz", "deep.rule.zz", "rule.zz", "zz",
		"a.wild.qq", "b.a.wild.qq", "wild.qq", "qq",
		"a..com", "..com", ".com", "a.b", "b", "no-dots",
		"x.y.z.w.v.u.t.com", "WWW.Example.COM.", " b.a.com ", "X.ORG.NZ",
	}
	for name, l := range lists {
		for _, h := range hosts {
			wantReg, wantOK := registeredDomainOracle(l, h)
			if reg, ok := l.RegisteredDomain(h); reg != wantReg || ok != wantOK {
				t.Errorf("%s: RegisteredDomain(%q) = %q,%v, oracle %q,%v",
					name, h, reg, ok, wantReg, wantOK)
			}
			if h != normalize(h) {
				continue // Start requires normalized input by contract
			}
			start, ok := l.RegisteredDomainStart(h)
			if ok != wantOK {
				t.Errorf("%s: RegisteredDomainStart(%q) ok=%v, RegisteredDomain ok=%v",
					name, h, ok, wantOK)
				continue
			}
			if ok && h[start:] != wantReg {
				t.Errorf("%s: RegisteredDomainStart(%q) = %q, RegisteredDomain = %q",
					name, h, h[start:], wantReg)
			}
		}
	}
}

func TestRegisteredDomainStartRandomized(t *testing.T) {
	l := Default()
	f := func(a, b, c, d uint8) bool {
		parts := make([]string, 0, 4)
		for _, v := range []uint8{a, b} {
			if v%3 != 0 {
				parts = append(parts, string(rune('a'+v%26)))
			}
		}
		parts = append(parts, string(rune('a'+c%26))+"9")
		parts = append(parts, []string{"com", "org.nz", "ch", "zz", "anything.ck", "www.ck"}[d%6])
		h := strings.Join(parts, ".")
		wantReg, wantOK := registeredDomainOracle(l, h)
		if reg, ok := l.RegisteredDomain(h); reg != wantReg || ok != wantOK {
			return false
		}
		start, ok := l.RegisteredDomainStart(h)
		if ok != wantOK {
			return false
		}
		return !ok || h[start:] == wantReg
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRegisteredDomainStartAllocs(t *testing.T) {
	l := Default()
	host := "te0-0-24.01.p.bre.ch.as15576.nts.ch"
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := l.RegisteredDomainStart(host); !ok {
			t.Fatal("no registered domain")
		}
	})
	if allocs != 0 {
		t.Fatalf("RegisteredDomainStart allocates %.1f allocs/op, want 0", allocs)
	}
	// RegisteredDomain slices its normalized input too.
	allocs = testing.AllocsPerRun(200, func() {
		if _, ok := l.RegisteredDomain(host); !ok {
			t.Fatal("no registered domain")
		}
	})
	if allocs != 0 {
		t.Fatalf("RegisteredDomain allocates %.1f allocs/op on a normalized host, want 0", allocs)
	}
}

func TestHasRuleBeneath(t *testing.T) {
	l := mustFromRules(t, "com", "org.nz", "*.ck", "!www.ck", "deep.rule.zz")
	cases := []struct {
		suffix string
		want   bool
	}{
		{"com", false},
		{"org.nz", false},
		{"nz", true},      // org.nz lies beneath
		{"ck", true},      // both *.ck (wildcard rooted at ck) and !www.ck
		{"rule.zz", true}, // deep.rule.zz lies beneath
		{"zz", true},      // deep.rule.zz lies beneath
		{"ule.zz", false}, // label-boundary, not substring, matching
		{"x.com", false},
		{"", false},
	}
	for _, c := range cases {
		if got := l.HasRuleBeneath(c.suffix); got != c.want {
			t.Errorf("HasRuleBeneath(%q) = %v, want %v", c.suffix, got, c.want)
		}
	}
}

func mustFromRules(t *testing.T, rules ...string) *List {
	t.Helper()
	l, err := FromRules(rules...)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func BenchmarkRegisteredDomainStart(b *testing.B) {
	l := Default()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.RegisteredDomainStart("te0-0-24.01.p.bre.ch.as15576.nts.ch")
	}
}
