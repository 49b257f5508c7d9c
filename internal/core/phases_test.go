package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hoiho/internal/asn"
	"hoiho/internal/rex"
)

// TestGenerateVariants checks the §3.2 generator's structural variants
// for a single hostname: exclusion modes, the one-.+-per-regex rule, and
// left-open forms.
func TestGenerateVariants(t *testing.T) {
	set, err := NewSet("example.com", []Item{
		{Hostname: "as100-fr5-ix.example.com", ASN: 100},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := set.generate()
	srcs := make(map[string]bool, len(base))
	dotCount := 0
	for _, r := range base {
		srcs[r.String()] = true
		if strings.Count(r.String(), ".+") > 1 {
			t.Errorf("regex %s has more than one .+", r)
		}
		if strings.Contains(r.String(), ".+") {
			dotCount++
		}
	}
	for _, want := range []string{
		`^as(\d+)-[^-]+-[^\.-]+\.example\.com$`, // both-delims mode
		`^as(\d+)-[^-]+-[^-]+\.example\.com$`,   // left-delim mode
		`^as(\d+)-.+\.example\.com$`,            // right .+
	} {
		if !srcs[want] {
			t.Errorf("missing variant %s (have %d variants)", want, len(srcs))
		}
	}
	if dotCount == 0 {
		t.Error("no .+ variants generated")
	}
}

func TestGenerateLeftOpenVariant(t *testing.T) {
	set, err := NewSet("nts.ch", []Item{
		{Hostname: "a.b.as15576.nts.ch", ASN: 15576},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range set.generate() {
		if r.String() == `as(\d+)\.nts\.ch$` {
			found = true
			if !r.LeftOpen() {
				t.Error("figure-2 form should be left-open")
			}
		}
	}
	if !found {
		t.Error("left-open as(\\d+) variant missing")
	}
}

func TestGenerateSkipsSuffixDigits(t *testing.T) {
	// "7" inside init7.net is part of the registered domain and must not
	// seed a candidate.
	set, err := NewSet("init7.net", []Item{
		{Hostname: "core1.init7.net", ASN: 7},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range set.generate() {
		t.Errorf("unexpected candidate %s", r)
	}
}

// TestMergePhaseProducesAlternation drives §3.3 directly.
func TestMergePhaseProducesAlternation(t *testing.T) {
	set, err := NewSet("x.com", nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pool := []*rex.Regex{
		mustParseRegex(t, `^p(\d+)\.[^\.]+\.x\.com$`),
		mustParseRegex(t, `^s(\d+)\.[^\.]+\.x\.com$`),
		mustParseRegex(t, `^(\d+)\.[^\.]+\.x\.com$`),
	}
	merged := set.mergePhase(pool)
	want := `^(?:p|s)?(\d+)\.[^\.]+\.x\.com$`
	found := false
	for _, r := range merged {
		if r.String() == want {
			found = true
		}
	}
	if !found {
		var all []string
		for _, r := range merged {
			all = append(all, r.String())
		}
		t.Errorf("merge pool missing %s:\n%s", want, strings.Join(all, "\n"))
	}
	// Originals stay in the pool (ranking decides winners).
	if len(merged) <= len(pool) {
		t.Errorf("merge produced nothing: %d <= %d", len(merged), len(pool))
	}
}

// TestClassPhaseEmbedsNarrowestClass drives §3.4 directly.
func TestClassPhaseEmbedsNarrowestClass(t *testing.T) {
	items := []Item{
		{Hostname: "100.sgw.x.com", ASN: 100},
		{Hostname: "200.os.x.com", ASN: 200},
		{Hostname: "300.me1.x.com", ASN: 300}, // digit forces [a-z\d]+
	}
	set, err := NewSet("x.com", items, Options{})
	if err != nil {
		t.Fatal(err)
	}
	embed := func(set *Set, r *rex.Regex) *rex.Regex {
		return set.embedClasses(r, set.mx.column(r))
	}
	out := embed(set, mustParseRegex(t, `^(\d+)\.[^\.]+\.x\.com$`))
	if out == nil {
		t.Fatal("no class-embedded regex")
	}
	if out.String() != `^(\d+)\.[a-z\d]+\.x\.com$` {
		t.Errorf("embedded = %s", out)
	}
	// All-alpha samples yield [a-z]+.
	alpha := []Item{
		{Hostname: "100.sgw.y.com", ASN: 100},
		{Hostname: "200.os.y.com", ASN: 200},
	}
	set2, err := NewSet("y.com", alpha, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out2 := embed(set2, mustParseRegex(t, `^(\d+)\.[^\.]+\.y\.com$`))
	if out2 == nil || out2.String() != `^(\d+)\.[a-z]+\.y\.com$` {
		t.Errorf("embedded = %v", out2)
	}
	// No exclusion tokens: nothing to do.
	if embed(set2, mustParseRegex(t, `^as(\d+)\.y\.com$`)) != nil {
		t.Error("regex without exclusions should return nil")
	}
}

// TestSelectBestPrefersFewerRegexes verifies the §3.6 rule: a lower-ATP
// NC with fewer regexes takes over when it matches at least as many
// hostnames, has at least as many TPs, and at most one extra FP.
func TestSelectBestPrefersFewerRegexes(t *testing.T) {
	set, err := NewSet("x.com", nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r1 := mustParseRegex(t, `^as(\d+)\.x\.com$`)
	r2 := mustParseRegex(t, `^gw(\d+)\.x\.com$`)
	r3 := mustParseRegex(t, `^(\d+)\.[a-z]+\.x\.com$`)
	ncs := []candidateNC{
		// Rank 1: two regexes, ATP 10 (TP 10, FP 0), 10 matches.
		{regexes: []*rex.Regex{r1, r2}, eval: Eval{TP: 10, Matches: 10}},
		// Rank 2: one regex, ATP 9 (TP 10, FP 1), 11 matches >= 10,
		// TP 10 >= 10, FP 1 <= 0+1: must take over.
		{regexes: []*rex.Regex{r3}, eval: Eval{TP: 10, FP: 1, Matches: 11}},
	}
	best := set.selectBest(ncs)
	if len(best.regexes) != 1 {
		t.Errorf("selected %d regexes, want the single-regex NC", len(best.regexes))
	}
	// With two extra FPs the takeover must NOT happen.
	ncs2 := []candidateNC{
		{regexes: []*rex.Regex{r1, r2}, eval: Eval{TP: 10, Matches: 10}},
		{regexes: []*rex.Regex{r3}, eval: Eval{TP: 10, FP: 2, Matches: 12}},
	}
	best2 := set.selectBest(ncs2)
	if len(best2.regexes) != 2 {
		t.Errorf("FP allowance violated: selected %d regexes", len(best2.regexes))
	}
	// Fewer matches: no takeover.
	ncs3 := []candidateNC{
		{regexes: []*rex.Regex{r1, r2}, eval: Eval{TP: 10, Matches: 10}},
		{regexes: []*rex.Regex{r3}, eval: Eval{TP: 9, FP: 0, Matches: 9}},
	}
	if best3 := set.selectBest(ncs3); len(best3.regexes) != 2 {
		t.Error("takeover with fewer matches")
	}
	if set.selectBest(nil) != nil {
		t.Error("empty candidate list should select nil")
	}
}

// TestSetEvalFirstMatchWins: within an NC, the first regex in set order
// decides each hostname.
func TestSetEvalFirstMatchWins(t *testing.T) {
	items := []Item{{Hostname: "as100-x.y.com", ASN: 100}}
	set, err := NewSet("y.com", items, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// First regex extracts the wrong span ("100" from a broader match is
	// correct here, so craft one that extracts a different number).
	bad := mustParseRegex(t, `as\d+-[a-z]+\.(\d+)\.y\.com$`)
	_ = bad
	wrong := mustParseRegex(t, `^as1(\d+)-[a-z]+\.y\.com$`) // extracts "00"
	right := mustParseRegex(t, `^as(\d+)-[a-z]+\.y\.com$`)
	evWrongFirst := set.Evaluate(wrong, right)
	if evWrongFirst.TP != 0 || evWrongFirst.FP != 1 {
		t.Errorf("wrong-first eval = %+v", evWrongFirst)
	}
	evRightFirst := set.Evaluate(right, wrong)
	if evRightFirst.TP != 1 || evRightFirst.FP != 0 {
		t.Errorf("right-first eval = %+v", evRightFirst)
	}
}

// TestRankByPPVAblation: under PPV ranking a high-precision, low-coverage
// regex outranks a high-ATP one.
func TestRankByPPVAblation(t *testing.T) {
	setATP, err := NewSet("x.com", nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	setPPV, err := NewSet("x.com", nil, Options{RankByPPV: true})
	if err != nil {
		t.Fatal(err)
	}
	a := scored{regex: mustParseRegex(t, `^a(\d+)\.x\.com$`), eval: Eval{TP: 10, FP: 3, Matches: 13}}
	b := scored{regex: mustParseRegex(t, `^b(\d+)\.x\.com$`), eval: Eval{TP: 3, Matches: 3}}
	c1 := []scored{a, b}
	setATP.rank(c1)
	if c1[0].regex != a.regex {
		t.Error("ATP ranking should prefer the high-ATP regex")
	}
	c2 := []scored{a, b}
	setPPV.rank(c2)
	if c2[0].regex != b.regex {
		t.Error("PPV ranking should prefer the perfect-precision regex")
	}
}

// TestTruncateCapsCandidates: the candidate pool respects MaxCandidates.
func TestTruncateCapsCandidates(t *testing.T) {
	set, err := NewSet("x.com", nil, Options{MaxCandidates: 3})
	if err != nil {
		t.Fatal(err)
	}
	cands := make([]scored, 10)
	for i := range cands {
		cands[i] = scored{regex: mustParseRegex(t, fmt.Sprintf(`^v%d(\d+)\.x\.com$`, i))}
	}
	if got := set.truncate(cands); len(got) != 3 {
		t.Errorf("truncate -> %d, want 3", len(got))
	}
}

// TestUniqueExtractedASNs exercises the helper behind §4's unique-ASN
// thresholds, including typo-credited extractions parsing to the
// extracted (not training) value.
func TestUniqueExtractedASNs(t *testing.T) {
	items := []Item{
		{Hostname: "as100.x.com", ASN: 100},
		{Hostname: "as200.x.com", ASN: 200},
		{Hostname: "as24940.x.com", ASN: 20940}, // typo credit: extracted 24940
	}
	set, err := NewSet("x.com", items, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := mustParseRegex(t, `^as(\d+)\.x\.com$`)
	got, err := set.uniqueExtractedASNs(context.Background(), []*rex.Regex{r})
	if err != nil {
		t.Fatal(err)
	}
	want := []asn.ASN{100, 200, 24940}
	if len(got) != len(want) {
		t.Fatalf("unique = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("unique = %v, want %v", got, want)
		}
	}
}

// TestEvaluateATPIdentity: property over random eval outcomes.
func TestEvaluateATPIdentity(t *testing.T) {
	items := startStyleItems(30)
	// Corrupt a third of training ASNs to force FPs and FNs.
	for i := range items {
		if i%3 == 0 {
			items[i].ASN = asn.ASN(90000 + i)
		}
	}
	set, err := NewSet("example.net", items, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := mustParseRegex(t, `^as(\d+)-[a-z]+-\d\.example\.net$`)
	ev, exts := set.EvaluateDetailed(r)
	tp, fp, fn := 0, 0, 0
	for _, e := range exts {
		switch e.Outcome {
		case OutcomeTP:
			tp++
		case OutcomeFP:
			fp++
		case OutcomeFN:
			fn++
		}
	}
	if tp != ev.TP || fp != ev.FP || fn != ev.FN {
		t.Errorf("detailed (%d/%d/%d) != aggregate (%d/%d/%d)", tp, fp, fn, ev.TP, ev.FP, ev.FN)
	}
	if ev.ATP() != ev.TP-ev.FP-ev.FN {
		t.Error("ATP identity broken")
	}
	if ev.Matches != ev.TP+ev.FP {
		t.Error("Matches != TP+FP")
	}
}

func TestOutcomeString(t *testing.T) {
	if OutcomeTP.String() != "TP" || OutcomeFP.String() != "FP" ||
		OutcomeFN.String() != "FN" || OutcomeNone.String() != "-" {
		t.Error("Outcome strings wrong")
	}
}

// TestGenerateDedupeKey: for every candidate phase 1 assembles, the key
// generate dedupes on is the String of the regex New or NewOpen builds
// from it. Each candidate goes into a fresh pool, so add builds it and
// the pool's one key is that String. Every digit run seeds candidates
// here, congruent or not, for more shapes than generate would try.
func TestGenerateDedupeKey(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sets := map[string][]Item{
		"equinix.com": figure4Items(),
		"nts.ch":      figure2Items(),
		"rand.net":    randomItems(rng, 80),
	}
	for suffix, items := range sets {
		set, err := NewSet(suffix, items, Options{})
		if err != nil {
			t.Fatal(err)
		}
		built := 0
		for i := 0; i < set.Len(); i++ {
			name := set.ar.name(i)
			sufParts, _ := name.SuffixParts(suffix)
			sufStart := len(name.Parts) - sufParts
			if sufStart <= 0 {
				continue
			}
			sufLit := name.Full[name.Parts[sufStart].Start-1:]
			for _, run := range set.ar.runsOf(i) {
				if run.Part >= sufStart {
					continue
				}
				k := run.Part
				part := name.Parts[k]
				pre, post := part.Text[:run.Start-part.Start], part.Text[run.End()-part.Start:]
				for _, mode := range []exclMode{exclBoth, exclLeft, exclRight} {
					for _, left := range []string{"full", "dotplus", "open"} {
						for _, right := range []string{"full", "dotplus"} {
							g := &generator{seen: make(map[string]*rex.Regex)}
							set.assemble(g, name.Parts, k, pre, post, sufStart, sufLit, mode, left, right)
							for key, r := range g.seen {
								built++
								if string(g.key) != key || r.String() != key {
									t.Fatalf("%s: key %q, regex renders %q", name.Full, g.key, r.String())
								}
							}
						}
					}
				}
			}
		}
		if built == 0 {
			t.Fatalf("%s: no candidates assembled", suffix)
		}
	}
}
