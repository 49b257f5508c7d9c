package core

import (
	"context"
	"fmt"
	"net/netip"
	"slices"
	"testing"

	"hoiho/internal/asn"
	"hoiho/internal/psl"
)

// learnT runs Set.Learn with a background context, failing the test on
// error; the pre-context call sites read the same as before.
func learnT(tb testing.TB, s *Set) *NC {
	tb.Helper()
	nc, err := s.Learn(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	return nc
}

// startStyleItems fabricates a clean start-style convention
// ("as<ASN>-<pop>-<n>.example.net") over n distinct neighbor ASNs.
func startStyleItems(n int) []Item {
	pops := []string{"nyc", "lax", "fra", "lhr", "sin", "syd", "ams", "cdg"}
	items := make([]Item, 0, n)
	for i := 0; i < n; i++ {
		a := asn.ASN(6000 + i*13)
		items = append(items, Item{
			Hostname: fmt.Sprintf("as%d-%s-%d.example.net", a, pops[i%len(pops)], i%4),
			ASN:      a,
		})
	}
	return items
}

func TestLearnStartStyleConvention(t *testing.T) {
	set, err := NewSet("example.net", startStyleItems(12), Options{})
	if err != nil {
		t.Fatal(err)
	}
	nc := learnT(t, set)
	if nc == nil {
		t.Fatal("no NC learned")
	}
	if nc.Eval.TP != 12 || nc.Eval.FP != 0 || nc.Eval.FN != 0 {
		t.Errorf("TP/FP/FN = %d/%d/%d, want 12/0/0 (%v)",
			nc.Eval.TP, nc.Eval.FP, nc.Eval.FN, nc.Strings())
	}
	if nc.Class != Good {
		t.Errorf("class = %v, want good", nc.Class)
	}
	if nc.Single {
		t.Error("multi-ASN NC must not be single")
	}
	if got := StyleOf(nc); got != StyleStart {
		t.Errorf("style = %v, want start (%v)", got, nc.Strings())
	}
}

func TestLearnNoApparentASNs(t *testing.T) {
	items := []Item{
		{Hostname: "core1.nyc.example.net", ASN: 100},
		{Hostname: "edge2.lax.example.net", ASN: 200},
		{Hostname: "lo0.fra.example.net", ASN: 300},
		{Hostname: "xe0.lhr.example.net", ASN: 400},
	}
	set, err := NewSet("example.net", items, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if nc := learnT(t, set); nc != nil {
		t.Errorf("learned NC from ASN-free hostnames: %v", nc.Strings())
	}
}

func TestNewSetFilters(t *testing.T) {
	items := []Item{
		{Hostname: "as100.example.net", ASN: 100},
		{Hostname: "as200.other.org", ASN: 200},      // wrong suffix
		{Hostname: "as300.example.net", ASN: 0},      // no training ASN
		{Hostname: "bad host.example.net", ASN: 400}, // unparseable
	}
	set, err := NewSet("example.net", items, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 1 {
		t.Errorf("Len = %d, want 1", set.Len())
	}
	if _, err := NewSet("", items, Options{}); err == nil {
		t.Error("empty suffix should error")
	}
}

func TestLearnerMinItems(t *testing.T) {
	l := &Learner{}
	nc, err := l.LearnSuffix(context.Background(), "example.net", startStyleItems(3))
	if err != nil {
		t.Fatal(err)
	}
	if nc != nil {
		t.Error("3 items is below the default minimum of 4")
	}
	nc, err = l.LearnSuffix(context.Background(), "example.net", startStyleItems(4))
	if err != nil {
		t.Fatal(err)
	}
	if nc == nil {
		t.Error("4 items should learn")
	}
}

func TestLearnAllGroupsBySuffix(t *testing.T) {
	var items []Item
	items = append(items, startStyleItems(8)...)
	for i := 0; i < 8; i++ {
		a := asn.ASN(9000 + i*7)
		items = append(items, Item{
			Hostname: fmt.Sprintf("%d.port%d.ixp.org.nz", a, i),
			ASN:      a,
		})
	}
	// A suffix with no convention.
	for i := 0; i < 6; i++ {
		items = append(items, Item{
			Hostname: fmt.Sprintf("host%d.plain.com", i),
			ASN:      asn.ASN(500 + i),
		})
	}
	l := &Learner{}
	ncs, err := l.LearnAll(context.Background(), psl.Default(), items)
	if err != nil {
		t.Fatal(err)
	}
	if len(ncs) != 2 {
		t.Fatalf("learned %d NCs, want 2", len(ncs))
	}
	// Sorted by suffix.
	if ncs[0].Suffix != "example.net" || ncs[1].Suffix != "ixp.org.nz" {
		t.Errorf("suffixes = %s, %s", ncs[0].Suffix, ncs[1].Suffix)
	}
	if ncs[1].Eval.TP != 8 {
		t.Errorf("ixp TP = %d (%v)", ncs[1].Eval.TP, ncs[1].Strings())
	}
	if StyleOf(ncs[1]) != StyleBare {
		t.Errorf("ixp style = %v (%v)", StyleOf(ncs[1]), ncs[1].Strings())
	}
	if _, err := l.LearnAll(context.Background(), nil, items); err == nil {
		t.Error("nil PSL should error")
	}
}

func TestLearnMixedFormatsNeedsSet(t *testing.T) {
	// Two formats under one suffix: phase 4 must combine them.
	var items []Item
	for i := 0; i < 6; i++ {
		a := asn.ASN(3000 + i*11)
		items = append(items, Item{
			Hostname: fmt.Sprintf("as%d-pop%d.mix.net", a, i),
			ASN:      a,
		})
	}
	for i := 0; i < 6; i++ {
		a := asn.ASN(7000 + i*17)
		items = append(items, Item{
			Hostname: fmt.Sprintf("xe%d.cust.as%d.mix.net", i, a),
			ASN:      a,
		})
	}
	set, err := NewSet("mix.net", items, Options{})
	if err != nil {
		t.Fatal(err)
	}
	nc := learnT(t, set)
	if nc == nil {
		t.Fatal("no NC learned")
	}
	if nc.Eval.TP != 12 || nc.Eval.FN != 0 {
		t.Errorf("TP/FN = %d/%d, want 12/0 (%v)", nc.Eval.TP, nc.Eval.FN, nc.Strings())
	}
	if StyleOf(nc) != StyleComplex && len(nc.Regexes) == 1 {
		t.Errorf("unexpected single-regex NC: %v", nc.Strings())
	}
}

func TestLearnAblationNoSets(t *testing.T) {
	var items []Item
	for i := 0; i < 6; i++ {
		a := asn.ASN(3000 + i*11)
		items = append(items, Item{Hostname: fmt.Sprintf("as%d-pop%d.mix.net", a, i), ASN: a})
	}
	for i := 0; i < 4; i++ {
		a := asn.ASN(7000 + i*17)
		items = append(items, Item{Hostname: fmt.Sprintf("xe%d.cust.as%d.mix.net", i, a), ASN: a})
	}
	full, err := NewSet("mix.net", items, Options{})
	if err != nil {
		t.Fatal(err)
	}
	noSets, err := NewSet("mix.net", items, Options{DisableSets: true})
	if err != nil {
		t.Fatal(err)
	}
	ncFull, ncSingle := learnT(t, full), learnT(t, noSets)
	if ncFull == nil || ncSingle == nil {
		t.Fatal("learning failed")
	}
	if len(ncSingle.Regexes) != 1 {
		t.Errorf("DisableSets produced %d regexes", len(ncSingle.Regexes))
	}
	if ncFull.Eval.ATP() < ncSingle.Eval.ATP() {
		t.Errorf("sets should not lower ATP: %d < %d", ncFull.Eval.ATP(), ncSingle.Eval.ATP())
	}
}

func TestLearnAblationTypoCredit(t *testing.T) {
	items := figure4Items()
	with, err := NewSet("equinix.com", items, Options{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := NewSet("equinix.com", items, Options{DisableTypoCredit: true})
	if err != nil {
		t.Fatal(err)
	}
	ncWith, ncWithout := learnT(t, with), learnT(t, without)
	if ncWith == nil || ncWithout == nil {
		t.Fatal("learning failed")
	}
	// Row h (22822 vs 22282) is only a TP with typo credit.
	if ncWith.Eval.TP <= ncWithout.Eval.TP {
		t.Errorf("typo credit should add TPs: with=%d without=%d",
			ncWith.Eval.TP, ncWithout.Eval.TP)
	}
}

func TestCongruent(t *testing.T) {
	cases := []struct {
		ext   string
		train asn.ASN
		typo  bool
		want  bool
	}{
		{"701", 701, true, true},
		{"701", 701, false, true},
		{"24940", 20940, true, true},   // substitution, first/last match
		{"24940", 20940, false, false}, // no credit
		{"22822", 22282, true, true},   // transposition
		{"605", 6057, true, false},     // last digit differs
		{"85", 855, true, false},       // too short
		{"8074", 8075, true, false},    // last digit differs
		{"8069", 8075, true, false},    // distance 2
		{"15576", 15576, true, true},
		{"155760", 15576, true, false}, // insertion changes last char? 0 vs 6: yes
		{"115576", 15576, true, true},  // insertion, first 1=1 last 6=6
	}
	for _, c := range cases {
		if got := Congruent(c.ext, c.train, c.typo); got != c.want {
			t.Errorf("Congruent(%q,%d,%v) = %v, want %v", c.ext, c.train, c.typo, got, c.want)
		}
	}
}

func TestGroupItems(t *testing.T) {
	items := []Item{
		{Hostname: "as1.a.example.com", ASN: 1},
		{Hostname: "as2.b.example.com", ASN: 2},
		{Hostname: "as3.other.net", ASN: 3},
		{Hostname: "com", ASN: 4}, // bare suffix: dropped
	}
	groups, suffixes := GroupItems(psl.Default(), items)
	if len(suffixes) != 2 || suffixes[0] != "example.com" || suffixes[1] != "other.net" {
		t.Fatalf("suffixes = %v", suffixes)
	}
	if len(groups["example.com"]) != 2 {
		t.Errorf("example.com group = %v", groups["example.com"])
	}
}

// TestGroupItemsBuckets: each bucket holds its suffix's items in input
// order, and appending to one bucket leaves its neighbours alone.
func TestGroupItemsBuckets(t *testing.T) {
	var items []Item
	for i := 0; i < 6; i++ {
		items = append(items,
			Item{Hostname: fmt.Sprintf("as%d.b.example.com", i), ASN: asn.ASN(100 + i)},
			Item{Hostname: fmt.Sprintf("as%d.other.net", i), ASN: asn.ASN(200 + i)})
	}
	groups, suffixes := GroupItems(psl.Default(), items)
	if len(suffixes) != 2 {
		t.Fatalf("suffixes = %v", suffixes)
	}
	for k, suf := range []string{"example.com", "other.net"} {
		g := groups[suf]
		if len(g) != 6 {
			t.Fatalf("%s bucket has %d items, want 6", suf, len(g))
		}
		for i, it := range g {
			if want := items[2*i+k]; it != want {
				t.Errorf("%s bucket[%d] = %v, want %v", suf, i, it, want)
			}
		}
	}
	_ = append(groups["example.com"], Item{Hostname: "as9.clobber.example.com", ASN: 9})
	if groups["other.net"][0] != items[1] {
		t.Errorf("appending to example.com's bucket overwrote other.net's: %v", groups["other.net"][0])
	}
}

// TestLearnOnScratchMatchesFresh: a worker's scratch carries nothing
// from one suffix to the next. Suffixes of different sizes and shapes,
// learned in turn on one scratch in both orders, each learn the NC a
// fresh Set learns.
func TestLearnOnScratchMatchesFresh(t *testing.T) {
	type suffixItems struct {
		suffix string
		items  []Item
	}
	var mixed []Item
	for i := 0; i < 6; i++ {
		mixed = append(mixed,
			Item{Hostname: fmt.Sprintf("as%d-pop%d.mix.net", 3000+i*11, i), ASN: asn.ASN(3000 + i*11)},
			Item{Hostname: fmt.Sprintf("xe%d.cust.as%d.mix.net", i, 7000+i*17), ASN: asn.ASN(7000 + i*17)})
	}
	var ipish []Item
	for i := 0; i < 10; i++ {
		a := 64500 + i
		ipish = append(ipish, Item{
			Hostname: fmt.Sprintf("10-0-0-%d.as%d.edge.ipish.org", i, a),
			Addr:     netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}),
			ASN:      asn.ASN(a),
		})
	}
	sets := []suffixItems{
		{"example.net", startStyleItems(60)},
		{"mix.net", mixed},
		{"equinix.com", figure4Items()},
		{"ipish.org", ipish},
		{"example.net", startStyleItems(5)},
	}
	fresh := make([]*NC, len(sets))
	for i, si := range sets {
		set, err := NewSet(si.suffix, si.items, Options{})
		if err != nil {
			t.Fatal(err)
		}
		fresh[i] = learnT(t, set)
	}
	for _, order := range [][]int{{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}} {
		sc := new(scratch)
		for _, i := range order {
			set, err := newSet(sets[i].suffix, sets[i].items, Options{}, sc)
			if err != nil {
				t.Fatal(err)
			}
			got, want := learnT(t, set), fresh[i]
			if (got == nil) != (want == nil) {
				t.Fatalf("order %v, set %d: on scratch learned %v, fresh %v", order, i, got, want)
			}
			if got == nil {
				continue
			}
			if !slices.Equal(got.Strings(), want.Strings()) || got.Eval != want.Eval ||
				got.Class != want.Class || got.Single != want.Single {
				t.Errorf("order %v, set %d: on scratch %v %+v %v, fresh %v %+v %v", order, i,
					got.Strings(), got.Eval, got.Class, want.Strings(), want.Eval, want.Class)
			}
		}
	}
}

func TestNCExtract(t *testing.T) {
	nc := styleNC(t, "equinix.com",
		`^(?:p|s)?(\d+)\.[a-z\d]+\.equinix\.com$`,
		`^(\d+)-.+\.equinix\.com$`)
	cases := []struct {
		host, want string
		ok         bool
	}{
		{"p714.sgw.equinix.com", "714", true},
		{"24482-fr5-ix.equinix.com", "24482", true},
		{"netflix.zh2.corp.eu.equinix.com", "", false},
	}
	for _, c := range cases {
		got, ok := nc.Extract(c.host)
		if got != c.want || ok != c.ok {
			t.Errorf("Extract(%q) = %q,%v want %q,%v", c.host, got, ok, c.want, c.ok)
		}
	}
}

func TestEvalIPFragmentStillFPWhenEqual(t *testing.T) {
	// Training ASN exactly equals an IP octet: extraction from the IP
	// span must stay FP.
	items := []Item{{
		Hostname: "209-201-58-109.dia.stat.centurylink.net",
		Addr:     netip.MustParseAddr("209.201.58.109"),
		ASN:      209,
	}}
	set, err := NewSet("centurylink.net", items, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := mustParseRegex(t, `^(\d+)-.+\.centurylink\.net$`)
	ev := set.Evaluate(r)
	if ev.FP != 1 || ev.TP != 0 || ev.FN != 0 {
		t.Errorf("TP/FP/FN = %d/%d/%d, want 0/1/0", ev.TP, ev.FP, ev.FN)
	}
}

func BenchmarkLearnFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		set, err := NewSet("equinix.com", figure4Items(), Options{})
		if err != nil {
			b.Fatal(err)
		}
		if nc := learnT(b, set); nc == nil {
			b.Fatal("no NC")
		}
	}
}

func BenchmarkLearn100Items(b *testing.B) {
	items := startStyleItems(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set, err := NewSet("example.net", items, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if nc := learnT(b, set); nc == nil {
			b.Fatal("no NC")
		}
	}
}

func BenchmarkEvaluate(b *testing.B) {
	set, err := NewSet("example.net", startStyleItems(1000), Options{})
	if err != nil {
		b.Fatal(err)
	}
	r := mustParseRegex(b, `^as(\d+)-[a-z]+-\d+\.example\.net$`)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		set.Evaluate(r)
	}
}
