package core

// Tests in this file reproduce the paper's worked examples: the nts.ch
// supplier-labelled suffix (figure 2), the apparent-ASN edge cases
// (figure 3), and the Equinix four-phase walkthrough (figure 4).

import (
	"net/netip"
	"testing"

	"hoiho/internal/asn"
)

// figure4Items is the training data of figure 4 (rows a-p).
func figure4Items() []Item {
	return []Item{
		{Hostname: "109.sgw.equinix.com", ASN: 109},               // a
		{Hostname: "714.os.equinix.com", ASN: 714},                // b
		{Hostname: "714.me1.equinix.com", ASN: 714},               // c
		{Hostname: "p714.sgw.equinix.com", ASN: 714},              // d
		{Hostname: "s714.sgw.equinix.com", ASN: 714},              // e
		{Hostname: "p24115.mel.equinix.com", ASN: 24115},          // f
		{Hostname: "s24115.tyo.equinix.com", ASN: 24115},          // g
		{Hostname: "22822-2.tyo.equinix.com", ASN: 22282},         // h (transposition typo)
		{Hostname: "24482-fr5-ix.equinix.com", ASN: 24482},        // i
		{Hostname: "54827-dc5-ix2.equinix.com", ASN: 54827},       // j
		{Hostname: "55247-ch3-ix.equinix.com", ASN: 55247},        // k
		{Hostname: "netflix.zh2.corp.eu.equinix.com", ASN: 2906},  // l
		{Hostname: "ipv4.dosarrest.eqix.equinix.com", ASN: 19324}, // m
		{Hostname: "8069.tyo.equinix.com", ASN: 8075},             // n (sibling in hostname)
		{Hostname: "8074.hkg.equinix.com", ASN: 8075},             // o
		{Hostname: "45437-sy1-ix.equinix.com", ASN: 55923},        // p
	}
}

func TestFigure4Pipeline(t *testing.T) {
	set, err := NewSet("equinix.com", figure4Items(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	nc := learnT(t, set)
	if nc == nil {
		t.Fatal("no NC learned")
	}
	t.Logf("learned NC: %v (TP=%d FP=%d FN=%d ATP=%d)",
		nc.Strings(), nc.Eval.TP, nc.Eval.FP, nc.Eval.FN, nc.Eval.ATP())

	// The paper's NC #7 scores TP=11, FP=3, FN=0, ATP=8 over these rows.
	if nc.Eval.ATP() != 8 {
		t.Errorf("ATP = %d, want 8", nc.Eval.ATP())
	}
	if nc.Eval.TP != 11 || nc.Eval.FP != 3 || nc.Eval.FN != 0 {
		t.Errorf("TP/FP/FN = %d/%d/%d, want 11/3/0", nc.Eval.TP, nc.Eval.FP, nc.Eval.FN)
	}
	if len(nc.Regexes) != 2 {
		t.Errorf("regex count = %d, want 2: %v", len(nc.Regexes), nc.Strings())
	}
	// Phase 2+3 produce the merged, class-embedded first regex.
	want0 := `^(?:p|s)?(\d+)\.[a-z\d]+\.equinix\.com$`
	want1 := `^(\d+)-.+\.equinix\.com$`
	got := nc.Strings()
	if len(got) == 2 && (got[0] != want0 || got[1] != want1) {
		t.Errorf("regexes = %v, want [%s %s]", got, want0, want1)
	}
	// All 16 rows classified exactly as the figure shows.
	_, exts := set.EvaluateDetailed(nc.Regexes...)
	wantOutcome := []Outcome{
		OutcomeTP, OutcomeTP, OutcomeTP, OutcomeTP, OutcomeTP, // a-e
		OutcomeTP, OutcomeTP, OutcomeTP, OutcomeTP, OutcomeTP, // f-j
		OutcomeTP,                // k
		OutcomeNone, OutcomeNone, // l, m
		OutcomeFP, OutcomeFP, OutcomeFP, // n, o, p
	}
	for i, ext := range exts {
		if ext.Outcome != wantOutcome[i] {
			t.Errorf("row %c (%s): outcome = %v, want %v",
				'a'+i, ext.Item.Hostname, ext.Outcome, wantOutcome[i])
		}
	}
	// Good: >= 3 unique congruent ASNs (109, 714, 24115, ...) with PPV
	// 11/14 >= 0.8? 0.786 < 0.8, so this tiny sample is promising.
	if nc.Eval.UniqueTP < 3 {
		t.Errorf("UniqueTP = %d", nc.Eval.UniqueTP)
	}
	if nc.Class != Promising {
		t.Errorf("class = %v, want promising (PPV=%.3f)", nc.Class, nc.Eval.PPV())
	}
	if nc.Single {
		t.Error("figure 4 NC should not be single")
	}
}

func TestFigure4Phase1Regexes(t *testing.T) {
	// The base generator must produce the figure's phase-1 regexes #1-#4.
	set, err := NewSet("equinix.com", figure4Items(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := set.generate()
	got := make(map[string]bool, len(base))
	for _, r := range base {
		got[r.String()] = true
	}
	for _, want := range []string{
		`^(\d+)\.[^\.]+\.equinix\.com$`,  // #1
		`^p(\d+)\.[^\.]+\.equinix\.com$`, // #2
		`^s(\d+)\.[^\.]+\.equinix\.com$`, // #3
		`^(\d+)-.+\.equinix\.com$`,       // #4
	} {
		if !got[want] {
			t.Errorf("base pool missing %s", want)
		}
	}
}

func TestFigure4PhaseATPs(t *testing.T) {
	// The figure reports per-phase ATPs: #1..#3 = -7, #4 = -4, #5 = 1,
	// #6 = 1, #7 = 8.
	set, err := NewSet("equinix.com", figure4Items(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		srcs []string
		atp  int
	}{
		{[]string{`^(\d+)\.[^\.]+\.equinix\.com$`}, -7},
		{[]string{`^p(\d+)\.[^\.]+\.equinix\.com$`}, -7},
		{[]string{`^s(\d+)\.[^\.]+\.equinix\.com$`}, -7},
		{[]string{`^(\d+)-.+\.equinix\.com$`}, -4},
		{[]string{`^(?:p|s)?(\d+)\.[^\.]+\.equinix\.com$`}, 1},
		{[]string{`^(?:p|s)?(\d+)\.[a-z\d]+\.equinix\.com$`}, 1},
		{[]string{`^(?:p|s)?(\d+)\.[a-z\d]+\.equinix\.com$`, `^(\d+)-.+\.equinix\.com$`}, 8},
	}
	for _, c := range cases {
		regexes := parseAll(t, c.srcs)
		ev := set.Evaluate(regexes...)
		if ev.ATP() != c.atp {
			t.Errorf("ATP(%v) = %d (TP=%d FP=%d FN=%d), want %d",
				c.srcs, ev.ATP(), ev.TP, ev.FP, ev.FN, c.atp)
		}
	}
}

// figure2Items is the six figure-2 rows plus additional hostnames in the
// same convention with varied depth, standing in for the structural
// diversity of the full ITDK training data (on the six rows alone, a
// depth-specific regex legitimately scores a higher ATP).
func figure2Items() []Item {
	return []Item{
		{Hostname: "ge0-2.01.p.ost.ch.as15576.nts.ch", ASN: 15576},
		{Hostname: "lo1000.01.lns.czh.ch.as15576.nts.ch", ASN: 15576},
		{Hostname: "te0-0-24.01.p.bre.ch.as15576.nts.ch", ASN: 15576},
		{Hostname: "01.r.cba.ch.bl.cust.as15576.nts.ch", ASN: 44879},
		{Hostname: "02.r.czh.ch.sda.cust.as15576.nts.ch", ASN: 51768},
		{Hostname: "01.r.cbs.ch.wwc.cust.as15576.nts.ch", ASN: 206616},
		{Hostname: "xe1.czh.as15576.nts.ch", ASN: 15576},
		{Hostname: "lo0.core.zrh.ch.as15576.nts.ch", ASN: 15576},
		{Hostname: "hu0-1-0-3.01.p.gva.ch.x.as15576.nts.ch", ASN: 15576},
		{Hostname: "po1.agg.bsl.as15576.nts.ch", ASN: 15576},
		{Hostname: "te2-2.02.lns.ber.ch.de.as15576.nts.ch", ASN: 15576},
	}
}

func TestFigure2SupplierConvention(t *testing.T) {
	items := figure2Items()
	set, err := NewSet("nts.ch", items, Options{})
	if err != nil {
		t.Fatal(err)
	}
	nc := learnT(t, set)
	if nc == nil {
		t.Fatal("no NC learned")
	}
	t.Logf("learned NC: %v (TP=%d FP=%d FN=%d)", nc.Strings(), nc.Eval.TP, nc.Eval.FP, nc.Eval.FN)
	// Whatever shape the learner picks, every extraction must be the
	// supplier's ASN: a single-organization convention that is not usable
	// for neighbor inference.
	matched := 0
	for _, it := range items {
		got, ok := nc.Extract(it.Hostname)
		if !ok {
			continue
		}
		matched++
		if got != "15576" {
			t.Errorf("Extract(%s) = %q, want 15576", it.Hostname, got)
		}
	}
	if matched < 8 {
		t.Errorf("NC matched %d hostnames, want >= 8", matched)
	}
	if !nc.Single {
		t.Error("nts.ch NC should be single (one organization's ASN)")
	}
	if nc.Class.Usable() {
		t.Errorf("class = %v; supplier-labelled NC must not be usable", nc.Class)
	}
	if nc.Eval.UniqueExtract != 1 {
		t.Errorf("UniqueExtract = %d, want 1", nc.Eval.UniqueExtract)
	}

	// The paper's displayed regex scores TP=3, FP=3 on the original six
	// rows (figure 2): it extracts the supplier ASN even for addresses
	// supplied to neighbor routers.
	six, err := NewSet("nts.ch", items[:6], Options{})
	if err != nil {
		t.Fatal(err)
	}
	paperRegex := mustParseRegex(t, `as(\d+)\.nts\.ch$`)
	ev, exts := six.EvaluateDetailed(paperRegex)
	if ev.TP != 3 || ev.FP != 3 || ev.FN != 0 {
		t.Errorf("paper regex TP/FP/FN = %d/%d/%d, want 3/3/0", ev.TP, ev.FP, ev.FN)
	}
	for _, ext := range exts {
		if ext.ASN != "15576" {
			t.Errorf("paper regex extracted %q from %s", ext.ASN, ext.Item.Hostname)
		}
	}
	if ev.UniqueExtract != 1 {
		t.Errorf("paper regex UniqueExtract = %d, want 1", ev.UniqueExtract)
	}
	if six.Classify(ev).Usable() {
		t.Error("paper regex on figure-2 rows must not be usable")
	}
}

func TestFigure3aTypoCongruence(t *testing.T) {
	cases := []struct {
		host  string
		train asn.ASN
		// congruent marks hostnames whose apparent ASN the paper's rule
		// accepts (matching first/last digit, length >= 3, distance 1).
		apparent bool
	}{
		{"201.atm2-0.vr1.tor2.alter.net", 701, false},
		{"te-4-0-0-85.53w.ba07.mctn.nb.aliant.net", 855, false},
		{"mlg4bras1-be127-605.antel.net.uy", 6057, false},
		{"as24940.akl-ix.nz", 20940, true},
		{"as202073.swissix.ch", 205073, true},
		{"gw-as20732.init7.net", 207032, true},
	}
	for _, c := range cases {
		name, err := parseName(c.host)
		if err != nil {
			t.Fatal(err)
		}
		runs := name.DigitRuns()
		digits := c.train.Digits()
		if got := hasApparentASN(runs, nil, digits, true); got != c.apparent {
			t.Errorf("hasApparentASN(%s, %d) = %v, want %v", c.host, c.train, got, c.apparent)
		}
		// Without typo credit every one is non-apparent.
		if hasApparentASN(runs, nil, digits, false) {
			t.Errorf("%s: apparent without typo credit", c.host)
		}
	}
}

func TestFigure3bIPFragmentIsFP(t *testing.T) {
	// Training ASN 122 coincides with the last octet of the interface
	// address embedded in the hostname: extracting it must count FP, and
	// it must not count as an apparent ASN.
	items := []Item{
		{
			Hostname: "50-236-216-122-static.hfc.comcastbusiness.net",
			Addr:     netip.MustParseAddr("50.236.216.122"),
			ASN:      122,
		},
	}
	set, err := NewSet("comcastbusiness.net", items, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if set.ar.apparent[0] {
		t.Error("IP fragment counted as apparent ASN")
	}
	// A regex that would extract the octet: FP.
	r := mustParseRegex(t, `^[^-]+-[^-]+-[^-]+-(\d+)-[^\.]+\.hfc\.comcastbusiness\.net$`)
	ev := set.Evaluate(r)
	if ev.FP != 1 || ev.TP != 0 {
		t.Errorf("TP/FP = %d/%d, want 0/1", ev.TP, ev.FP)
	}
	// And the generator must not seed regexes from the IP fragment.
	if base := set.generate(); len(base) != 0 {
		t.Errorf("generator built %d regexes from an IP fragment", len(base))
	}
}
