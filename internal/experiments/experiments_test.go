package experiments

import (
	"context"
	"slices"
	"testing"

	"hoiho/internal/asn"
	"hoiho/internal/bdrmapit"
	"hoiho/internal/core"
	"hoiho/internal/extract"
	"hoiho/internal/itdk"
	"hoiho/internal/psl"
	"hoiho/internal/rtaa"
	"hoiho/internal/topo"
)

// testScale keeps integration tests fast while exercising the full
// pipeline; the full-size reproduction runs at Scale(1).
const testScale = Scale(0.35)

func TestEraDefinitions(t *testing.T) {
	eras := ITDKEras()
	if len(eras) != 17 {
		t.Fatalf("eras = %d, want 17", len(eras))
	}
	rtaaN, bdrN := 0, 0
	for i, e := range eras {
		if e.Index != i {
			t.Errorf("era %d index %d", i, e.Index)
		}
		switch e.Method {
		case "rtaa":
			rtaaN++
		case "bdrmapit":
			bdrN++
		default:
			t.Errorf("unknown method %q", e.Method)
		}
	}
	// The paper: 12 ITDKs used RouterToAsAssignment, 5 used bdrmapIT.
	if rtaaN != 12 || bdrN != 5 {
		t.Errorf("methods = %d rtaa, %d bdrmapit; want 12/5", rtaaN, bdrN)
	}
	if eras[0].Name != "itdk-2010-07" || eras[16].Name != "itdk-2020-01" {
		t.Errorf("era names wrong: %s .. %s", eras[0].Name, eras[16].Name)
	}
}

// trainPPV measures, over named ASN-embedding interfaces of annotated
// nodes, how often the training annotation matches the embedded ASN.
func trainPPV(world *topo.Internet, g *itdk.Graph, ann map[int]asn.ASN) float64 {
	match, total := 0, 0
	for _, n := range g.Nodes {
		if ann[n.ID] == asn.None {
			continue
		}
		for _, a := range n.Ifaces {
			ifc := world.Interface(a)
			if ifc == nil || ifc.EmbeddedASN == asn.None || ifc.Hostname == "" {
				continue
			}
			total++
			if ann[n.ID] == ifc.EmbeddedASN {
				match++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(match) / float64(total)
}

// TestMethodQualityOrdering verifies the paper's central premise on the
// same observed world: conventions learned from bdrmapIT annotations
// agree with their training data more often than those learned from
// RouterToAsAssignment (figure 6's gap, measured the way the paper does
// — over usable NCs).
func TestMethodQualityOrdering(t *testing.T) {
	list := psl.Default()
	e := ITDKEras()[16]
	world, err := topo.Build(eraConfig(e, testScale))
	if err != nil {
		t.Fatal(err)
	}
	corpus := world.TraceAll()
	al := itdk.TruthAliases(world).Degrade(1, aliasCompleteness(e))
	g := itdk.BuildGraph(corpus, al, world.Table, ptrFor(world))
	learner := &core.Learner{}

	measure := func(method string, ann map[int]asn.ASN) float64 {
		snap := itdk.FromGraph(g, ann, "cmp", method)
		items := snap.TrainingItems()
		ncs, err := learner.LearnAll(context.Background(), list, items)
		if err != nil {
			t.Fatal(err)
		}
		ppv, _, m := PPVOnTraining(extract.New(ncs, extract.UsableOnly()), items, list, world.Orgs, false)
		t.Logf("%s: ncs=%d ppv=%.3f matches=%d", method, len(ncs), ppv, m)
		return ppv
	}
	rt := measure("rtaa", rtaa.Annotate(g, world.Rel))
	an := &bdrmapit.Annotator{Graph: g, Rel: world.Rel, Orgs: world.Orgs, IXPs: ixpSet(world)}
	bd := measure("bdrmapit", an.Annotate())
	if bd <= rt {
		t.Errorf("bdrmapIT PPV (%.3f) should beat RTAA's (%.3f)", bd, rt)
	}
	if bd < 0.78 || bd > 0.97 {
		t.Errorf("bdrmapIT PPV %.3f outside plausible band", bd)
	}
	if rt < 0.55 || rt > 0.92 {
		t.Errorf("RTAA PPV %.3f outside plausible band", rt)
	}
}

// TestEraGrowth: the number of good NCs grows across the decade
// (figure 5's headline shape) and the late-era PPV lands near the
// paper's bdrmapIT band.
func TestEraGrowth(t *testing.T) {
	list := psl.Default()
	eras := ITDKEras()
	early, err := RunITDKEra(context.Background(), eras[0], testScale, list)
	if err != nil {
		t.Fatal(err)
	}
	late, err := RunITDKEra(context.Background(), eras[16], testScale, list)
	if err != nil {
		t.Fatal(err)
	}
	ce, cl := Count(early.NCs), Count(late.NCs)
	t.Logf("early: %+v late: %+v", ce, cl)
	if cl.Good <= ce.Good {
		t.Errorf("good NCs should grow: early %d late %d", ce.Good, cl.Good)
	}
	if cl.Good < 5 {
		t.Errorf("late era good = %d, too few even at test scale", cl.Good)
	}
	lateCorpus := extract.New(late.NCs, extract.UsableOnly())
	ppv, _, m := PPVOnTraining(lateCorpus, late.Items, list, late.World.Orgs, false)
	if m == 0 || ppv < 0.7 || ppv > 0.97 {
		t.Errorf("late-era PPV = %.3f over %d matches", ppv, m)
	}
	// Sibling credit never lowers PPV and usually raises it.
	sib, _, _ := PPVOnTraining(lateCorpus, late.Items, list, late.World.Orgs, true)
	if sib < ppv {
		t.Errorf("sibling credit lowered PPV: %.3f < %.3f", sib, ppv)
	}
}

// TestPDBQuality: PeeringDB-recorded training ASNs beat heuristic
// inferences (the paper's 96% PPV argument).
func TestPDBQuality(t *testing.T) {
	list := psl.Default()
	e := ITDKEras()[16]
	itdkRun, err := RunITDKEra(context.Background(), e, testScale, list)
	if err != nil {
		t.Fatal(err)
	}
	pdbRun, err := RunPDBEra(context.Background(), "pdb-test", itdkRun.World, 501, list)
	if err != nil {
		t.Fatal(err)
	}
	if len(pdbRun.NCs) == 0 {
		t.Fatal("no PDB NCs learned")
	}
	checkGolden(t, e.Name, itdkRun.NCs)
	checkGolden(t, "pdb@"+e.Name, pdbRun.NCs)
	pdbPPV, _, m := PPVOnTraining(extract.New(pdbRun.NCs, extract.UsableOnly()), pdbRun.Items, list, itdkRun.World.Orgs, false)
	itdkPPV, _, _ := PPVOnTraining(extract.New(itdkRun.NCs, extract.UsableOnly()), itdkRun.Items, list, itdkRun.World.Orgs, false)
	t.Logf("pdb=%.3f (m=%d) itdk=%.3f", pdbPPV, m, itdkPPV)
	if pdbPPV <= itdkPPV {
		t.Errorf("PDB PPV (%.3f) should exceed ITDK PPV (%.3f)", pdbPPV, itdkPPV)
	}
	if pdbPPV < 0.9 {
		t.Errorf("PDB PPV = %.3f, want >= 0.9", pdbPPV)
	}
}

// TestSection5: the modified bdrmapIT raises extracted/inferred agreement
// and its decisions are mostly correct against ground truth (table 2's
// 92.5%).
func TestSection5(t *testing.T) {
	list := psl.Default()
	run, err := RunITDKEra(context.Background(), ITDKEras()[16], testScale, list)
	if err != nil {
		t.Fatal(err)
	}
	res := RunSection5(context.Background(), run)
	t.Logf("agreement %.3f -> %.3f (%s -> %s), decisions=%d used=%d",
		res.AgreementBefore, res.AgreementAfter,
		OneIn(res.ErrOneInBefore), OneIn(res.ErrOneInAfter),
		res.Decisions, res.UsedTotal)
	if res.AgreementAfter <= res.AgreementBefore {
		t.Errorf("agreement did not improve: %.3f -> %.3f", res.AgreementBefore, res.AgreementAfter)
	}
	if res.AgreementAfter < 0.84 {
		t.Errorf("agreement after = %.3f, want >= 0.84", res.AgreementAfter)
	}
	if res.AgreementAfter-res.AgreementBefore < 0.03 {
		t.Errorf("improvement too small: %.3f -> %.3f", res.AgreementBefore, res.AgreementAfter)
	}
	if res.Decisions == 0 {
		t.Fatal("no decisions")
	}
	rows, correct, total := Table2(run, res.Result)
	if total == 0 {
		t.Fatal("no validated decisions")
	}
	frac := float64(correct) / float64(total)
	t.Logf("table2: correct %d/%d = %.3f rows=%+v", correct, total, frac, rows)
	if frac < 0.75 {
		t.Errorf("correct-decision rate = %.3f, want >= 0.75", frac)
	}
	if len(rows) == 0 {
		t.Error("no table 2 rows")
	}
}

// TestFigure7: applying usable NCs to the full PTR space matches more
// hostnames than the traceroute-observed subset (§7's 5.4K -> 22.5K).
func TestFigure7(t *testing.T) {
	list := psl.Default()
	run, err := RunITDKEra(context.Background(), ITDKEras()[16], testScale, list)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Figure7(context.Background(), run)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("observed=%d full=%d factor=%.2f", res.ObservedMatches, res.FullMatches, res.Factor)
	if res.ObservedMatches == 0 {
		t.Fatal("no observed matches")
	}
	if res.FullMatches <= res.ObservedMatches {
		t.Errorf("full space (%d) should exceed observed (%d)", res.FullMatches, res.ObservedMatches)
	}
}

// TestTable1: the taxonomy covers multiple styles and percentages sum
// to ~100 within each column.
func TestTable1(t *testing.T) {
	list := psl.Default()
	itdkRun, err := RunITDKEra(context.Background(), ITDKEras()[16], testScale, list)
	if err != nil {
		t.Fatal(err)
	}
	pdbRun, err := RunPDBEra(context.Background(), "pdb-t1", itdkRun.World, 502, list)
	if err != nil {
		t.Fatal(err)
	}
	rows := Table1(itdkRun, pdbRun)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	var usableSum, singleSum float64
	styles := 0
	for _, r := range rows {
		usableSum += r.UsablePct
		singleSum += r.SinglePct
		if r.UsableCount > 0 {
			styles++
		}
		t.Logf("%-8s usable %5.1f%% (%d)  single %5.1f%% (%d)",
			r.Style, r.UsablePct, r.UsableCount, r.SinglePct, r.SingleCount)
	}
	if usableSum < 99.0 || usableSum > 101.0 {
		t.Errorf("usable percentages sum to %.1f", usableSum)
	}
	if styles < 3 {
		t.Errorf("only %d styles represented", styles)
	}
}

// TestSuffixOrigin: most single NCs belong to the organization whose ASN
// they extract (§4's 79.5%).
func TestSuffixOrigin(t *testing.T) {
	list := psl.Default()
	run, err := RunITDKEra(context.Background(), ITDKEras()[16], testScale, list)
	if err != nil {
		t.Fatal(err)
	}
	own, other := SuffixOriginAnalysis(run)
	t.Logf("single NCs: ownOrg=%d other=%d", own, other)
	if own+other == 0 {
		t.Skip("no single NCs at this scale")
	}
	if own <= other {
		t.Errorf("most single NCs should belong to the extracted org: %d vs %d", own, other)
	}
}

// Fidelity goldens: the corpora the learner produces on fixed test-scale
// inputs, pinned by core.FingerprintNCs (suffixes, classes and regexes),
// plus the regexes of a few named suffixes so a failure shows what
// moved. They change only when the learner's output changes; a change
// that claims to keep the learned conventions must keep them. Between
// them they catch a flip of any learner default: phase 2 merging moves
// only the itdk-2020-01 corpora, the typo credit only the PeeringDB
// corpus over itdk-2015-01, phases 3 and 4 move nearly all of them.
var goldens = map[string]struct {
	fp      string
	regexes map[string][]string
}{
	"itdk-2012-01": {"b94e78a52312724f", map[string][]string{
		"bilasar.nl":   {`^.+\.as(\d+)\.bilasar\.nl$`},
		"latam-ix.de":  {`^as(\d+)\.latam-ix\.de$`},
		"mefat.com.br": {`^[a-z\d]+\.as(\d+)\.[a-z]+\.mefat\.com\.br$`, `^as(\d+)-\d+\.[a-z]+\.[a-z]+\.mefat\.com\.br$`},
	}},
	"pdb@itdk-2015-01": {"7caacc34f38e90a4", map[string][]string{
		"cagat-ix.de": {`^as(\d+)-\d+\.[a-z]+\.[a-z]+\.cagat-ix\.de$`, `^[a-z\d]+\.as(\d+)\.[a-z]+\.cagat-ix\.de$`},
		"dirin-ix.at": {`^as(\d+)\.dirin-ix\.at$`},
	}},
	"itdk-2020-01": {"413086a1c9422718", map[string][]string{
		"codutix.ch":   {`^[a-z\d]+-\d+\.[a-z]+\.as(\d+)\.codutix\.ch$`},
		"vukure-ix.ch": {`^(\d+)-[a-z\d]+-[a-z]+\.vukure-ix\.ch$`, `^(?:s)?(\d+)\.[a-z\d]+\.vukure-ix\.ch$`},
	}},
	"pdb@itdk-2020-01": {"515a7a3691819140", map[string][]string{
		"copem-ix.ch": {`^[a-z\d]+\.as(\d+)\.[a-z]+\.copem-ix\.ch$`, `^as(\d+)-\d+\.[a-z]+\.[a-z]+\.copem-ix\.ch$`},
	}},
}

// checkGolden compares a learned corpus against its golden.
func checkGolden(t *testing.T, name string, ncs []*core.NC) {
	t.Helper()
	g, ok := goldens[name]
	if !ok {
		t.Fatalf("no golden named %s", name)
	}
	if got := extract.FormatFingerprint(core.FingerprintNCs(ncs)); got != g.fp {
		t.Errorf("%s: learned corpus fingerprint %s (%d NCs), golden %s", name, got, len(ncs), g.fp)
	}
	learned := make(map[string][]string, len(ncs))
	for _, nc := range ncs {
		learned[nc.Suffix] = nc.Strings()
	}
	for suffix, want := range g.regexes {
		if got := learned[suffix]; !slices.Equal(got, want) {
			t.Errorf("%s: %s learned %q, golden %q", name, suffix, got, want)
		}
	}
}

// TestRunDeterminism: identical era runs produce identical NC sets, and
// those sets are the fidelity goldens.
func TestRunDeterminism(t *testing.T) {
	list := psl.Default()
	e := ITDKEras()[3]
	a, err := RunITDKEra(context.Background(), e, testScale, list)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunITDKEra(context.Background(), e, testScale, list)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.NCs) != len(b.NCs) {
		t.Fatalf("NC counts differ: %d vs %d", len(a.NCs), len(b.NCs))
	}
	for i := range a.NCs {
		sa, sb := a.NCs[i].Strings(), b.NCs[i].Strings()
		if a.NCs[i].Suffix != b.NCs[i].Suffix || len(sa) != len(sb) {
			t.Fatalf("NC %d differs", i)
		}
		for j := range sa {
			if sa[j] != sb[j] {
				t.Fatalf("NC %d regex %d differs: %s vs %s", i, j, sa[j], sb[j])
			}
		}
	}
	checkGolden(t, e.Name, a.NCs)

	// The PeeringDB golden learns over a later era's world, where the
	// typo credit decides a convention's class.
	e = ITDKEras()[8]
	world, err := RunITDKEra(context.Background(), e, testScale, list)
	if err != nil {
		t.Fatal(err)
	}
	pdb, err := RunPDBEra(context.Background(), "pdb-golden", world.World, 501, list)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "pdb@"+e.Name, pdb.NCs)
}

// TestAblationReasonableness compares the §5 reasonableness rule against
// "always trust the hostname" on ground truth: trusting everything must
// accept more wrong hostnames.
func TestAblationReasonableness(t *testing.T) {
	list := psl.Default()
	run, err := RunITDKEra(context.Background(), ITDKEras()[16], testScale, list)
	if err != nil {
		t.Fatal(err)
	}
	res := RunSection5(context.Background(), run)
	wrongUsed, wrongTotal := 0, 0
	for _, d := range res.Result.Decisions {
		ifc := run.World.Interface(d.Addr)
		if ifc == nil {
			continue
		}
		truth := ifc.Router.Owner
		if d.Extracted != truth && !run.World.Orgs.Siblings(d.Extracted, truth) {
			wrongTotal++
			if d.Used {
				wrongUsed++
			}
		}
	}
	t.Logf("wrong hostnames: %d, used (FP) %d", wrongTotal, wrongUsed)
	if wrongTotal == 0 {
		t.Skip("no wrong hostnames among decisions at this scale")
	}
	// "Always trust the hostname" would use all wrongTotal; the
	// reasonableness rule must reject at least some. (It cannot reject
	// all: the paper's own FPs are wrong hostnames that pass the test
	// because the extracted ASN is coincidentally a provider of the
	// actual owner, and figure-2-style supplier conventions hit exactly
	// that case.)
	if wrongUsed >= wrongTotal {
		t.Errorf("reasonableness rejected nothing: %d/%d wrong hostnames used", wrongUsed, wrongTotal)
	}
}

func BenchmarkRunEraSmall(b *testing.B) {
	list := psl.Default()
	e := ITDKEras()[16]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunITDKEra(context.Background(), e, Scale(0.2), list); err != nil {
			b.Fatal(err)
		}
	}
}
