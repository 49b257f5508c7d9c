// Package hoiho_test holds the benchmark harness that regenerates every
// table and figure of the paper's evaluation (see DESIGN.md's
// per-experiment index). Benchmarks run the same pipelines as
// cmd/experiments at a reduced topology scale so that -bench=. completes
// quickly; run `go run ./cmd/experiments -scale 1` for the full-size
// report (EXPERIMENTS.md).
package hoiho_test

import (
	"bytes"
	"context"
	"testing"

	"hoiho/internal/asnames"
	"hoiho/internal/core"
	"hoiho/internal/experiments"
	"hoiho/internal/extract"
	"hoiho/internal/psl"
)

// benchScale keeps -bench=. fast; shapes are unchanged.
const benchScale = experiments.Scale(0.25)

func lastEraRun(b *testing.B) *experiments.Run {
	b.Helper()
	eras := experiments.ITDKEras()
	run, err := experiments.RunITDKEra(context.Background(), eras[len(eras)-1], benchScale, psl.Default())
	if err != nil {
		b.Fatal(err)
	}
	return run
}

// figure4Items is the training data of the paper's worked example.
func figure4Items() []core.Item { return experiments.Figure4Items() }

// BenchmarkFigure4 regenerates the paper's four-phase walkthrough: the
// full learning pipeline on the figure's 16 hostnames, ending at ATP 8.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		set, err := core.NewSet("equinix.com", figure4Items(), core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		nc, err := set.Learn(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if nc == nil || nc.Eval.ATP() != 8 {
			b.Fatalf("NC = %+v", nc)
		}
		if i == 0 {
			b.Logf("figure 4 NC: %v (ATP=%d)", nc.Strings(), nc.Eval.ATP())
		}
	}
}

// BenchmarkFigure5 regenerates the NC-classification series over all 17
// ITDK eras plus the two PeeringDB snapshots.
func BenchmarkFigure5(b *testing.B) {
	list := psl.Default()
	for i := 0; i < b.N; i++ {
		f5, _, _, err := experiments.Figure5(context.Background(), benchScale, list)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range f5 {
				b.Logf("%-14s %-9s good=%d promising=%d poor=%d", r.Name, r.Method, r.Good, r.Promising, r.Poor)
			}
		}
	}
}

// BenchmarkFigure6 regenerates the training-agreement series (PPV with
// and without sibling credit).
func BenchmarkFigure6(b *testing.B) {
	list := psl.Default()
	for i := 0; i < b.N; i++ {
		_, f6, _, err := experiments.Figure5(context.Background(), benchScale, list)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range f6 {
				b.Logf("%-14s %-9s ppv=%.3f +siblings=%.3f (m=%d)", r.Name, r.Method, r.PPV, r.PPVSibling, r.Matches)
			}
		}
	}
}

// BenchmarkTable1 regenerates the embedding-style taxonomy.
func BenchmarkTable1(b *testing.B) {
	list := psl.Default()
	itdkRun := lastEraRun(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pdbRun, err := experiments.RunPDBEra(context.Background(), "pdb-bench", itdkRun.World, 502, list)
		if err != nil {
			b.Fatal(err)
		}
		rows := experiments.Table1(itdkRun, pdbRun)
		if i == 0 {
			for _, r := range rows {
				b.Logf("%-8s usable %5.1f%% single %5.1f%%", r.Style, r.UsablePct, r.SinglePct)
			}
		}
	}
}

// BenchmarkTable2 regenerates the ground-truth validation of the modified
// bdrmapIT's decisions.
func BenchmarkTable2(b *testing.B) {
	run := lastEraRun(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.RunSection5(context.Background(), run)
		rows, correct, total := experiments.Table2(run, res.Result)
		if total == 0 {
			b.Fatal("no validated decisions")
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("%-18s TP=%d FN=%d FP=%d TN=%d", r.Label, r.CorrectUsed, r.CorrectUnused, r.IncorrectUsed, r.IncorrectUnused)
			}
			b.Logf("correct: %d/%d (%s)", correct, total, experiments.Pct(correct, total))
		}
	}
}

// BenchmarkSection5 regenerates the §5 headline numbers: agreement before
// and after feeding conventions into bdrmapIT.
func BenchmarkSection5(b *testing.B) {
	run := lastEraRun(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.RunSection5(context.Background(), run)
		if res.AgreementAfter <= res.AgreementBefore {
			b.Fatalf("no improvement: %.3f -> %.3f", res.AgreementBefore, res.AgreementAfter)
		}
		if i == 0 {
			b.Logf("agreement %.3f -> %.3f (%s -> %s); used %d/%d",
				res.AgreementBefore, res.AgreementAfter,
				experiments.OneIn(res.ErrOneInBefore), experiments.OneIn(res.ErrOneInAfter),
				res.UsedTotal, res.Decisions)
		}
	}
}

// BenchmarkSection4SuffixOrigin regenerates the single-NC suffix-origin
// analysis.
func BenchmarkSection4SuffixOrigin(b *testing.B) {
	run := lastEraRun(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		own, other := experiments.SuffixOriginAnalysis(run)
		if i == 0 {
			b.Logf("single NCs: own-org %d, other %d (%s)", own, other, experiments.Pct(own, own+other))
		}
	}
}

// BenchmarkFigure7Expansion regenerates the §7 full-PTR expansion.
func BenchmarkFigure7Expansion(b *testing.B) {
	run := lastEraRun(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure7(context.Background(), run)
		if err != nil {
			b.Fatal(err)
		}
		if res.FullMatches < res.ObservedMatches {
			b.Fatal("expansion went backward")
		}
		if i == 0 {
			b.Logf("observed=%d full=%d factor=%.2f", res.ObservedMatches, res.FullMatches, res.Factor)
		}
	}
}

// BenchmarkLearnLargeSuffix is the PR-2 acceptance benchmark: the full
// learning pipeline on a single dominant ~200-item suffix, the workload
// where per-trial regex re-execution in the set phase dominates
// end-to-end learning time. BENCH_PR2.json records its before/after.
func BenchmarkLearnLargeSuffix(b *testing.B) {
	items := experiments.LargeSuffixItems(200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		set, err := core.NewSet("bigcarrier.net", items, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		nc, err := set.Learn(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if nc == nil {
			b.Fatal("no NC learned")
		}
		if i == 0 {
			b.Logf("large-suffix NC: %v (TP=%d FP=%d FN=%d ATP=%d)",
				nc.Strings(), nc.Eval.TP, nc.Eval.FP, nc.Eval.FN, nc.Eval.ATP())
		}
	}
}

// BenchmarkLearnFigure4Phases isolates the cumulative cost of each
// learning phase on the figure-4 working example by toggling the
// ablation switches: phase 1 only, +merge (§3.3), +classes (§3.4), and
// the full pipeline with the §3.5 set phase.
func BenchmarkLearnFigure4Phases(b *testing.B) {
	cases := []struct {
		name string
		opts core.Options
	}{
		{"phase1-only", core.Options{DisableMerge: true, DisableClasses: true, DisableSets: true}},
		{"plus-merge", core.Options{DisableClasses: true, DisableSets: true}},
		{"plus-classes", core.Options{DisableSets: true}},
		{"full", core.Options{}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			items := figure4Items()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				set, err := core.NewSet("equinix.com", items, c.opts)
				if err != nil {
					b.Fatal(err)
				}
				if nc, err := set.Learn(context.Background()); err != nil || nc == nil {
					b.Fatalf("nc=%v err=%v", nc, err)
				}
			}
		})
	}
}

// BenchmarkCorpusExtract pins the serving-engine speedup: the indexed,
// sharded Corpus batch path versus the naive per-hostname scan over every
// NC that the pre-engine consumers used (examples/openintel's old loop).
// The acceptance bar is >= 5x on a 128-NC / 100k-hostname batch.
func BenchmarkCorpusExtract(b *testing.B) {
	ncs, hosts := experiments.CorpusWorkload(128, 100_000)

	b.Run("corpus", func(b *testing.B) {
		corpus := extract.New(ncs)
		corpus.Precompile() // warm the compile-once caches outside the timer
		b.ResetTimer()
		hits := 0
		for i := 0; i < b.N; i++ {
			hits = 0
			rs, err := corpus.ExtractBatch(context.Background(), hosts)
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range rs {
				if r.OK {
					hits++
				}
			}
		}
		b.ReportMetric(float64(len(hosts))*float64(b.N)/b.Elapsed().Seconds(), "hosts/s")
		if hits != len(hosts)/2 {
			b.Fatalf("hits = %d, want %d", hits, len(hosts)/2)
		}
	})

	b.Run("linear-scan", func(b *testing.B) {
		corpus := extract.New(ncs)
		corpus.Precompile() // same pre-compiled regexes as above
		b.ResetTimer()
		hits := 0
		for i := 0; i < b.N; i++ {
			hits = 0
			for _, host := range hosts {
				for _, nc := range ncs {
					if _, ok := nc.Extract(host); ok {
						hits++
						break
					}
				}
			}
		}
		b.ReportMetric(float64(len(hosts))*float64(b.N)/b.Elapsed().Seconds(), "hosts/s")
		if hits != len(hosts)/2 {
			b.Fatalf("hits = %d, want %d", hits, len(hosts)/2)
		}
	})
}

// BenchmarkCorpusColdStart pins the PR-7 startup speedup: time from
// serialized corpus bytes to a ready-to-serve Corpus, for the JSON form
// (parse + index + compile every matcher: core.UnmarshalNCs, New,
// Precompile) versus Load of the HBC binary form (decode pre-compiled
// programs; no JSON, no regexp compilation). The acceptance bar is
// >= 5x on the same 128-NC corpus.
func BenchmarkCorpusColdStart(b *testing.B) {
	ncs, _ := experiments.CorpusWorkload(128, 8)
	corpus := extract.New(ncs)
	var jsonBuf, hbcBuf bytes.Buffer
	if err := corpus.Save(&jsonBuf); err != nil {
		b.Fatal(err)
	}
	if err := corpus.SaveBinary(&hbcBuf); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		data []byte
		load func([]byte) (*extract.Corpus, error)
	}{
		{"json", jsonBuf.Bytes(), func(data []byte) (*extract.Corpus, error) {
			ncs, err := core.UnmarshalNCs(data)
			if err != nil {
				return nil, err
			}
			c := extract.New(ncs)
			c.Precompile()
			return c, nil
		}},
		{"hbc", hbcBuf.Bytes(), func(data []byte) (*extract.Corpus, error) {
			return extract.Load(bytes.NewReader(data))
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(c.data)))
			for i := 0; i < b.N; i++ {
				loaded, err := c.load(c.data)
				if err != nil {
					b.Fatal(err)
				}
				if len(loaded.Suffixes()) != 128 {
					b.Fatalf("loaded %d suffixes", len(loaded.Suffixes()))
				}
			}
		})
	}
}

// ablationBench learns the last era's conventions under modified learner
// options and reports the aggregate ATP, quantifying each design choice
// from DESIGN.md.
func ablationBench(b *testing.B, opts core.Options, label string) {
	list := psl.Default()
	run := lastEraRun(b)
	groups, suffixes := core.GroupItems(list, run.Items)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		atp, ncs, regexes := 0, 0, 0
		for _, suf := range suffixes {
			set, err := core.NewSet(suf, groups[suf], opts)
			if err != nil || set.Len() < 4 {
				continue
			}
			if nc, _ := set.Learn(context.Background()); nc != nil {
				atp += nc.Eval.ATP()
				ncs++
				regexes += len(nc.Regexes)
			}
		}
		if i == 0 {
			// ATP measures coverage; the regex count measures the
			// simplicity the paper's merge phase buys (appendix A).
			b.Logf("%s: %d NCs, total ATP %d, %d regexes", label, ncs, atp, regexes)
		}
	}
}

func BenchmarkAblationBaseline(b *testing.B) {
	ablationBench(b, core.Options{}, "baseline")
}

func BenchmarkAblationNoMerge(b *testing.B) {
	ablationBench(b, core.Options{DisableMerge: true}, "no merge (§3.3 off)")
}

func BenchmarkAblationNoClasses(b *testing.B) {
	ablationBench(b, core.Options{DisableClasses: true}, "no character classes (§3.4 off)")
}

func BenchmarkAblationNoSets(b *testing.B) {
	ablationBench(b, core.Options{DisableSets: true}, "no regex sets (§3.5 off)")
}

func BenchmarkAblationNoTypoCredit(b *testing.B) {
	ablationBench(b, core.Options{DisableTypoCredit: true}, "no typo credit (§3.1 rule off)")
}

func BenchmarkAblationRankPPV(b *testing.B) {
	ablationBench(b, core.Options{RankByPPV: true}, "rank by PPV instead of ATP")
}

// BenchmarkAblationReasonableness compares the §5 reasonableness rule
// against trusting every extracted ASN, counting wrong hostnames accepted.
func BenchmarkAblationReasonableness(b *testing.B) {
	run := lastEraRun(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.RunSection5(context.Background(), run)
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
		if i == 0 {
			b.Logf("rule accepted %d/%d wrong hostnames; 'always trust' accepts %d/%d",
				wrongUsed, wrongTotal, wrongTotal, wrongTotal)
		}
	}
}

// BenchmarkEndToEnd measures the whole pipeline for one era: world,
// probing, ITDK assembly, annotation, learning.
func BenchmarkEndToEnd(b *testing.B) {
	list := psl.Default()
	eras := experiments.ITDKEras()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run, err := experiments.RunITDKEra(context.Background(), eras[len(eras)-1], benchScale, list)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			c := experiments.Count(run.NCs)
			b.Logf("end-to-end: %d items, %d NCs (%d good)", len(run.Items), len(run.NCs), c.Good)
		}
	}
}

// BenchmarkSection7Names exercises the §7 extension: learning AS-name
// conventions (figure 1's telia.net style).
func BenchmarkSection7Names(b *testing.B) {
	items := []asnames.Item{
		{Hostname: "vodafone-ic-324966-prs-b1.c.telia.net", Name: "vodafone"},
		{Hostname: "bloomberg-ic-324982-ash-b1.c.telia.net", Name: "bloomberg"},
		{Hostname: "comcast-ic-324571-sjo-b21.c.telia.net", Name: "comcast"},
		{Hostname: "akamai-ic-301765-nyk-b4.c.telia.net", Name: "akamai"},
		{Hostname: "netflix-ic-315133-fra-b5.c.telia.net", Name: "netflix"},
		{Hostname: "vodafone.mil51.seabone.net", Name: "vodafone"},
		{Hostname: "orange.pal3.seabone.net", Name: "orange"},
		{Hostname: "telecomitalia.mia2.seabone.net", Name: "telecomitalia"},
		{Hostname: "claro.gru11.seabone.net", Name: "claro"},
		{Hostname: "fastweb.mil51.seabone.net", Name: "fastweb"},
	}
	learner := &asnames.Learner{}
	for i := 0; i < b.N; i++ {
		ncs, err := learner.LearnAll(psl.Default(), items)
		if err != nil || len(ncs) != 2 {
			b.Fatalf("ncs=%d err=%v", len(ncs), err)
		}
		if i == 0 {
			for _, nc := range ncs {
				b.Logf("%s: %v", nc.Suffix, nc.Strings())
			}
		}
	}
}
