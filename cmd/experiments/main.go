// Command experiments regenerates every table and figure of the paper's
// evaluation on the synthetic substrate and emits a markdown report
// (EXPERIMENTS.md is produced by running it at -scale 1).
//
// Usage:
//
//	experiments [-scale 1.0] [-run all|figure5|figure6|table1|table2|section4|section5|figure7] [-o report.md]
//
// -cpuprofile/-memprofile write pprof profiles of the run, so perf PRs
// are measured rather than guessed.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"

	"hoiho/internal/core"
	"hoiho/internal/experiments"
	"hoiho/internal/psl"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	scale := fs.Float64("scale", 1.0, "topology scale (1.0 = full reproduction)")
	which := fs.String("run", "all", "experiment to run: all, figure5, figure6, table1, table2, section4, section5, figure7")
	outPath := fs.String("o", "-", "output file ('-' for stdout)")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}()
	}
	var out io.Writer = os.Stdout
	if *outPath != "-" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	return Report(ctx, out, experiments.Scale(*scale), *which)
}

// Report runs the requested experiments and writes the markdown report.
// Cancelling ctx (SIGINT/SIGTERM) aborts the in-flight experiment; the
// report written so far remains on disk.
func Report(ctx context.Context, out io.Writer, scale experiments.Scale, which string) error {
	list := psl.Default()
	fmt.Fprintf(out, "# Experiments (scale %.2f)\n\n", float64(scale))
	fmt.Fprintf(out, "All data is synthesized (see DESIGN.md); compare *shapes* with the paper, not absolute counts.\n\n")

	f5, f6, runs, err := experiments.Figure5(ctx, scale, list)
	if err != nil {
		return err
	}
	itdkFinal := runs[len(runs)-3] // last ITDK run (before the two PDB runs)
	pdbFinal := runs[len(runs)-1]

	want := func(name string) bool { return which == "all" || which == name }

	if want("figure5") {
		fmt.Fprintf(out, "## Figure 5 — classification of NCs per training set\n\n")
		fmt.Fprintf(out, "Paper: 12-55 good NCs per ITDK, growing over time; 55 good NCs for the February 2020 PeeringDB snapshot.\n\n")
		rows := make([][]string, 0, len(f5))
		for _, r := range f5 {
			rows = append(rows, []string{r.Name, r.Method,
				fmt.Sprint(r.Good), fmt.Sprint(r.Promising), fmt.Sprint(r.Poor)})
		}
		fmt.Fprintln(out, experiments.FormatTable(
			[]string{"training set", "method", "good", "promising", "poor"}, rows))
	}

	if want("figure6") {
		fmt.Fprintf(out, "## Figure 6 — agreement between training and extracted ASNs (usable NCs)\n\n")
		fmt.Fprintf(out, "Paper: RTAA 74.8%%-80.7%%, bdrmapIT 83.7%%-87.4%%, PeeringDB 96.0%%; siblings add ~1%% (RTAA) / ~2%% (bdrmapIT).\n\n")
		rows := make([][]string, 0, len(f6))
		for _, r := range f6 {
			rows = append(rows, []string{r.Name, r.Method,
				fmt.Sprintf("%.1f%%", 100*r.PPV),
				fmt.Sprintf("%.1f%%", 100*r.PPVSibling),
				fmt.Sprint(r.Matches)})
		}
		fmt.Fprintln(out, experiments.FormatTable(
			[]string{"training set", "method", "PPV", "PPV+siblings", "matches"}, rows))
	}

	if want("table1") {
		pdbT1, err := experiments.RunPDBEra(ctx, "pdb-table1", itdkFinal.World, 502, list)
		if err != nil {
			return err
		}
		t1 := experiments.Table1(itdkFinal, pdbT1)
		fmt.Fprintf(out, "## Table 1 — taxonomy of how operators embed ASNs\n\n")
		fmt.Fprintf(out, "Paper (usable/single): simple 17.7/4.6, start 50.8/23.1, end 10.8/43.1, bare 5.4/7.7, complex 15.4/21.5 (%%).\n\n")
		rows := make([][]string, 0, len(t1))
		for _, r := range t1 {
			rows = append(rows, []string{r.Style.String(),
				fmt.Sprintf("%.1f%% (%d)", r.UsablePct, r.UsableCount),
				fmt.Sprintf("%.1f%% (%d)", r.SinglePct, r.SingleCount)})
		}
		fmt.Fprintln(out, experiments.FormatTable([]string{"style", "usable", "single"}, rows))
	}

	var s5 *experiments.Section5Result
	if want("section5") || want("table2") {
		s5 = experiments.RunSection5(ctx, itdkFinal)
	}

	if want("section5") {
		fmt.Fprintf(out, "## §5 — using conventions in bdrmapIT\n\n")
		fmt.Fprintf(out, "Paper: agreement 87.4%% -> 97.1%%; error rate 1/7.9 -> 1/34.5; used 72.8%% of 723 incongruent extractions (82.5%% good, 44.0%% promising, 18.2%% poor).\n\n")
		fmt.Fprintf(out, "- agreement between extracted and inferred ASNs: %.1f%% -> %.1f%%\n",
			100*s5.AgreementBefore, 100*s5.AgreementAfter)
		fmt.Fprintf(out, "- error rate: %s -> %s\n",
			experiments.OneIn(s5.ErrOneInBefore), experiments.OneIn(s5.ErrOneInAfter))
		fmt.Fprintf(out, "- incongruent extractions (decisions): %d; used %d (%s)\n",
			s5.Decisions, s5.UsedTotal, experiments.Pct(s5.UsedTotal, s5.Decisions))
		classes := []core.Classification{core.Good, core.Promising, core.Poor}
		for _, c := range classes {
			uc := s5.PerClass[c]
			fmt.Fprintf(out, "- used %s of %d extractions from %s NCs\n",
				experiments.Pct(uc[0], uc[1]), uc[1], c)
		}
		fmt.Fprintln(out)
	}

	if want("table2") {
		rows, correct, total := experiments.Table2(itdkFinal, s5.Result)
		fmt.Fprintf(out, "## Table 2 — validation of the modified bdrmapIT\n\n")
		fmt.Fprintf(out, "Paper: correct decision for 92.5%% of 467 validated hostnames (345 TP, 27 FN, 8 FP, 87 TN).\n\n")
		cells := make([][]string, 0, len(rows))
		for _, r := range rows {
			cells = append(cells, []string{r.Label,
				fmt.Sprint(r.CorrectUsed), fmt.Sprint(r.CorrectUnused),
				fmt.Sprint(r.IncorrectUsed), fmt.Sprint(r.IncorrectUnused)})
		}
		fmt.Fprintln(out, experiments.FormatTable(
			[]string{"validation source", "correct used (TP)", "correct unused (FN)",
				"incorrect used (FP)", "incorrect unused (TN)"}, cells))
		fmt.Fprintf(out, "Correct decisions: %d of %d (%s).\n\n",
			correct, total, experiments.Pct(correct, total))
	}

	if want("section4") {
		own, other := experiments.SuffixOriginAnalysis(itdkFinal)
		fmt.Fprintf(out, "## §4 — single-NC suffix origin\n\n")
		fmt.Fprintf(out, "Paper: 79.5%% of single-NC suffixes belong to the organization with the extracted ASN.\n\n")
		fmt.Fprintf(out, "- suffix belongs to the extracted ASN's organization: %d of %d (%s)\n\n",
			own, own+other, experiments.Pct(own, own+other))
	}

	if want("figure7") {
		f7, err := experiments.Figure7(ctx, itdkFinal)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "## §7 — full-PTR expansion (OpenINTEL analogue)\n\n")
		fmt.Fprintf(out, "Paper: matches grew from 5.4K (ITDK) to 22.5K (all delegated space), a factor of ~4.2.\n\n")
		fmt.Fprintf(out, "- traceroute-observed hostnames matching usable NCs: %d\n", f7.ObservedMatches)
		fmt.Fprintf(out, "- full PTR zone matches: %d (factor %.2f)\n\n", f7.FullMatches, f7.Factor)
	}

	if which == "all" {
		fmt.Fprintf(out, "## Training-set overlap (§4)\n\n")
		itdkSuf := suffixSet(itdkFinal.NCs, true)
		pdbSuf := suffixSet(pdbFinal.NCs, true)
		common := intersect(itdkSuf, pdbSuf)
		fmt.Fprintf(out, "Paper: 130 usable NCs total; 34 suffixes common to ITDK and PeeringDB, 56 ISPs unique to ITDK, 40 IXPs unique to PeeringDB.\n\n")
		fmt.Fprintf(out, "- usable NC suffixes: ITDK %d, PeeringDB %d, common %d\n\n",
			len(itdkSuf), len(pdbSuf), len(common))
	}
	return nil
}

func suffixSet(ncs []*core.NC, usableOnly bool) map[string]bool {
	out := make(map[string]bool)
	for _, nc := range ncs {
		if !usableOnly || nc.Class.Usable() {
			out[nc.Suffix] = true
		}
	}
	return out
}

func intersect(a, b map[string]bool) []string {
	var out []string
	for s := range a {
		if b[s] {
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}
