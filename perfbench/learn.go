package main

// The learn workload runs in the host process itself: the learner is a
// library, so the system under test is this process. One operation is
// what `hoiho -save x.hbc` does after parsing: Learner.Learn over the
// training set, extract.New, Precompile, and an atomic save.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"hoiho/internal/core"
	"hoiho/internal/experiments"
	"hoiho/internal/extract"
	"hoiho/internal/psl"
)

const (
	// learnScale sizes the ITDK world. Scale 4 takes ~8 s to build on a
	// 2-vCPU VM, which set-up would pay on every boot; scale 8 panics in
	// topo. Scale 2 has 564 suffixes, of which the sample keeps 423.
	learnScale = 2
)

// pinnedLearnFP is the fingerprint of the corpus learned from the
// default seed's sample. A change to what the learner produces changes
// it. Every run checks it, whatever its own seed.
const pinnedLearnFP = "9ed4d701e41ef1a2"

// learnInputs builds the training set: the last ITDK era's items at
// learnScale, restricted to a seeded sample of its suffixes. It also
// returns the default seed's sample, whose learned corpus is pinned.
func learnInputs(ctx context.Context, seed uint64) (items, pinned []core.Item, list *psl.List, err error) {
	list = psl.Default()
	eras := experiments.ITDKEras()
	run, err := experiments.RunITDKEra(ctx, eras[len(eras)-1], learnScale, list)
	if err != nil {
		return nil, nil, nil, err
	}
	groups, suffixes := core.GroupItems(list, run.Items)
	return learnSample(seed, suffixes, groups), learnSample(defaultSeed, suffixes, groups), list, nil
}

func learnHostMain(f hostFlags) error {
	ctx := context.Background()
	items, pinned, list, err := learnInputs(ctx, f.seed)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(os.Stdout).Encode(readyMsg{}); err != nil {
		return err
	}
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		cmd, _, _ := strings.Cut(in.Text(), " ")
		switch cmd {
		case "finish":
			rep := runLearn(ctx, f, items, pinned, list)
			return json.NewEncoder(os.Stdout).Encode(rep)
		case "quit":
			return nil
		}
	}
	return in.Err()
}

// learnOp is one timed learn-and-save.
type learnOp struct {
	learn, build, save time.Duration
	fp                 string
}

func learnOnce(ctx context.Context, items []core.Item, list *psl.List, path string) (learnOp, error) {
	var op learnOp
	t0 := time.Now()
	l := &core.Learner{Workers: runtime.NumCPU()}
	rep, err := l.Learn(ctx, list, items)
	if err != nil {
		return op, err
	}
	if len(rep.Quarantined) > 0 {
		return op, rep.Quarantined[0]
	}
	t1 := time.Now()
	c := extract.New(rep.NCs, extract.WithPSL(list))
	c.Precompile()
	t2 := time.Now()
	if err := c.SaveFile(path); err != nil {
		return op, err
	}
	t3 := time.Now()
	return learnOp{learn: t1.Sub(t0), build: t2.Sub(t1), save: t3.Sub(t2), fp: c.FingerprintString()}, nil
}

func runLearn(ctx context.Context, f hostFlags, items, pinned []core.Item, list *psl.List) report {
	var rep report
	path := filepath.Join(f.dir, "learned.hbc")
	var total, learnT, build, save []float64
	var fp string
	resetPeakRSS()
	p0 := sampleProc()
	start := time.Now()
	for (len(total) == 0 && rep.Failed < 3) || time.Since(start).Seconds() < f.seconds {
		rep.Attempted++
		op, err := learnOnce(ctx, items, list, path)
		if err == nil {
			err = checkLearned(&fp, op.fp, path)
		}
		if err != nil {
			rep.fail(true, err)
			continue
		}
		total = append(total, ms(op.learn+op.build+op.save))
		learnT = append(learnT, ms(op.learn))
		build = append(build, ms(op.build))
		save = append(save, ms(op.save))
	}
	p1 := sampleProc()
	rep.E2E = map[string]float64{
		"p50_ms":        median(total),
		"tail_ms":       quantile(total, 0.9),
		"cpu_ms_per_op": ms(p1.cpu-p0.cpu) / float64(rep.Attempted),
		"rss_peak_mb":   peakRSSMB(),
	}
	rep.Named = map[string]float64{"learn_s": median(total) / 1000}

	// Only the default seed's corpus is pinned, so learn its sample
	// once too, after the measured window.
	rep.Attempted++
	if op, err := learnOnce(ctx, pinned, list, path); err != nil {
		rep.fail(true, err)
	} else if op.fp != pinnedLearnFP {
		rep.fail(true, fmt.Errorf("the default seed's sample learned %s, pinned %s", op.fp, pinnedLearnFP))
	}
	if !f.trace {
		return rep
	}
	rep.Layer = runtimeLayer(p0, p1, len(total))
	rep.Layer["extract.new_ms"] = median(build)
	rep.Layer["extract.save_ms"] = median(save)
	if err := learnLayers(ctx, rep.Layer, items, list, median(learnT)); err != nil {
		rep.fail(false, err)
	}
	return rep
}

// checkLearned verifies one learned corpus: every run of the seed
// learns the same fingerprint, and the saved file loads back to it.
func checkLearned(first *string, fp, path string) error {
	if *first == "" {
		*first = fp
		c, err := extract.LoadFile(path)
		if err != nil {
			return err
		}
		if c.FingerprintString() != fp {
			return fmt.Errorf("saved corpus loads as %s, learned %s", c.FingerprintString(), fp)
		}
	}
	if fp != *first {
		return fmt.Errorf("learned fingerprint %s, earlier run of the same seed learned %s", fp, *first)
	}
	return nil
}

// learnLayers replays the training set through the learner's layers:
// grouping, each suffix alone, and the §3.2–§3.5 phases, which are
// timed as cumulative differences under the Options.Disable* switches.
func learnLayers(ctx context.Context, out map[string]float64, items []core.Item, list *psl.List, wallMS float64) error {
	workers := runtime.NumCPU()
	var ts []float64
	for k := 0; k < 5; k++ {
		t := time.Now()
		core.GroupItems(list, items)
		ts = append(ts, ms(time.Since(t)))
	}
	out["core.group_ms"] = median(ts)

	groups, suffixes := core.GroupItems(list, items)
	serial := &core.Learner{Workers: 1}
	var sumMS, maxMS float64
	for _, suf := range suffixes {
		t := time.Now()
		if _, err := serial.LearnSuffix(ctx, suf, groups[suf]); err != nil {
			return err
		}
		d := ms(time.Since(t))
		sumMS += d
		if d > maxMS {
			maxMS = d
		}
	}
	out["core.suffix_ms_sum"] = sumMS
	out["core.suffix_ms_max"] = maxMS
	out["core.straggler_share"] = maxMS / wallMS
	out["core.parallel_eff"] = sumMS / (wallMS * float64(workers))

	learnMS := func(opts core.Options) (float64, error) {
		var ts []float64
		for k := 0; k < 5; k++ {
			t := time.Now()
			l := &core.Learner{Workers: workers, Opts: opts}
			if _, err := l.Learn(ctx, list, items); err != nil {
				return 0, err
			}
			ts = append(ts, ms(time.Since(t)))
		}
		return median(ts), nil
	}
	full, err := learnMS(core.Options{})
	if err != nil {
		return err
	}
	noSets, err := learnMS(core.Options{DisableSets: true})
	if err != nil {
		return err
	}
	noClasses, err := learnMS(core.Options{DisableSets: true, DisableClasses: true})
	if err != nil {
		return err
	}
	phase1, err := learnMS(core.Options{DisableSets: true, DisableClasses: true, DisableMerge: true})
	if err != nil {
		return err
	}
	out["core.sets_ms"] = full - noSets
	out["core.classes_ms"] = noSets - noClasses
	out["core.merge_ms"] = noClasses - phase1
	out["core.phase1_ms"] = phase1

	_, allocs := timeAllocs(len(items), func() {
		l := &core.Learner{Workers: workers}
		l.Learn(ctx, list, items) //nolint:errcheck // the same run succeeded above
	})
	out["core.allocs_per_item"] = allocs
	return nil
}
