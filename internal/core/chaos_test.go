package core

// Chaos tests: drive the learner through injected panics, transient
// errors, stalls, and cancellations (internal/faultinject) and assert
// the robustness contract — per-suffix quarantine, prompt cancellation,
// and checkpoint/resume producing a corpus byte-identical to an
// uninterrupted run. All schedules are deterministic (seeded plans, no
// probability below 1), so failures replay exactly; run under -race.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"hoiho/internal/asn"
	"hoiho/internal/faultinject"
	"hoiho/internal/leaktest"
	"hoiho/internal/psl"
)

// chaosItems fabricates training data over six registered domains:
// five clean start-style conventions plus one suffix (aazero.com,
// sorting first) whose hostnames carry no ASN, so it completes with no
// learnable convention — exercising the nil-NC checkpoint entries.
func chaosItems(n int) []Item {
	suffixes := []string{"alpha.net", "bravo.com", "charlie.org", "delta.net", "echo.com"}
	var items []Item
	for si, suf := range suffixes {
		for i := 0; i < n; i++ {
			a := asn.ASN(7000 + si*1000 + i*13)
			items = append(items, Item{
				Hostname: fmt.Sprintf("as%d-r%d.%s", a, i%4, suf),
				ASN:      a,
			})
		}
	}
	for i := 0; i < n; i++ {
		items = append(items, Item{
			Hostname: fmt.Sprintf("host%d.aazero.com", i),
			ASN:      asn.ASN(500 + i),
		})
	}
	return items
}

// TestChaosPanicQuarantine: an injected panic while learning one suffix
// quarantines that suffix alone — with the panic value and a stack for
// the post-mortem — while every other suffix completes.
func TestChaosPanicQuarantine(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 4}} {
		t.Run(tc.name, func(t *testing.T) {
			defer leaktest.Check(t)()
			defer faultinject.Activate(&faultinject.Plan{Rules: []faultinject.Rule{{
				Stage: faultinject.StageLearnSuffix, Key: "charlie.org",
				Kind: faultinject.KindPanic, Prob: 1,
			}}})()
			l := &Learner{Workers: tc.workers}
			report, err := l.Learn(context.Background(), psl.Default(), chaosItems(8))
			if err != nil {
				t.Fatal(err)
			}
			if len(report.Quarantined) != 1 {
				t.Fatalf("quarantined %d suffixes, want 1: %v", len(report.Quarantined), report.Quarantined)
			}
			q := report.Quarantined[0]
			if q.Suffix != "charlie.org" {
				t.Errorf("quarantined %s, want charlie.org", q.Suffix)
			}
			ip, ok := q.Panic.(faultinject.InjectedPanic)
			if !ok || ip.Stage != faultinject.StageLearnSuffix {
				t.Errorf("panic value = %#v, want InjectedPanic at %s", q.Panic, faultinject.StageLearnSuffix)
			}
			if len(q.Stack) == 0 {
				t.Error("quarantined panic captured no stack")
			}
			if !strings.Contains(q.Error(), "panic") {
				t.Errorf("SuffixError.Error() = %q, want a panic mention", q.Error())
			}
			if report.Learned != 5 {
				t.Errorf("learned %d suffixes, want 5", report.Learned)
			}
			if len(report.NCs) != 4 {
				t.Fatalf("got %d NCs, want 4: the other conventions must survive", len(report.NCs))
			}
			for _, nc := range report.NCs {
				if nc.Suffix == "charlie.org" {
					t.Error("quarantined suffix produced an NC")
				}
			}

			// The strict form surfaces the quarantine as the run error.
			_, err = l.LearnAll(context.Background(), psl.Default(), chaosItems(8))
			var se *SuffixError
			if !errors.As(err, &se) || se.Suffix != "charlie.org" {
				t.Errorf("LearnAll error = %v, want *SuffixError for charlie.org", err)
			}
		})
	}
}

// TestChaosTransientErrorQuarantine: an injected transient error is a
// suffix-local failure, not a run abort.
func TestChaosTransientErrorQuarantine(t *testing.T) {
	defer faultinject.Activate(&faultinject.Plan{Rules: []faultinject.Rule{{
		Stage: faultinject.StageLearnSuffix, Key: "delta.net",
		Kind: faultinject.KindError, Prob: 1,
	}}})()
	report, err := (&Learner{Workers: 2}).Learn(context.Background(), psl.Default(), chaosItems(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Quarantined) != 1 || report.Quarantined[0].Suffix != "delta.net" {
		t.Fatalf("quarantined = %v, want exactly delta.net", report.Quarantined)
	}
	q := report.Quarantined[0]
	if !errors.Is(q, faultinject.ErrInjected) {
		t.Errorf("quarantine error %v does not unwrap to ErrInjected", q)
	}
	if q.Panic != nil {
		t.Errorf("transient error recorded a panic value: %v", q.Panic)
	}
	if len(report.NCs) != 4 {
		t.Errorf("got %d NCs, want 4", len(report.NCs))
	}
}

// TestChaosSuffixTimeout: a stalled suffix blows only its own
// SuffixTimeout budget — quarantined as context.DeadlineExceeded while
// the rest of the run completes, and well before the stall duration.
func TestChaosSuffixTimeout(t *testing.T) {
	defer faultinject.Activate(&faultinject.Plan{Rules: []faultinject.Rule{{
		Stage: faultinject.StageMatrixBatch, Key: "bravo.com",
		Kind: faultinject.KindStall, Prob: 1, Stall: time.Minute,
	}}})()
	l := &Learner{Workers: 1, Opts: Options{SuffixTimeout: 500 * time.Millisecond}}
	start := time.Now()
	report, err := l.Learn(context.Background(), psl.Default(), chaosItems(8))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("run took %v; the suffix budget did not bound the stall", elapsed)
	}
	if len(report.Quarantined) != 1 || report.Quarantined[0].Suffix != "bravo.com" {
		t.Fatalf("quarantined = %v, want exactly bravo.com", report.Quarantined)
	}
	if !errors.Is(report.Quarantined[0], context.DeadlineExceeded) {
		t.Errorf("quarantine error %v does not unwrap to DeadlineExceeded", report.Quarantined[0])
	}
	if len(report.NCs) != 4 {
		t.Errorf("got %d NCs, want 4", len(report.NCs))
	}
}

// TestChaosCancellationLatency: cancelling the run context while every
// suffix is stalled returns promptly with the partial report and
// ctx.Err(), instead of waiting out the stalls.
func TestChaosCancellationLatency(t *testing.T) {
	defer leaktest.Check(t)()
	plan := &faultinject.Plan{Rules: []faultinject.Rule{{
		Stage: faultinject.StageLearnSuffix,
		Kind:  faultinject.KindStall, Prob: 1, Stall: time.Minute,
	}}}
	defer faultinject.Activate(plan)()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for plan.Fired(0) == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	start := time.Now()
	report, err := (&Learner{Workers: 2}).Learn(ctx, psl.Default(), chaosItems(8))
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if report == nil {
		t.Fatal("cancelled Learn must still return the partial report")
	}
	if elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v; stalls must be bounded by ctx", elapsed)
	}
}

// TestCheckpointResumeEquivalence is the acceptance test for the
// checkpoint format: interrupt a run mid-suffix, resume it (under
// different parallelism, which the options fingerprint ignores), and
// require the final corpus to be byte-identical to an uninterrupted
// run's.
func TestCheckpointResumeEquivalence(t *testing.T) {
	items := chaosItems(8)
	baseline, err := (&Learner{Workers: 1}).Learn(context.Background(), psl.Default(), items)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MarshalNCs(baseline.NCs)
	if err != nil {
		t.Fatal(err)
	}

	ck := filepath.Join(t.TempDir(), "learn.ckpt")
	plan := &faultinject.Plan{Rules: []faultinject.Rule{{
		Stage: faultinject.StageLearnSuffix, Key: "charlie.org",
		Kind: faultinject.KindStall, Prob: 1, Stall: time.Minute,
	}}}
	restore := faultinject.Activate(plan)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for plan.Fired(0) == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	interrupted, err := (&Learner{Workers: 1, Checkpoint: ck, CheckpointEvery: 1}).
		Learn(ctx, psl.Default(), items)
	restore()
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	// Workers=1 learns in sorted order: aazero (no convention), alpha,
	// bravo complete before the stalled charlie aborts the run.
	if interrupted.Learned != 3 {
		t.Fatalf("interrupted run learned %d suffixes, want 3", interrupted.Learned)
	}
	if _, err := os.Stat(ck); err != nil {
		t.Fatalf("no checkpoint after interrupted run: %v", err)
	}

	resumed, err := (&Learner{
		Workers:    4,
		Opts:       Options{SuffixTimeout: time.Minute},
		Checkpoint: ck,
		Resume:     true,
	}).Learn(context.Background(), psl.Default(), items)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Resumed != 3 {
		t.Errorf("resumed %d suffixes from the checkpoint, want 3", resumed.Resumed)
	}
	if resumed.Learned != 3 {
		t.Errorf("resumed run learned %d suffixes, want the remaining 3", resumed.Learned)
	}
	got, err := MarshalNCs(resumed.NCs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed corpus differs from uninterrupted run:\n got: %s\nwant: %s", got, want)
	}
}

// TestCheckpointRetriesQuarantined: quarantined suffixes are not
// recorded as done, so a resumed run retries them and completes the
// corpus.
func TestCheckpointRetriesQuarantined(t *testing.T) {
	items := chaosItems(8)
	baseline, err := (&Learner{Workers: 1}).Learn(context.Background(), psl.Default(), items)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MarshalNCs(baseline.NCs)
	if err != nil {
		t.Fatal(err)
	}

	ck := filepath.Join(t.TempDir(), "learn.ckpt")
	restore := faultinject.Activate(&faultinject.Plan{Rules: []faultinject.Rule{{
		Stage: faultinject.StageLearnSuffix, Key: "delta.net",
		Kind: faultinject.KindError, Prob: 1,
	}}})
	first, err := (&Learner{Workers: 1, Checkpoint: ck, CheckpointEvery: 1}).
		Learn(context.Background(), psl.Default(), items)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Quarantined) != 1 || first.Quarantined[0].Suffix != "delta.net" {
		t.Fatalf("quarantined = %v, want exactly delta.net", first.Quarantined)
	}
	if first.Learned != 5 {
		t.Fatalf("first run learned %d suffixes, want 5", first.Learned)
	}

	second, err := (&Learner{Workers: 1, Checkpoint: ck, Resume: true}).
		Learn(context.Background(), psl.Default(), items)
	if err != nil {
		t.Fatal(err)
	}
	if second.Resumed != 5 || second.Learned != 1 {
		t.Errorf("resumed/learned = %d/%d, want 5/1 (only delta.net retried)", second.Resumed, second.Learned)
	}
	if len(second.Quarantined) != 0 {
		t.Errorf("healthy resume still quarantined: %v", second.Quarantined)
	}
	got, err := MarshalNCs(second.NCs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("corpus after retry differs from uninterrupted run:\n got: %s\nwant: %s", got, want)
	}
}

// TestCheckpointRejects covers the loader's refusal paths: every bad
// checkpoint fails loudly with a descriptive error instead of silently
// relearning or mixing incompatible results.
func TestCheckpointRejects(t *testing.T) {
	items := chaosItems(8)

	t.Run("resume without checkpoint path", func(t *testing.T) {
		_, err := (&Learner{Resume: true}).Learn(context.Background(), psl.Default(), items)
		if err == nil || !strings.Contains(err.Error(), "Resume requires") {
			t.Fatalf("err = %v, want a Resume-requires-Checkpoint error", err)
		}
	})
	t.Run("not a checkpoint file", func(t *testing.T) {
		ck := filepath.Join(t.TempDir(), "garbage.ckpt")
		if err := os.WriteFile(ck, []byte("not json"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := (&Learner{Checkpoint: ck, Resume: true}).Learn(context.Background(), psl.Default(), items)
		if err == nil || !strings.Contains(err.Error(), "not a checkpoint file") {
			t.Fatalf("err = %v, want a not-a-checkpoint error", err)
		}
	})
	t.Run("version mismatch", func(t *testing.T) {
		ck := filepath.Join(t.TempDir(), "future.ckpt")
		if err := os.WriteFile(ck, []byte(`{"version":99,"opts":"x","done":[]}`), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := (&Learner{Checkpoint: ck, Resume: true}).Learn(context.Background(), psl.Default(), items)
		if err == nil || !strings.Contains(err.Error(), "unsupported version") {
			t.Fatalf("err = %v, want an unsupported-version error", err)
		}
	})
	t.Run("options mismatch", func(t *testing.T) {
		ck := filepath.Join(t.TempDir(), "opts.ckpt")
		if _, err := (&Learner{Workers: 1, Checkpoint: ck}).
			Learn(context.Background(), psl.Default(), items); err != nil {
			t.Fatal(err)
		}
		_, err := (&Learner{Checkpoint: ck, Resume: true, Opts: Options{DisableMerge: true}}).
			Learn(context.Background(), psl.Default(), items)
		if err == nil || !strings.Contains(err.Error(), "different learner options") {
			t.Fatalf("err = %v, want an options-mismatch error", err)
		}
	})
	t.Run("missing checkpoint is a fresh run", func(t *testing.T) {
		ck := filepath.Join(t.TempDir(), "fresh.ckpt")
		report, err := (&Learner{Workers: 1, Checkpoint: ck, Resume: true}).
			Learn(context.Background(), psl.Default(), items)
		if err != nil {
			t.Fatal(err)
		}
		if report.Resumed != 0 || report.Learned != 6 {
			t.Errorf("resumed/learned = %d/%d, want 0/6", report.Resumed, report.Learned)
		}
	})
}

// TestChaosLearnAllWaitsForWorkers: LearnAll must not return while a
// suffix worker it started is still to run. With one P and one worker
// per suffix, each scoring serially, the first worker scheduled can
// drain every job before the rest have run, so only a WaitGroup
// counted before each go statement holds the return until they exit.
func TestChaosLearnAllWaitsForWorkers(t *testing.T) {
	defer leaktest.Check(t)()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ncs, err := (&Learner{Workers: 6, Opts: Options{Workers: 1}}).LearnAll(context.Background(), psl.Default(), chaosItems(8))
	if n := leaktest.Spawned("hoiho/internal/core.(*Learner).Learn"); n != 0 {
		t.Errorf("LearnAll returned with %d suffix workers still to run", n)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(ncs) != 5 {
		t.Errorf("got %d NCs, want 5", len(ncs))
	}
}

// TestChaosLearnAllCancelled: LearnAll answers to its context. The
// last suffix stalls, and the run is cancelled inside the stall, after
// the suffix workers have learned the others on their scratch: LearnAll
// must return context.Canceled and no conventions. A LearnAll that
// learned under a context of its own would wait the stall out and
// return every convention.
func TestChaosLearnAllCancelled(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			defer leaktest.Check(t)()
			plan := &faultinject.Plan{Rules: []faultinject.Rule{{
				Stage: faultinject.StageLearnSuffix, Key: "echo.com",
				Kind: faultinject.KindStall, Prob: 1, Stall: time.Second,
			}}}
			defer faultinject.Activate(plan)()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go func() {
				for plan.Fired(0) == 0 {
					time.Sleep(time.Millisecond)
				}
				cancel()
			}()
			ncs, err := (&Learner{Workers: workers}).LearnAll(ctx, psl.Default(), chaosItems(8))
			if !errors.Is(err, context.Canceled) || ncs != nil {
				t.Fatalf("LearnAll = %d NCs, %v; want none and context.Canceled", len(ncs), err)
			}
		})
	}
}
