package extract

// Chaos tests for the serving pipelines: injected stalls
// (internal/faultinject) plus cancellation must never leak goroutines,
// must close the stream's output channel, and must return promptly with
// partial batch results. Run under -race: the shutdown paths are the
// code most prone to missed-signal races.

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"hoiho/internal/faultinject"
	"hoiho/internal/leaktest"
)

// TestChaosStreamCancelClosesOutput: after cancellation the output
// channel closes promptly even though the producer never closes in.
func TestChaosStreamCancelClosesOutput(t *testing.T) {
	ncs := syntheticNCs(t, 20)
	c := New(ncs, WithWorkers(4))
	defer leaktest.Check(t)()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := make(chan string)
	feederDone := make(chan struct{})
	go func() {
		defer close(feederDone)
		rng := rand.New(rand.NewSource(11))
		for {
			select {
			case in <- randomHost(rng, ncs):
			case <-ctx.Done():
				return
			}
		}
	}()

	out := c.ExtractStream(ctx, in)
	for i := 0; i < 100; i++ {
		if _, ok := <-out; !ok {
			t.Fatal("stream closed before cancellation")
		}
	}
	cancel()

	closeBy := time.After(10 * time.Second)
	for open := true; open; {
		select {
		case _, ok := <-out:
			open = ok
		case <-closeBy:
			t.Fatal("output channel did not close after cancel")
		}
	}
	<-feederDone
}

// TestChaosStreamAbandonedConsumerNoLeak pins the documented contract:
// a consumer that cancels ctx may abandon the output channel without
// draining it, and every pipeline goroutine still exits. The full-buffer
// case feeds two chunks, waits until the first fills the output buffer
// and the pipeline has settled to the one goroutine holding the second,
// and only then cancels: that goroutine is blocked sending, so only its
// ctx arm lets it exit.
func TestChaosStreamAbandonedConsumerNoLeak(t *testing.T) {
	for _, tc := range []struct {
		name  string
		hosts int // fed before closing in; 0 feeds until cancelled
	}{
		{"after-first-result", 0},
		{"full-buffer", 2 * streamChunk},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ncs := syntheticNCs(t, 20)
			c := New(ncs, WithWorkers(4))
			base := runtime.NumGoroutine()
			defer leaktest.Wait(t, base)

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			in := make(chan string)
			feederDone := make(chan struct{})
			go func() {
				defer close(feederDone)
				rng := rand.New(rand.NewSource(12))
				for i := 0; tc.hosts == 0 || i < tc.hosts; i++ {
					select {
					case in <- randomHost(rng, ncs):
					case <-ctx.Done():
						return
					}
				}
				close(in)
			}()

			out := c.ExtractStream(ctx, in)
			if tc.hosts > 0 {
				fullBy := time.Now().Add(10 * time.Second)
				for len(out) < cap(out) {
					if time.Now().After(fullBy) {
						t.Fatalf("output buffer holds %d of %d results after 10s", len(out), cap(out))
					}
					time.Sleep(time.Millisecond)
				}
				leaktest.Wait(t, base+1)
			} else if _, ok := <-out; !ok {
				t.Fatal("no first result")
			}
			cancel()
			// The consumer walks away here: out is never read again.
			<-feederDone
		})
	}
}

// TestChaosStreamStallCancelLatency: with every worker stalled by
// injection, cancellation still tears the stream down promptly — the
// stalls are bounded by ctx, not waited out.
func TestChaosStreamStallCancelLatency(t *testing.T) {
	plan := &faultinject.Plan{Rules: []faultinject.Rule{{
		Stage: faultinject.StageStreamChunk,
		Kind:  faultinject.KindStall, Prob: 1, Stall: time.Minute,
	}}}
	defer faultinject.Activate(plan)()
	ncs := syntheticNCs(t, 8)
	c := New(ncs, WithWorkers(2))
	defer leaktest.Check(t)()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := make(chan string)
	feederDone := make(chan struct{})
	go func() {
		defer close(feederDone)
		rng := rand.New(rand.NewSource(13))
		for i := 0; i < 3*streamChunk; i++ {
			select {
			case in <- randomHost(rng, ncs):
			case <-ctx.Done():
				return
			}
		}
		close(in)
	}()
	out := c.ExtractStream(ctx, in)
	go func() {
		for plan.Fired(0) == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()

	start := time.Now()
	closeBy := time.After(30 * time.Second)
	for open := true; open; {
		select {
		case _, ok := <-out:
			open = ok
		case <-closeBy:
			t.Fatal("stalled stream did not close after cancel")
		}
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("teardown took %v; stalls must be bounded by ctx", elapsed)
	}
	<-feederDone
}

// TestChaosBatchCancelReturnsPartial: cancelling a stalled ExtractBatch
// returns ctx.Err() promptly with the full-length, partially filled
// result slice instead of blocking on the remaining chunks.
func TestChaosBatchCancelReturnsPartial(t *testing.T) {
	ncs := syntheticNCs(t, 20)
	rng := rand.New(rand.NewSource(14))
	hosts := make([]string, 4*batchChunk)
	for i := range hosts {
		hosts[i] = randomHost(rng, ncs)
	}
	for _, tc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 4}} {
		t.Run(tc.name, func(t *testing.T) {
			plan := &faultinject.Plan{Rules: []faultinject.Rule{{
				Stage: faultinject.StageBatchChunk,
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
			out, err := New(ncs, WithWorkers(tc.workers)).ExtractBatch(ctx, hosts)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if len(out) != len(hosts) {
				t.Fatalf("result slice len = %d, want %d (input-aligned even when partial)", len(out), len(hosts))
			}
			if elapsed := time.Since(start); elapsed > 30*time.Second {
				t.Fatalf("cancellation took %v; stalls must be bounded by ctx", elapsed)
			}
		})
	}
}

// TestChaosStreamWorkerCancelledOnFullDones pins the worker's
// cancellation exit: a worker that returns through its ctx arm must
// still release the WaitGroup, or the goroutine closing the results
// channel waits forever. One worker makes the schedule deterministic.
// The consumer never reads, so chunk 0 fills the output buffer, the
// reorderer blocks emitting chunk 1, and chunk 2 fills the one-slot
// results channel. The worker then stalls on chunk 3 by injection.
// When the stall observes cancellation, the worker's only ready arm
// is ctx.Done.
func TestChaosStreamWorkerCancelledOnFullDones(t *testing.T) {
	plan := &faultinject.Plan{Rules: []faultinject.Rule{{
		Stage: faultinject.StageStreamChunk, Key: "3",
		Kind: faultinject.KindStall, Prob: 1, Stall: time.Minute,
	}}}
	defer faultinject.Activate(plan)()
	ncs := syntheticNCs(t, 8)
	c := New(ncs, WithWorkers(1))
	defer leaktest.Check(t)()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := make(chan string, 4*streamChunk)
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < cap(in); i++ {
		in <- randomHost(rng, ncs)
	}
	close(in)
	out := c.ExtractStream(ctx, in)
	for plan.Fired(0) == 0 {
		time.Sleep(time.Millisecond)
	}
	if len(out) != cap(out) {
		t.Fatalf("output buffer holds %d of %d results with the worker stalled on chunk 3", len(out), cap(out))
	}
	cancel()
	// The consumer walks away: out is never read again.
}
