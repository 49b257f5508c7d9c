package cluster

// Cancellation of the router's long-running entry points: Join, Resume
// and Rollout each return promptly with the context's error once their
// context is cancelled midway. Each test fails on a build whose entry
// point runs on context.Background() instead of its caller's context.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hoiho/internal/faultinject"
)

// cancelMidway runs op with a context that it cancels once started
// reports true, and returns op's error. An op still running 5 s after
// the cancellation fails the test; release then lets it finish, so the
// test leaks nothing either way.
func cancelMidway(t *testing.T, started func() bool, release func(), op func(context.Context) error) error {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- op(ctx) }()
	for deadline := time.Now().Add(10 * time.Second); !started(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			release()
			<-done
			t.Fatal("the operation never reached the point to cancel it at")
		}
	}
	cancel()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Error("the operation ran on for 5s after its context was cancelled")
		release()
		return <-done
	}
}

// TestJoinCancelled: a join waiting for a node that never becomes ready
// stops when its context is cancelled, and the node does not join.
func TestJoinCancelled(t *testing.T) {
	nodes := newTestNodes(t, 2)
	rt := newTestRouter(t, nodes, nil)
	var probed atomic.Bool
	ready := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(ready) }) }
	defer release()
	warming := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		probed.Store(true)
		select {
		case <-ready:
		default:
			http.Error(w, "warming", http.StatusServiceUnavailable)
		}
	}))
	defer warming.Close()

	err := cancelMidway(t, probed.Load, release, func(ctx context.Context) error {
		return rt.Join(ctx, warming.URL)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled join = %v, want context.Canceled", err)
	}
	if n := len(rt.view.Load().members); n != len(nodes) {
		t.Errorf("members after a cancelled join = %d, want %d", n, len(nodes))
	}
}

// TestResumeCancelled: a resume rolling a crashed commit forward stops
// with the context's error when its context is cancelled while it
// journals the roll-forward's prepare.
func TestResumeCancelled(t *testing.T) {
	nodes := newTestNodes(t, 3)
	dir := t.TempDir()
	rtA, _ := newJournaledRouter(t, nodes, dir, nil)
	ctx := context.Background()
	if _, err := rtA.Rollout(ctx, corpusHBC(t, "second"), 0); err != nil {
		t.Fatal(err)
	}
	restore := faultinject.Activate(&faultinject.Plan{Rules: []faultinject.Rule{
		{Stage: faultinject.StageClusterJournal, Key: phaseCommitted, Kind: faultinject.KindPanic, Prob: 1},
	}})
	mustCrash(t, func() { rtA.Rollout(ctx, corpusHBC(t, "first"), 0) })
	restore()

	rtB, _ := newJournaledRouter(t, nodes, dir, nil)
	plan := &faultinject.Plan{Rules: []faultinject.Rule{
		{Stage: faultinject.StageClusterJournal, Key: phasePrepare, Kind: faultinject.KindStall, Prob: 1, Stall: 10 * time.Second},
	}}
	defer faultinject.Activate(plan)()
	err := cancelMidway(t, func() bool { return plan.Fired(0) > 0 }, func() {}, rtB.Resume)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled resume = %v, want context.Canceled", err)
	}
}

// TestRolloutCancelled: a rollout cancelled while it holds between
// prepare and validate aborts with the context's error, and every node
// keeps its corpus with nothing left prepared.
func TestRolloutCancelled(t *testing.T) {
	nodes := newTestNodes(t, 3)
	rt := newTestRouter(t, nodes, nil)
	fpFirst := fingerprintOf(t, "first")
	prepared := func() bool {
		for _, n := range nodes {
			if _, p := nodeFP(t, n); p == "" {
				return false
			}
		}
		return true
	}
	err := cancelMidway(t, prepared, func() {}, func(ctx context.Context) error {
		_, err := rt.Rollout(ctx, corpusHBC(t, "second"), 10*time.Second)
		return err
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled rollout = %v, want context.Canceled", err)
	}
	for i, n := range nodes {
		if fp, p := nodeFP(t, n); fp != fpFirst || p != "" {
			t.Errorf("node %d after a cancelled rollout: fp %s, prepared %q; want %s and nothing prepared", i, fp, p, fpFirst)
		}
	}
}
