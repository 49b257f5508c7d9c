package cluster

// Chaos tests for the cluster: the acceptance suite for the PR's
// headline guarantees, run under -race.
//
//   - Replica failover: killing one node of an R=2 cluster mid-storm
//     leaks zero 5xx responses and zero fingerprint mismatches — the
//     surviving replica absorbs the shard.
//   - Rollout atomicity: a storm of rollout epochs under sustained
//     traffic, with rotating injected faults (corrupt corpus, failing
//     node, crashing node, coordinator faults, stalled phases), never
//     lets a client observe a fingerprint that was not committed
//     cluster-wide, and every aborted epoch leaves every node on the
//     prior generation.
//
// Faults are deterministic (seeded faultinject plans, probability 1,
// and explicit per-node failure modes), and both tests run under the
// shared internal/leaktest check — a leaked probe loop, hedged loser,
// or fanout goroutine is a test failure.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hoiho/internal/faultinject"
	"hoiho/internal/leaktest"
)

// stormStats aggregates what the traffic workers observed.
type stormStats struct {
	requests  atomic.Uint64
	non200    atomic.Uint64
	mismatch  atomic.Uint64
	forbidden atomic.Uint64
}

// stormTraffic runs workers hammering the router until stop is closed.
// Every response must be a 200 whose ASN matches what its X-Hoiho-Corpus
// stamp promises; a stamp outside allowed (or equal to forbidden) is a
// violation.
func stormTraffic(t *testing.T, rt *Router, workers int, stop chan struct{},
	allowed map[string]uint32, forbiddenFP string) (*stormStats, *sync.WaitGroup) {
	t.Helper()
	stats := &stormStats{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				a, b, n := 1+(i+w)%40, 1+i%9, i%nSuffixes
				host := fmt.Sprintf("as%d-pod%d.cluster%d.net", a, b, n)
				rec, rep := doGet(t, rt, "/extract?host="+host)
				stats.requests.Add(1)
				if rec.Code != 200 {
					stats.non200.Add(1)
					continue
				}
				fp := rec.Header().Get("X-Hoiho-Corpus")
				if fp == forbiddenFP {
					stats.forbidden.Add(1)
				}
				wantASN, ok := allowed[fp]
				if !ok {
					stats.mismatch.Add(1)
					continue
				}
				// wantASN 1 means the variant captures the first number,
				// 2 the second: the response must match its stamp.
				want := uint32(a)
				if wantASN == 2 {
					want = uint32(b)
				}
				if !rep.Found || rep.ASN != want {
					stats.mismatch.Add(1)
				}
			}
		}(w)
	}
	return stats, &wg
}

// TestChaosReplicaFailover: R=2, three nodes, sustained storm; one node
// is killed mid-storm. No client sees a 5xx, no response carries a
// wrong corpus, and the router accounts the failover.
func TestChaosReplicaFailover(t *testing.T) {
	check := leaktest.Check(t)
	t.Run("storm", func(t *testing.T) {
		nodes := newTestNodes(t, 3)
		rt := newTestRouter(t, nodes, func(c *Config) { c.TryTimeout = time.Second })
		fpFirst := fingerprintOf(t, "first")
		allowed := map[string]uint32{fpFirst: 1}

		stop := make(chan struct{})
		stats, wg := stormTraffic(t, rt, 8, stop, allowed, "")

		// Let the storm establish, then kill one replica outright: the
		// listener closes, in-flight proxied attempts get transport
		// errors, and failover must absorb all of it.
		time.Sleep(50 * time.Millisecond)
		nodes[2].ts.Close()
		time.Sleep(300 * time.Millisecond)

		close(stop)
		wg.Wait()

		if n := stats.non200.Load(); n != 0 {
			t.Errorf("%d non-200 responses leaked through failover", n)
		}
		if n := stats.mismatch.Load(); n != 0 {
			t.Errorf("%d responses carried a wrong corpus or ASN", n)
		}
		if stats.requests.Load() == 0 {
			t.Fatal("storm made no requests")
		}
		// The kill must have been detected somewhere: either the forward
		// path absorbed transport errors (retries / passive demotion) or
		// the probe loop took the node out of rotation first.
		detected := rt.stats.retries.Load()+rt.stats.unhealthy.Load() > 0
		for _, ms := range rt.StatusNow().Members {
			if ms.Node == nodes[2].url() && !ms.Healthy {
				detected = true
			}
		}
		if !detected {
			t.Error("killing a node produced no observable failover")
		}
	})
	check()
}

// TestChaosRolloutStormAtomicity: 20 rollout epochs under sustained
// traffic. Even epochs are honest and must commit; odd epochs ship a
// third corpus variant that is sabotaged a different way each time and
// must fail: a corrupt body is refused at planning (ErrBadCorpus),
// every other sabotage aborts. The third variant's fingerprint must never appear in any
// response, and after every epoch all nodes serve exactly the epoch's
// committed (or prior) generation.
func TestChaosRolloutStormAtomicity(t *testing.T) {
	check := leaktest.Check(t)
	t.Run("storm", func(t *testing.T) {
		nodes := newTestNodes(t, 3)
		rt := newTestRouter(t, nodes, func(c *Config) {
			c.RolloutPhaseTimeout = 500 * time.Millisecond
		})
		fpA := fingerprintOf(t, "first")
		fpB := fingerprintOf(t, "second")
		fpC := fingerprintOf(t, "third")
		allowed := map[string]uint32{fpA: 1, fpB: 2}

		stop := make(chan struct{})
		stats, wg := stormTraffic(t, rt, 4, stop, allowed, fpC)

		currentFP := fpA
		currentVariant := "first"
		ctx := context.Background()
		for epoch := 0; epoch < 20; epoch++ {
			if epoch%2 == 0 {
				// Honest epoch: flip to the other good variant.
				next := "second"
				if currentVariant == "second" {
					next = "first"
				}
				res, err := rt.Rollout(ctx, corpusHBC(t, next), 0)
				if err != nil {
					t.Fatalf("epoch %d: honest rollout failed: %v", epoch, err)
				}
				currentVariant = next
				currentFP = res.Fingerprint
			} else {
				// Sabotaged epoch: try to roll out the forbidden variant
				// with a rotating fault. It must fail.
				victim := nodes[epoch%3]
				data := corpusHBC(t, "third")
				var restore func()
				switch (epoch / 2) % 5 {
				case 0:
					data = []byte("{corrupt corpus on the wire")
				case 1:
					restore = faultinject.Activate(&faultinject.Plan{Rules: []faultinject.Rule{
						{Stage: faultinject.StageClusterRollout, Key: "prepare:" + victim.url(),
							Kind: faultinject.KindError, Prob: 1},
					}})
				case 2:
					victim.setMode(modeRollout500)
				case 3:
					victim.setMode(modeRolloutCrash)
				case 4:
					// Stall the coordinator past the phase timeout: the
					// validate call starts with an expired context.
					restore = faultinject.Activate(&faultinject.Plan{Rules: []faultinject.Rule{
						{Stage: faultinject.StageClusterRollout, Key: "validate:" + victim.url(),
							Kind: faultinject.KindStall, Prob: 1, Stall: 5 * time.Second},
					}})
				}
				_, err := rt.Rollout(ctx, data, 0)
				if restore != nil {
					restore()
				}
				victim.setMode(modeNormal)
				if err == nil {
					t.Fatalf("epoch %d: sabotaged rollout committed", epoch)
				}
				if refused := errors.Is(err, ErrBadCorpus); refused != ((epoch/2)%5 == 0) {
					t.Fatalf("epoch %d: sabotaged rollout = %v; only the corrupt body is refused at planning", epoch, err)
				}
			}
			// Invariant: after every epoch, every node serves exactly the
			// committed generation of that epoch.
			for i, n := range nodes {
				if fp, _ := nodeFP(t, n); fp != currentFP {
					t.Fatalf("epoch %d: node %d serves %s, committed is %s", epoch, i, fp, currentFP)
				}
			}
		}

		close(stop)
		wg.Wait()

		if n := stats.forbidden.Load(); n != 0 {
			t.Errorf("%d responses carried the never-committed corpus %s", n, fpC)
		}
		if n := stats.mismatch.Load(); n != 0 {
			t.Errorf("%d responses carried an uncommitted corpus or wrong ASN", n)
		}
		if n := stats.non200.Load(); n != 0 {
			t.Errorf("%d traffic requests failed during the rollout storm", n)
		}
		if rt.stats.rollouts.Load() != 10 || rt.stats.aborted.Load() != 8 {
			t.Errorf("epochs accounted: %d committed %d aborted, want 10/8 (2 refused at planning)",
				rt.stats.rollouts.Load(), rt.stats.aborted.Load())
		}
	})
	check()
}

// TestChaosCommitFailureRollsForward: nodes fail their commit while the
// coordinator stays up and traffic storms the router. A commit that
// fails once is repaired inside the epoch; one that keeps failing
// leaves the node to the anti-entropy sweep. No client sees a 5xx or a
// corpus other than the old or the new target, and every node serves
// (and holds on disk) the target once the epoch and one sweep finish.
func TestChaosCommitFailureRollsForward(t *testing.T) {
	check := leaktest.Check(t)
	t.Run("storm", func(t *testing.T) {
		nodes := newTestNodes(t, 3)
		rt, _ := newJournaledRouter(t, nodes, t.TempDir(), nil)
		allowed := map[string]uint32{fingerprintOf(t, "first"): 1, fingerprintOf(t, "second"): 2}
		ctx := context.Background()

		stop := make(chan struct{})
		stats, wg := stormTraffic(t, rt, 4, stop, allowed, "")

		for epoch, tc := range []struct {
			variant string
			victim  *testNode
			times   int // commit failures injected; 0 is every attempt
		}{
			{"second", nodes[2], 1},
			{"first", nodes[0], 0},
			{"second", nodes[1], 0},
			{"first", nodes[1], 1},
		} {
			restore := faultinject.Activate(&faultinject.Plan{Rules: []faultinject.Rule{
				{Stage: faultinject.StageClusterRollout, Key: "commit:" + tc.victim.url(),
					Kind: faultinject.KindError, Prob: 1, Times: tc.times},
			}})
			_, err := rt.Rollout(ctx, corpusHBC(t, tc.variant), 0)
			restore()
			if tc.times == 1 && err != nil {
				t.Fatalf("epoch %d: in-epoch repair failed: %v", epoch, err)
			}
			if tc.times == 0 && !errors.Is(err, ErrNotConverged) {
				t.Fatalf("epoch %d: rollout = %v, want ErrNotConverged", epoch, err)
			}
			rt.antiEntropySweep(ctx)
			want := fingerprintOf(t, tc.variant)
			for _, n := range nodes {
				requireServesAndHolds(t, n, want)
			}
		}

		close(stop)
		wg.Wait()
		if n := stats.non200.Load(); n != 0 {
			t.Errorf("%d client requests failed across commit failures", n)
		}
		if n := stats.mismatch.Load(); n != 0 {
			t.Errorf("%d responses carried a corpus other than the old or new target", n)
		}
		if stats.requests.Load() == 0 {
			t.Fatal("storm made no requests")
		}
	})
	check()
}

// TestChaosClusterStatusUnderLoad reads GET /-/cluster in a loop while a
// storm of extract requests runs through the router. Under -race, a
// counter the request path bumps and the status path reads without the
// same synchronization is a reported race; without -race the test still
// requires the request count to only ever grow and to account every
// request the storm made.
func TestChaosClusterStatusUnderLoad(t *testing.T) {
	check := leaktest.Check(t)
	t.Run("storm", func(t *testing.T) {
		nodes := newTestNodes(t, 3)
		rt := newTestRouter(t, nodes, nil)
		allowed := map[string]uint32{fingerprintOf(t, "first"): 1}

		stop := make(chan struct{})
		stats, wg := stormTraffic(t, rt, 4, stop, allowed, "")
		var last uint64
		for deadline := time.Now().Add(200 * time.Millisecond); time.Now().Before(deadline); {
			w := httptest.NewRecorder()
			rt.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/-/cluster", nil))
			if w.Code != 200 {
				t.Fatalf("GET /-/cluster = %d", w.Code)
			}
			var st ClusterStatus
			if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
				t.Fatal(err)
			}
			if st.Requests < last {
				t.Fatalf("requests counter went backwards: %d after %d", st.Requests, last)
			}
			last = st.Requests
		}
		close(stop)
		wg.Wait()

		if stats.requests.Load() == 0 {
			t.Fatal("storm made no requests")
		}
		if n := stats.non200.Load() + stats.mismatch.Load(); n != 0 {
			t.Errorf("%d bad responses during the status reads", n)
		}
		if got, want := rt.StatusNow().Requests, stats.requests.Load(); got < want {
			t.Errorf("status accounts %d requests, the storm made %d", got, want)
		}
	})
	check()
}

// TestChaosRouterWaitCoversUnscheduledLoops: Start, cancel and Wait in
// one breath must not return while a probe or anti-entropy loop is
// still to run. With one P the loops cannot be scheduled before Wait,
// so only a WaitGroup counted before each go statement holds Wait
// until they exit. The anti-entropy case runs with an empty membership
// so that no probe loop keeps Wait busy long enough to hide it.
func TestChaosRouterWaitCoversUnscheduledLoops(t *testing.T) {
	for _, tc := range []struct {
		name, creator string
		journal       bool
	}{
		{"probe", "hoiho/internal/cluster.(*Router).startProbe", false},
		{"anti-entropy", "hoiho/internal/cluster.(*Router).Start", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			check := leaktest.Check(t)
			cfg := Config{Nodes: []string{"http://127.0.0.1:1", "http://127.0.0.1:2"}}
			if tc.journal {
				cfg.JournalPath = t.TempDir()
				cfg.AntiEntropyInterval = time.Hour
			}
			rt, err := NewRouter(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.journal {
				rt.view.Store(&view{})
			}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			ctx, cancel := context.WithCancel(context.Background())
			rt.Start(ctx)
			cancel()
			rt.Wait()
			if n := leaktest.Spawned(tc.creator); n != 0 {
				t.Errorf("Wait returned with %d %s goroutines still to run", n, tc.name)
			}
			check()
		})
	}
}
