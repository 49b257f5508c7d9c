// Package faultinject is the test-only chaos hook layer for hoiho's
// long-running pipelines. The learner and the extraction engine call
// Fire at named stages ("core.learn.suffix", "extract.stream.chunk",
// ...); in production no plan is active and Fire is a single atomic
// load. Chaos tests activate a Plan that deterministically injects
// panics, stalls, and transient errors at chosen stages, so the
// recovery paths — per-suffix quarantine, cancellation latency,
// checkpoint durability — are exercised under -race with reproducible
// schedules.
//
// Determinism: whether a rule fires for a (stage, key) pair is a pure
// function of the plan seed and the pair, via an FNV-1a hash — never of
// wall-clock time or a global RNG — so a failing chaos run replays
// exactly.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"
)

// Stage names instrumented by the pipelines. Keys are the per-firing
// discriminator: the suffix being learned, or the chunk sequence number.
const (
	// StageLearnSuffix fires once per suffix at the start of learning.
	StageLearnSuffix = "core.learn.suffix"
	// StageMatrixBatch fires once per match-matrix column batch.
	StageMatrixBatch = "core.matrix.batch"
	// StageBatchChunk fires once per ExtractBatch work chunk.
	StageBatchChunk = "extract.batch.chunk"
	// StageStreamChunk fires once per ExtractStream micro-batch.
	StageStreamChunk = "extract.stream.chunk"
	// StageServeRequest fires once per admitted daemon extraction
	// request, after admission and before the corpus is applied; the key
	// is the requested hostname. Stall rules here hold requests in
	// flight, which is how the serve chaos tests saturate the admission
	// queue and exercise drain.
	StageServeRequest = "serve.request"
	// StageServeReload fires once per corpus reload attempt, before the
	// candidate file is read; the key is the corpus path. Error rules
	// here model a reload that fails before validation.
	StageServeReload = "serve.reload"
	// StageClusterForward fires once per router forwarding attempt,
	// before the request leaves the router; the key is the target node
	// name. Error rules here model an unreachable or flapping node, which
	// is how the cluster chaos tests force per-request failover and
	// hedging without tearing down real listeners.
	StageClusterForward = "cluster.forward"
	// StageClusterRollout fires once per rollout phase step, before the
	// coordinator contacts a node; the key is "<phase>:<node>"
	// (e.g. "prepare:node2"). Error rules here model a coordinator-side
	// failure mid-rollout: before commit it must abort the epoch and
	// leave every node on the prior generation; in commit the node must
	// be repaired forward onto the target.
	StageClusterRollout = "cluster.rollout"
	// StageCorpusbinDelta fires once per HBD delta application, after the
	// base fingerprint check and before the patched corpus is assembled;
	// the key is the target fingerprint in %016x form. Error rules here
	// model a delta that dies mid-apply, which must leave the caller's
	// base corpus untouched and serving.
	StageCorpusbinDelta = "corpusbin.delta"
	// StageClusterJournal fires once per rollout-journal write, before
	// the state file is persisted; the key is the phase about to be
	// recorded ("prepare", "validate", "commit", "committed", "aborted").
	// Panic rules here simulate a coordinator crash at an exact point in
	// the rollout state machine, which the journal-resume path must
	// recover from on restart.
	StageClusterJournal = "cluster.journal"
	// StageClusterAntiEntropy fires once per anti-entropy repair attempt,
	// before the coordinator contacts the divergent node; the key is the
	// node name. Error rules here model a repair that fails transiently,
	// which the next sweep must retry.
	StageClusterAntiEntropy = "cluster.antientropy"
)

// Kind is the failure mode a rule injects.
type Kind int

const (
	// KindError makes Fire return ErrInjected (a transient failure the
	// caller is expected to surface, e.g. as a quarantined suffix).
	KindError Kind = iota
	// KindPanic makes Fire panic with an InjectedPanic value.
	KindPanic
	// KindStall makes Fire sleep for the rule's Stall duration (or until
	// the context is cancelled, whichever comes first).
	KindStall
)

func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindStall:
		return "stall"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ErrInjected is the transient error KindError rules surface.
var ErrInjected = errors.New("faultinject: injected transient error")

// InjectedPanic is the value KindPanic rules panic with.
type InjectedPanic struct {
	Stage string
	Key   string
}

func (p InjectedPanic) String() string {
	return fmt.Sprintf("faultinject: injected panic at %s[%s]", p.Stage, p.Key)
}

// Rule selects firings at one stage. The zero Prob never fires; Prob 1
// with an empty Key fires on every call at the stage.
type Rule struct {
	// Stage must equal the Fire call's stage exactly.
	Stage string
	// Key, when non-empty, must equal the Fire call's key exactly;
	// empty matches every key.
	Key string
	// Kind is the injected failure mode.
	Kind Kind
	// Prob in [0,1] is the chance a matching call fires, decided
	// deterministically from the plan seed and the (stage, key) pair.
	Prob float64
	// Stall is the sleep duration for KindStall rules.
	Stall time.Duration
	// Times, when positive, caps how often the rule fires; 0 is
	// unlimited.
	Times int
}

// Plan is one activated chaos schedule.
type Plan struct {
	Seed  int64
	Rules []Rule

	mu    sync.Mutex
	fired map[int]int // rule index -> firings so far
}

// Fired returns how many times rule i has fired.
func (p *Plan) Fired(i int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fired[i]
}

// active is the process-wide plan; nil in production. Only tests call
// Activate, and the atomic pointer keeps Fire race-free under -race.
var active atomic.Pointer[Plan]

// Activate installs p as the process-wide plan and returns a restore
// function that removes it. Intended for tests only:
//
//	defer faultinject.Activate(&faultinject.Plan{...})()
func Activate(p *Plan) (restore func()) {
	if p != nil {
		p.mu.Lock()
		if p.fired == nil {
			p.fired = make(map[int]int)
		}
		p.mu.Unlock()
	}
	prev := active.Swap(p)
	return func() { active.Store(prev) }
}

// Active reports whether a plan is installed.
func Active() bool { return active.Load() != nil }

// Fire is the pipeline-side hook: a no-op (one atomic load) unless a
// plan is active. With a plan, the first matching rule that decides to
// fire injects its failure: KindError returns ErrInjected, KindPanic
// panics with an InjectedPanic, KindStall sleeps (bounded by ctx).
func Fire(ctx context.Context, stage, key string) error {
	p := active.Load()
	if p == nil {
		return nil
	}
	return p.fire(ctx, stage, key)
}

//hoiho:hotalloc budgeted cold region: fire only runs with a chaos plan installed; the production path exits Fire on one atomic load
func (p *Plan) fire(ctx context.Context, stage, key string) error {
	for i, r := range p.Rules {
		if r.Stage != stage || (r.Key != "" && r.Key != key) {
			continue
		}
		if !decide(p.Seed, stage, key, r.Prob) {
			continue
		}
		p.mu.Lock()
		if r.Times > 0 && p.fired[i] >= r.Times {
			p.mu.Unlock()
			continue
		}
		p.fired[i]++
		p.mu.Unlock()
		switch r.Kind {
		case KindPanic:
			panic(InjectedPanic{Stage: stage, Key: key})
		case KindStall:
			t := time.NewTimer(r.Stall)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
			return nil
		default:
			return fmt.Errorf("%w at %s[%s]", ErrInjected, stage, key)
		}
	}
	return nil
}

// decide hashes (seed, stage, key) into [0,1) and compares against prob.
// Prob >= 1 always fires and 0 never does, independent of the hash.
func decide(seed int64, stage, key string, prob float64) bool {
	if prob >= 1 {
		return true
	}
	if prob <= 0 {
		return false
	}
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(seed) >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(stage))
	h.Write([]byte{0})
	h.Write([]byte(key))
	// 53 bits of the hash give an exact float64 in [0,1).
	u := h.Sum64() >> 11
	return float64(u)/float64(1<<53) < prob
}
