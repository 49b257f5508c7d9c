// Package cluster turns a fleet of hoihod nodes into one fault-tolerant
// extraction service. The paper's corpus is only useful in production if
// it can be served at scale and updated without ever exposing a stale or
// mixed-generation answer; this package supplies both halves:
//
//   - Routing: a thin proxy consistent-hashes the registered-domain
//     suffix space across N nodes with R-way replication (ring.go).
//     Each request forwards to its shard's replicas with bounded
//     retries, a hedged second read after a latency budget, and
//     graceful shedding with the same 429/503/504 taxonomy as
//     internal/serve when a shard is fully down. Answers produced off
//     the shard's replica set carry an explicit X-Hoiho-Degraded header
//     rather than being silently misrouted.
//
//   - Health: every member is probed at /readyz on an exponential
//     backoff with jitter (member.go); forwarding failures mark a node
//     unhealthy immediately, so failover reacts at request latency and
//     the probe loop handles recovery.
//
//   - Rollout: a two-phase, cluster-wide corpus swap (rollout.go).
//     Prepare ships the corpus (HBC preferred) into every node's side
//     buffer; validate requires every node to ack the same fingerprint
//     and an unmoved serving generation (the X-Hoiho-Corpus /
//     X-Hoiho-Generation headers are the proof); commit publishes
//     everywhere. Any nack or timeout before commit aborts the epoch,
//     so no client ever observes a generation that was not committed
//     cluster-wide. Once commit starts the target is committed, and
//     the one repair is forward: a node whose commit fails gets the
//     single-node prepare→commit the anti-entropy sweep uses, inside
//     the epoch; a node that still misses the target is reported
//     (ErrNotConverged) and left to anti-entropy or the next rollout.
//     No node is rolled back, so none serves or holds on disk a corpus
//     other than the old one or the committed target.
//
//   - Membership: node join/leave rebuilds the hash ring and publishes
//     it with one atomic pointer swap. In-flight requests finish on the
//     ring they started with (every node serves the full corpus, so a
//     stale ring is a locality miss, never a wrong answer); new
//     arrivals route on the new ring. A joining node is warmed — probed
//     until ready — before the flip.
package cluster

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hoiho/internal/psl"
)

// Defaults for the zero Config fields.
const (
	DefaultVNodes   = 64
	DefaultReplicas = 2
)

// Config sizes the router. The zero value of every field gets a
// production-sane default from NewRouter.
type Config struct {
	// Nodes are the hoihod base URLs forming the initial membership,
	// e.g. "http://10.0.0.1:8080". At least one is required.
	Nodes []string
	// Replicas is R: how many distinct nodes own each shard (default 2).
	Replicas int
	// VNodes is the number of virtual points each node contributes to
	// the hash ring (default 64).
	VNodes int
	// ProbeInterval is the healthy-state readiness probe period
	// (default 1s). Failures back off exponentially from here.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one readiness probe (default 500ms).
	ProbeTimeout time.Duration
	// ProbeMaxBackoff caps the unhealthy-state probe backoff
	// (default 15s).
	ProbeMaxBackoff time.Duration
	// HedgeAfter is the latency budget before a single-extraction read
	// is hedged to the next replica (default 25ms).
	HedgeAfter time.Duration
	// TryTimeout bounds one forwarding attempt (default 2s).
	TryTimeout time.Duration
	// RequestTimeout bounds one client request end to end, across every
	// retry and hedge (default 5s).
	RequestTimeout time.Duration
	// MaxAttempts bounds how many nodes one request may be forwarded to
	// (default Replicas+1: every replica plus one degraded fallback).
	MaxAttempts int
	// RolloutPhaseTimeout bounds each per-node call of each rollout
	// phase (default 15s).
	RolloutPhaseTimeout time.Duration
	// JournalPath is a directory where the rollout coordinator journals
	// epoch state and the committed corpus (journal.go). Empty disables
	// journaling: rollouts ship full corpora only, crash recovery is
	// manual, and anti-entropy is unavailable.
	JournalPath string
	// AntiEntropyInterval is the period of the self-healing sweep that
	// compares each member's live fingerprint against the journaled
	// committed target and repairs divergent nodes (antientropy.go).
	// Zero disables the sweep; a positive value requires JournalPath.
	AntiEntropyInterval time.Duration
	// MaxBatchBytes caps a proxied POST /extract body (default 8 MiB).
	MaxBatchBytes int64
	// RetryAfter is the base Retry-After hint on shed responses
	// (default 1s); emitted values are jittered across [base, 2*base].
	RetryAfter time.Duration
	// PSL is the public suffix list used to reduce hostnames to their
	// registered-domain shard key; nil uses psl.Default().
	PSL *psl.List
	// Log receives membership, failover, and rollout events; nil
	// discards them.
	Log *log.Logger
}

// view is one immutable membership snapshot: the member set and the
// ring built from it. Requests load the pointer once and route entirely
// on that snapshot, so a concurrent join/leave can never tear the
// member list from the ring that indexes it.
type view struct {
	members []*member          // sorted by name
	byName  map[string]*member // name -> member
	ring    *Ring
}

// Router is the cluster front end: an http.Handler that shards,
// forwards, fails over, and coordinates rollouts. Create one with
// NewRouter, call Start to launch health probing, mount Handler, and
// cancel Start's context (then Wait) to shut down.
type Router struct {
	cfg    Config
	client *http.Client
	list   *psl.List

	view atomic.Pointer[view]

	// adminMu serializes membership changes, rollouts, and anti-entropy
	// sweeps: the protocol is one epoch at a time, and a ring flip
	// mid-rollout would change the member set between phases.
	adminMu sync.Mutex

	// journal is the rollout crash-recovery log (nil when disabled),
	// and epoch the monotonic rollout epoch counter, seeded from the
	// journal's last record so epochs never repeat across coordinator
	// restarts.
	journal *journal
	epoch   atomic.Uint64
	// base caches the journal's committed corpus as a delta base
	// (plan.go); guarded by adminMu, and nil until an epoch first
	// needs it.
	base *committedBase

	// runCtx is Start's context; probe loops for members joining later
	// derive from it so one cancellation stops everything.
	runCtx atomic.Pointer[context.Context]

	wg    sync.WaitGroup // probe loops
	stats routerCounters
}

// routerCounters is the router's monotonic stats block.
type routerCounters struct {
	requests  atomic.Uint64 // client requests received
	forwards  atomic.Uint64 // forwarding attempts launched
	retries   atomic.Uint64 // failover attempts after a failed forward
	hedges    atomic.Uint64 // hedged reads launched on the latency budget
	degraded  atomic.Uint64 // responses served off the shard's replica set
	shed      atomic.Uint64 // requests shed (all candidates exhausted)
	rollouts  atomic.Uint64 // committed rollout epochs
	aborted   atomic.Uint64 // aborted rollout epochs
	joins     atomic.Uint64 // nodes joined
	leaves    atomic.Uint64 // nodes left
	unhealthy atomic.Uint64 // passive health demotions from forward failures

	sweeps      atomic.Uint64 // anti-entropy sweeps run
	repairs     atomic.Uint64 // divergent nodes repaired by anti-entropy
	repairFails atomic.Uint64 // anti-entropy repair attempts that failed
}

// NewRouter validates cfg, applies defaults, and builds the initial
// membership and ring. Health probing does not start until Start.
//
//hoiho:ctxflow pure validation and construction over the configured node list; no I/O and nothing long-running until Start(ctx)
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Nodes) == 0 {
		return nil, ErrNoMembers
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = DefaultReplicas
	}
	if cfg.VNodes <= 0 {
		cfg.VNodes = DefaultVNodes
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 500 * time.Millisecond
	}
	if cfg.ProbeMaxBackoff <= 0 {
		cfg.ProbeMaxBackoff = 15 * time.Second
	}
	if cfg.HedgeAfter <= 0 {
		cfg.HedgeAfter = 25 * time.Millisecond
	}
	if cfg.TryTimeout <= 0 {
		cfg.TryTimeout = 2 * time.Second
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 5 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = cfg.Replicas + 1
	}
	if cfg.RolloutPhaseTimeout <= 0 {
		cfg.RolloutPhaseTimeout = 15 * time.Second
	}
	if cfg.MaxBatchBytes <= 0 {
		cfg.MaxBatchBytes = 8 << 20
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.AntiEntropyInterval > 0 && cfg.JournalPath == "" {
		return nil, fmt.Errorf("cluster: anti-entropy requires a journal path (the journaled committed corpus is the repair source)")
	}
	list := cfg.PSL
	if list == nil {
		list = psl.Default()
	}
	rt := &Router{
		cfg:    cfg,
		list:   list,
		client: &http.Client{}, // per-attempt contexts bound every call
	}
	if cfg.JournalPath != "" {
		j, err := openJournal(cfg.JournalPath)
		if err != nil {
			return nil, err
		}
		rt.journal = j
		st, err := j.load()
		if err != nil {
			return nil, err
		}
		if st != nil {
			rt.epoch.Store(st.Epoch)
		}
	}
	members := make([]*member, 0, len(cfg.Nodes))
	for _, n := range cfg.Nodes {
		m, err := parseMember(n)
		if err != nil {
			return nil, err
		}
		members = append(members, m)
	}
	v, err := buildView(members, cfg.VNodes, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	rt.view.Store(v)
	return rt, nil
}

// parseMember validates a node base URL and wraps it as a member.
func parseMember(raw string) (*member, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("cluster: node %q: %w", raw, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("cluster: node %q: URL scheme must be http or https", raw)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("cluster: node %q: URL has no host", raw)
	}
	return &member{name: raw, base: u}, nil
}

// buildView assembles a membership snapshot: members sorted by name,
// the lookup map, and the ring over their names.
func buildView(members []*member, vnodes, repl int) (*view, error) {
	sorted := append([]*member(nil), members...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].name < sorted[j].name })
	names := make([]string, len(sorted))
	byName := make(map[string]*member, len(sorted))
	for i := 0; i < len(sorted); i++ {
		names[i] = sorted[i].name
		byName[sorted[i].name] = sorted[i]
	}
	ring, err := NewRing(names, vnodes, repl)
	if err != nil {
		return nil, err
	}
	return &view{members: sorted, byName: byName, ring: ring}, nil
}

// Start launches one readiness probe loop per member, plus the
// anti-entropy sweep when configured. The loops (and those of members
// joining later) stop when ctx is cancelled; call Wait to block until
// they have all exited.
func (rt *Router) Start(ctx context.Context) {
	rt.runCtx.Store(&ctx)
	v := rt.view.Load()
	for _, m := range v.members {
		rt.startProbe(ctx, m)
	}
	if rt.journal != nil && rt.cfg.AntiEntropyInterval > 0 {
		rt.wg.Add(1)
		go rt.antiEntropyLoop(ctx)
	}
}

// Wait blocks until every probe loop has exited — the shutdown
// companion to cancelling Start's context.
func (rt *Router) Wait() { rt.wg.Wait() }

// startProbe launches m's readiness loop under ctx. The member's cancel
// tears down just this loop (leave), while ctx tears down all of them.
func (rt *Router) startProbe(ctx context.Context, m *member) {
	probeCtx, cancel := context.WithCancel(ctx)
	m.cancel = cancel
	rt.wg.Add(1)
	go rt.probeLoop(probeCtx, m)
}

// Join adds a node to the cluster. The node is warmed first — probed
// until it reports ready, bounded by ctx — and only then does the ring
// flip, so a shard never gains an owner that cannot serve. In-flight
// requests keep routing on the snapshot they loaded; nothing drops.
func (rt *Router) Join(ctx context.Context, nodeURL string) error {
	rt.adminMu.Lock()
	defer rt.adminMu.Unlock()
	v := rt.view.Load()
	if _, ok := v.byName[nodeURL]; ok {
		return fmt.Errorf("cluster: join %s: %w", nodeURL, ErrMemberExists)
	}
	m, err := parseMember(nodeURL)
	if err != nil {
		return err
	}
	// Warm: the node must answer /readyz before it owns any shard.
	if err := rt.warm(ctx, m); err != nil {
		return fmt.Errorf("cluster: join %s: warming: %w", nodeURL, err)
	}
	m.healthy.Store(true)
	nv, err := buildView(append(append([]*member(nil), v.members...), m), rt.cfg.VNodes, rt.cfg.Replicas)
	if err != nil {
		return err
	}
	if pctx := rt.runCtx.Load(); pctx != nil {
		rt.startProbe(*pctx, m)
	}
	rt.view.Store(nv)
	rt.stats.joins.Add(1)
	rt.logf("join: %s (members now %d)", nodeURL, len(nv.members))
	return nil
}

// warm polls the candidate's /readyz until it answers 200, bounded by
// ctx. The poll is tight (ProbeInterval) because join is an operator
// action that should converge fast.
func (rt *Router) warm(ctx context.Context, m *member) error {
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		if rt.probe(ctx, m) {
			return nil
		}
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Leave removes a node from the cluster: the ring flips first (new
// arrivals stop routing to it), then the node's probe loop stops.
// Requests already in flight toward the departing node finish normally
// — the operator drains and stops the node afterwards, which is the
// "drain old owner" half of the re-sharding contract.
func (rt *Router) Leave(nodeURL string) error {
	rt.adminMu.Lock()
	defer rt.adminMu.Unlock()
	v := rt.view.Load()
	m, ok := v.byName[nodeURL]
	if !ok {
		return fmt.Errorf("cluster: leave %s: %w", nodeURL, ErrMemberUnknown)
	}
	if len(v.members) == 1 {
		return fmt.Errorf("cluster: leave %s: removing the last member would empty the cluster", nodeURL)
	}
	rest := make([]*member, 0, len(v.members)-1)
	for _, om := range v.members {
		if om != m {
			rest = append(rest, om)
		}
	}
	nv, err := buildView(rest, rt.cfg.VNodes, rt.cfg.Replicas)
	if err != nil {
		return err
	}
	rt.view.Store(nv)
	if m.cancel != nil {
		m.cancel()
	}
	rt.stats.leaves.Add(1)
	rt.logf("leave: %s (members now %d)", nodeURL, len(nv.members))
	return nil
}

// shardKey reduces a hostname to its consistent-hash key: the
// registered domain when the PSL knows the suffix, the whole hostname
// otherwise (unknown-TLD hosts still shard deterministically).
func (rt *Router) shardKey(host string) string {
	if reg, ok := rt.list.RegisteredDomain(host); ok {
		return reg
	}
	return host
}

func (rt *Router) logf(format string, args ...any) {
	if rt.cfg.Log != nil {
		rt.cfg.Log.Printf(format, args...)
	}
}
