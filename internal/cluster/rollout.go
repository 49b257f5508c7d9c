package cluster

// Two-phase corpus rollout, coordinator side. The invariant the
// protocol buys: within one rollout epoch, no client ever observes a
// generation that was not committed cluster-wide. The coordinator
// drives every node of the current view through three rounds:
//
//	prepare  — ship the corpus bytes to every node's side buffer. Each
//	           ack carries the prepared fingerprint (X-Hoiho-Corpus)
//	           and the serving generation it would supersede
//	           (X-Hoiho-Generation). All prepared fingerprints must
//	           agree — the first ack is the reference, because nodes
//	           running a -classes filter fingerprint the retained
//	           subset, which the coordinator cannot precompute.
//	validate — every node re-acks the same fingerprint and an unmoved
//	           serving generation. A node that lost its side buffer,
//	           reloaded mid-epoch, or died since prepare nacks here.
//	commit   — every node publishes, pinned to the agreed fingerprint.
//
// Any nack or timeout in prepare/validate aborts the epoch: every side
// buffer is dropped and serving state is untouched. Once the commit
// phase starts the target counts as committed — journaled and promoted
// when a journal is configured — and the only repair is forward: a node
// whose commit fails is repaired inside the epoch by the single-node
// prepare→commit the anti-entropy sweep uses (repairNode). A node that
// still misses the target is named in an ErrNotConverged RolloutError
// and left to anti-entropy or the next rollout. No node is ever rolled
// back, so no node serves, or holds on disk, anything but the old
// corpus or the committed target.
//
// The protocol is strictly one epoch at a time (adminMu), and the
// member set is pinned to the view loaded at epoch start, so a
// concurrent join/leave cannot split a phase across two rings.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"hoiho/internal/corpusbin"
	"hoiho/internal/extract"
	"hoiho/internal/faultinject"
)

// maxRolloutBodyBytes caps a corpus accepted by POST /-/rollout,
// matching the node-side prepare cap.
const maxRolloutBodyBytes = 64 << 20

// RolloutResult reports a committed epoch: the cluster-wide fingerprint
// and each node's new serving generation.
type RolloutResult struct {
	Fingerprint string       `json:"fingerprint"`
	Nodes       []NodeCommit `json:"nodes"`
}

// NodeCommit is one node's post-commit identity.
type NodeCommit struct {
	Node       string `json:"node"`
	Generation uint64 `json:"generation"`
}

// phaseAck is one node's answer to one rollout phase.
type phaseAck struct {
	node string
	fp   string
	gen  uint64
	err  error
}

// Rollout drives one two-phase corpus swap across the whole cluster.
// data is the corpus to ship (HBC or JSON — nodes sniff). holdValidate,
// when positive, pauses between prepare and validate; it exists so
// chaos tests and the CI smoke script can widen the window in which to
// kill a node mid-epoch. A failure before commit aborts the epoch; a
// failure in commit is repaired forward, and only nodes that still miss
// the target fail the call (ErrNotConverged). The returned RolloutError
// names the phase and node that broke it.
func (rt *Router) Rollout(ctx context.Context, data []byte, holdValidate time.Duration) (*RolloutResult, error) {
	if !rt.adminMu.TryLock() {
		return nil, ErrRolloutInProgress
	}
	defer rt.adminMu.Unlock()
	return rt.rolloutLocked(ctx, data, holdValidate)
}

// rolloutLocked is the epoch body, factored out so journal resume can
// roll forward while already holding adminMu.
func (rt *Router) rolloutLocked(ctx context.Context, data []byte, holdValidate time.Duration) (*RolloutResult, error) {
	v := rt.view.Load()
	members := v.members
	if len(members) == 0 {
		return nil, ErrNoMembers
	}

	plan, err := rt.planEpoch(ctx, members, data)
	if err != nil {
		return nil, err
	}
	if err := rt.journalPhase(ctx, plan, phasePrepare, ""); err != nil {
		return nil, err
	}

	// Phase 1: prepare. Ship each node its planned payload — the HBD
	// patch when the node's live fingerprint matched the delta base at
	// planning time, the full corpus otherwise. A node that nacks its
	// delta with a base mismatch (it diverged between planning and
	// prepare, or its filter makes its fingerprint incomparable) is
	// retried immediately with the full corpus; only a full-corpus
	// failure aborts the epoch. All prepared fingerprints must agree.
	preps := rt.phaseFanout(ctx, "prepare", members, func(pctx context.Context, m *member) (string, uint64, error) {
		return rt.prepareNode(pctx, m, plan.epoch, plan.deltaFor(m.name), plan.full)
	})
	var fp string
	for _, a := range preps {
		if a.err != nil {
			rt.abortEpoch(ctx, plan, members, "prepare", a.node, a.err)
			return nil, &RolloutError{Phase: "prepare", Node: a.node, Err: a.err}
		}
		if fp == "" {
			fp = a.fp
		} else if a.fp != fp {
			err := fmt.Errorf("cluster: prepared fingerprint %s disagrees with reference %s (mismatched corpus or class filters across nodes)", a.fp, fp)
			rt.abortEpoch(ctx, plan, members, "prepare", a.node, err)
			return nil, &RolloutError{Phase: "prepare", Node: a.node, Err: err}
		}
	}
	if err := rt.journalPhase(ctx, plan, phaseValidate, fp); err != nil {
		rt.abortEpoch(ctx, plan, members, "prepare", "", err)
		return nil, &RolloutError{Phase: "prepare", Err: err}
	}

	// Optional hold between phases (chaos/test hook), bounded by ctx.
	if holdValidate > 0 {
		t := time.NewTimer(holdValidate)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			rt.abortEpoch(ctx, plan, members, "validate", "", ctx.Err())
			return nil, &RolloutError{Phase: "validate", Err: ctx.Err()}
		}
	}

	// Phase 2: validate. Every node must still hold the agreed corpus
	// over the generation it acked at prepare.
	vals := rt.phaseFanout(ctx, "validate", members, func(pctx context.Context, m *member) (string, uint64, error) {
		return rt.rolloutPost(pctx, "validate", m, "/-/rollout/validate", "", nil)
	})
	for i, a := range vals {
		err := a.err
		if err == nil && a.fp != fp {
			err = fmt.Errorf("cluster: validate acked fingerprint %s, epoch agreed on %s", a.fp, fp)
		}
		if err == nil && a.gen != preps[i].gen {
			err = fmt.Errorf("cluster: serving generation moved from %d to %d during the epoch", preps[i].gen, a.gen)
		}
		if err != nil {
			rt.abortEpoch(ctx, plan, members, "validate", a.node, err)
			return nil, &RolloutError{Phase: "validate", Node: a.node, Err: err}
		}
	}
	if err := rt.journalPhase(ctx, plan, phaseCommit, fp); err != nil {
		rt.abortEpoch(ctx, plan, members, "validate", "", err)
		return nil, &RolloutError{Phase: "validate", Err: err}
	}

	// Phase 3: commit, pinned to the agreed fingerprint. The target is
	// committed from here on: a node whose commit fails is repaired
	// forward, never rolled back. The operator hanging up must not
	// split the fleet between the old corpus and the target, so the
	// rest of the epoch runs detached from ctx's cancellation, each
	// call still bounded by RolloutPhaseTimeout.
	ctx = context.WithoutCancel(ctx)
	coms := rt.phaseFanout(ctx, "commit", members, func(pctx context.Context, m *member) (string, uint64, error) {
		return rt.rolloutPost(pctx, "commit", m, "/-/rollout/commit", "fingerprint="+fp, nil)
	})
	var missed []string
	for i, a := range coms {
		if a.err == nil {
			continue
		}
		m := members[i]
		rt.logf("rollout: epoch %d: commit failed on %s, repairing forward: %v", plan.epoch, m.name, a.err)
		gen, err := rt.repairNode(ctx, m, plan.epoch, fp, plan.deltaFor(m.name), plan.full)
		if err != nil {
			rt.logf("rollout: epoch %d: %s still misses %s: %v", plan.epoch, m.name, fp, err)
			missed = append(missed, m.name)
			continue
		}
		coms[i].gen = gen
	}

	// Rotate the journal's corpus files and make the outcome durable.
	// Failures here are logged, never surfaced as a rollout error —
	// returning one would claim the fleet is not on the target when it
	// is. A journal left at commit resumes as a harmless roll-forward
	// onto the corpus already serving.
	if rt.journal != nil {
		if err := rt.journal.promoteEpoch(); err != nil {
			rt.logf("rollout: epoch %d corpus rotation: %v", plan.epoch, err)
		} else {
			rt.base = plan.next
		}
	}
	if err := rt.journalPhase(ctx, plan, phaseCommitted, fp); err != nil {
		rt.logf("rollout: epoch %d: %v", plan.epoch, err)
	}

	rt.stats.rollouts.Add(1)
	if len(missed) > 0 {
		return nil, &RolloutError{Phase: "commit", Node: strings.Join(missed, ", "), Err: ErrNotConverged}
	}
	res := &RolloutResult{Fingerprint: fp, Nodes: make([]NodeCommit, len(coms))}
	for i, a := range coms {
		res.Nodes[i] = NodeCommit{Node: a.node, Generation: a.gen}
	}
	rt.logf("rollout: epoch %d committed %s on %d nodes (%d via delta); plan: %s", plan.epoch, fp, len(coms), len(plan.useDelta), plan.steps)
	return res, nil
}

// epochPlan is one rollout epoch's payload plan: the full target corpus
// (always shipped on the fallback path and persisted at commit), the
// optional HBD patch against the journaled committed corpus, and which
// members were planned to receive it.
type epochPlan struct {
	epoch    uint64
	targetFP string // coordinator-side fingerprint of the unfiltered target
	full     []byte
	delta    []byte // nil when no delta applies this epoch
	useDelta map[string]bool
	nodes    []journalNode
	// next is the target as the committed base the following epoch
	// diffs against, installed once this epoch commits; nil without a
	// journal.
	next  *committedBase
	steps planSteps
}

// planSteps times the coordinator's own work in an epoch, reported on
// the commit log line so an operator can see where an epoch's time went
// without a profiler.
type planSteps struct {
	base    time.Duration // read committed.corpus, check or load the cached base
	decode  time.Duration // reduce the posted corpus to canonical records
	encode  time.Duration // the one encoder pass: full bytes and patch
	write   time.Duration // write epoch.corpus
	journal time.Duration // every journal record of the epoch
}

func (s planSteps) String() string {
	ms := func(d time.Duration) string { return strconv.FormatFloat(float64(d)/1e6, 'f', 1, 64) }
	return "base " + ms(s.base) + "ms, decode " + ms(s.decode) + "ms, encode+diff " + ms(s.encode) +
		"ms, epoch corpus " + ms(s.write) + "ms, journal " + ms(s.journal) + "ms"
}

// deltaFor is the HBD patch planned for the named member, nil when it
// gets the full corpus.
func (p *epochPlan) deltaFor(name string) []byte {
	if p.useDelta[name] {
		return p.delta
	}
	return nil
}

// planEpoch allocates the epoch number and decides per-node payloads.
// Without a journal the plan is the legacy one — ship the operator's
// bytes to everyone (an HBD patch is refused: there is no durable base
// to resolve it against). With a journal the target is reduced to
// canonical records and encoded once (planTarget) against the committed
// base — the in-memory cache when its bytes still equal
// committed.corpus, the file decoded otherwise — into canonical HBC
// bytes, persisted as the epoch corpus, and the HBD patch; members
// whose reported live fingerprint equals the base's get the patch.
func (rt *Router) planEpoch(ctx context.Context, members []*member, data []byte) (*epochPlan, error) {
	plan := &epochPlan{
		epoch:    rt.epoch.Add(1),
		full:     data,
		useDelta: make(map[string]bool),
		nodes:    make([]journalNode, len(members)),
	}
	for i, m := range members {
		plan.nodes[i] = journalNode{Node: m.name}
	}
	if rt.journal == nil {
		if corpusbin.IsHBD(data) {
			return nil, fmt.Errorf("cluster: rollout: an HBD delta needs the journaled committed corpus as its base; start the coordinator with a journal path")
		}
		return plan, nil
	}

	start := time.Now()
	committed, err := rt.journal.readCommitted()
	if err != nil {
		return nil, err
	}
	base, err := rt.committedBaseFor(committed)
	if err != nil {
		// A damaged committed corpus must not block rollouts; it
		// only costs this epoch its deltas.
		rt.logf("rollout: committed corpus unreadable, full sends this epoch: %v", err)
	}
	plan.steps.base = time.Since(start)
	tp, err := planTarget(base, data)
	if err != nil {
		return nil, err
	}
	plan.full, plan.delta, plan.next = tp.full, tp.delta, tp.next
	plan.targetFP = extract.FormatFingerprint(tp.fp)
	plan.steps.decode, plan.steps.encode = tp.decode, tp.encode

	if plan.delta != nil {
		baseFP := extract.FormatFingerprint(base.Fingerprint)
		fps := rt.memberFingerprints(ctx, members)
		for i, m := range members {
			if fps[i] == baseFP {
				plan.useDelta[m.name] = true
				plan.nodes[i].Delta = true
			}
		}
		rt.logf("rollout: epoch %d: delta %d bytes vs full %d bytes, %d/%d members eligible",
			plan.epoch, len(plan.delta), len(plan.full), len(plan.useDelta), len(members))
	}
	start = time.Now()
	if err := rt.journal.writeEpochCorpus(plan.full); err != nil {
		return nil, err
	}
	plan.steps.write = time.Since(start)
	return plan, nil
}

// journalPhase makes the phase about to run durable; a no-op without a
// journal. fp overrides the plan's target fingerprint once the prepare
// acks have agreed on the cluster-wide one.
func (rt *Router) journalPhase(ctx context.Context, plan *epochPlan, phase, fp string) error {
	if rt.journal == nil {
		return nil
	}
	if fp == "" {
		fp = plan.targetFP
	}
	start := time.Now()
	defer func() { plan.steps.journal += time.Since(start) }()
	return rt.journal.record(ctx, &journalState{
		Epoch: plan.epoch, TargetFP: fp, Phase: phase, Nodes: plan.nodes,
	})
}

// abortEpoch ends an epoch that failed before commit: every node's
// side buffer is dropped, the abort is accounted, and the aborted
// outcome is journaled. Best effort by design: an abort that cannot
// reach a node leaves only an inert side buffer behind (it never
// serves, and the next prepare overwrites it), and an unrecorded abort
// merely costs a redundant abort round on the next resume.
func (rt *Router) abortEpoch(ctx context.Context, plan *epochPlan, members []*member, phase, node string, cause error) {
	for _, m := range members {
		rt.abortNode(ctx, m)
	}
	rt.stats.aborted.Add(1)
	rt.logf("rollout: epoch aborted in %s at %s: %v", phase, node, cause)
	if rt.journal == nil {
		return
	}
	if err := rt.journal.record(ctx, &journalState{
		Epoch: plan.epoch, TargetFP: plan.targetFP, Phase: phaseAborted, Nodes: plan.nodes,
	}); err != nil {
		rt.logf("rollout: journaling abort of epoch %d: %v", plan.epoch, err)
	}
}

// memberFingerprints reads every member's live corpus fingerprint
// concurrently; unreachable members report "" and fall onto the
// full-corpus path.
func (rt *Router) memberFingerprints(ctx context.Context, members []*member) []string {
	fps := make([]string, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			fps[i], _, _ = rt.nodeStatus(ctx, m)
		}(i, m)
	}
	wg.Wait()
	return fps
}

// nodeStatus asks one node's /statusz for its live fingerprint and
// serving generation, bounded by ProbeTimeout.
func (rt *Router) nodeStatus(ctx context.Context, m *member) (fp string, gen uint64, err error) {
	pctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, m.endpoint("/statusz"), nil)
	if err != nil {
		return "", 0, fmt.Errorf("cluster: status of %s: %w", m.name, err)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return "", 0, fmt.Errorf("cluster: status of %s: %w", m.name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", 0, fmt.Errorf("cluster: status of %s: %d", m.name, resp.StatusCode)
	}
	var st struct {
		Fingerprint string `json:"fingerprint"`
		Generation  uint64 `json:"generation"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&st); err != nil {
		return "", 0, fmt.Errorf("cluster: status of %s: %w", m.name, err)
	}
	return st.Fingerprint, st.Generation, nil
}

// phaseFanout runs one phase against every member concurrently, each
// call bounded by RolloutPhaseTimeout, and collects the acks in member
// order.
func (rt *Router) phaseFanout(ctx context.Context, phase string, members []*member, call func(context.Context, *member) (string, uint64, error)) []phaseAck {
	acks := make([]phaseAck, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, rt.cfg.RolloutPhaseTimeout)
			defer cancel()
			fp, gen, err := call(pctx, m)
			acks[i] = phaseAck{node: m.name, fp: fp, gen: gen, err: err}
		}(i, m)
	}
	wg.Wait()
	return acks
}

// rolloutPost performs one phase call against one node and decodes the
// ack headers. The faultinject hook (keyed "<phase>:<node>") lets chaos
// tests break specific nodes in specific phases deterministically.
func (rt *Router) rolloutPost(ctx context.Context, phase string, m *member, path, rawQuery string, body []byte) (string, uint64, error) {
	if err := faultinject.Fire(ctx, faultinject.StageClusterRollout, phase+":"+m.name); err != nil {
		return "", 0, err
	}
	u := *m.base
	u.Path, u.RawQuery = path, rawQuery
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u.String(), rd)
	if err != nil {
		return "", 0, fmt.Errorf("cluster: rollout %s request: %w", phase, err)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return "", 0, fmt.Errorf("cluster: rollout %s call: %w", phase, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		if resp.Header.Get("X-Hoiho-Rollout-Nack") == "base-mismatch" {
			return "", 0, fmt.Errorf("cluster: rollout %s: %w: %s", phase, ErrBaseMismatchNack, bytes.TrimSpace(b))
		}
		return "", 0, fmt.Errorf("cluster: rollout %s nacked with %d: %s", phase, resp.StatusCode, bytes.TrimSpace(b))
	}
	fp := resp.Header.Get("X-Hoiho-Corpus")
	if fp == "" {
		return "", 0, fmt.Errorf("cluster: rollout %s ack carries no X-Hoiho-Corpus proof", phase)
	}
	gen, err := strconv.ParseUint(resp.Header.Get("X-Hoiho-Generation"), 10, 64)
	if err != nil {
		return "", 0, fmt.Errorf("cluster: rollout %s ack generation: %w", phase, err)
	}
	return fp, gen, nil
}

// abortNode drops one node's side buffer. No faultinject hook here: the
// abort path is the protocol's safety net and must stay maximally
// reliable even under injected chaos, so it also ignores ctx's
// cancellation — an epoch aborted because its caller went away still
// clears every side buffer — and is bounded by RolloutPhaseTimeout
// alone.
func (rt *Router) abortNode(ctx context.Context, m *member) {
	pctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), rt.cfg.RolloutPhaseTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodPost, m.endpoint("/-/rollout/abort"), nil)
	if err != nil {
		return
	}
	if resp, err := rt.client.Do(req); err == nil {
		resp.Body.Close()
	}
}

// prepareNode stages the target on one node: the HBD patch when delta
// is non-nil, resent as the full corpus if the node nacks the patch's
// base (it diverged since planning, or its class filter makes its
// fingerprint incomparable).
func (rt *Router) prepareNode(ctx context.Context, m *member, epoch uint64, delta, full []byte) (string, uint64, error) {
	q := "epoch=" + strconv.FormatUint(epoch, 10)
	if delta != nil {
		fp, gen, err := rt.rolloutPost(ctx, "prepare", m, "/-/rollout/prepare", q, delta)
		if !errors.Is(err, ErrBaseMismatchNack) {
			return fp, gen, err
		}
		rt.logf("rollout: %s nacked the delta base; resending the full corpus", m.name)
	}
	return rt.rolloutPost(ctx, "prepare", m, "/-/rollout/prepare", q, full)
}

// repairNode converges one member onto the committed target with a
// single-node prepare→commit and returns its new serving generation.
// It is the one forward repair: the rollout's commit phase runs it on
// nodes whose commit failed, and the anti-entropy sweep on nodes found
// off the committed fingerprint. A node that prepares anything other
// than targetFP (a class filter, or a corpus that mutated in flight) is
// aborted, never committed, and so is one whose commit fails, so a
// repair only ever moves a node toward the target and leaves no side
// buffer behind.
func (rt *Router) repairNode(ctx context.Context, m *member, epoch uint64, targetFP string, delta, full []byte) (uint64, error) {
	pctx, cancel := context.WithTimeout(ctx, rt.cfg.RolloutPhaseTimeout)
	defer cancel()
	fp, _, err := rt.prepareNode(pctx, m, epoch, delta, full)
	if err != nil {
		return 0, err
	}
	if fp != targetFP {
		rt.abortNode(ctx, m)
		return 0, fmt.Errorf("cluster: repair prepared %s, committed target is %s", fp, targetFP)
	}
	cctx, ccancel := context.WithTimeout(ctx, rt.cfg.RolloutPhaseTimeout)
	defer ccancel()
	_, gen, err := rt.rolloutPost(cctx, "commit", m, "/-/rollout/commit", "fingerprint="+fp, nil)
	if err != nil {
		rt.abortNode(ctx, m)
		return 0, err
	}
	return gen, nil
}

// handleRollout is the operator entry point: the corpus arrives in the
// request body, an optional ?hold-validate=DURATION widens the
// prepare→validate window (chaos/CI hook), and the response is the
// committed RolloutResult or the error that aborted the epoch.
func (rt *Router) handleRollout(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(io.LimitReader(r.Body, maxRolloutBodyBytes+1))
	if err != nil {
		http.Error(w, fmt.Sprintf("cluster: reading rollout body: %v", err), http.StatusBadRequest)
		return
	}
	if int64(len(data)) > maxRolloutBodyBytes {
		http.Error(w, fmt.Sprintf("cluster: rollout corpus exceeds %d-byte cap", maxRolloutBodyBytes), http.StatusRequestEntityTooLarge)
		return
	}
	var hold time.Duration
	if hv := r.URL.Query().Get("hold-validate"); hv != "" {
		hold, err = time.ParseDuration(hv)
		if err != nil {
			http.Error(w, fmt.Sprintf("cluster: bad hold-validate: %v", err), http.StatusBadRequest)
			return
		}
	}
	res, err := rt.Rollout(r.Context(), data, hold)
	if err != nil {
		code := http.StatusBadGateway
		if err == ErrRolloutInProgress {
			code = http.StatusConflict
		}
		http.Error(w, err.Error(), code)
		return
	}
	writeJSON(w, http.StatusOK, res)
}
