package cluster

// Journaled rollouts, delta planning, crash recovery, and anti-entropy.
// The crash tests model coordinator death with injected panics at the
// cluster.journal faultinject stage — the panic fires on the Rollout
// goroutine immediately before the named phase record becomes durable,
// which is exactly the window a SIGKILL would hit — then "restart" the
// coordinator as a fresh Router over the same journal directory and
// drive Resume.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hoiho/internal/corpusbin"
	"hoiho/internal/extract"
	"hoiho/internal/faultinject"
	"hoiho/internal/leaktest"
)

// syncBuf is a concurrency-safe log sink: probe loops log from their
// own goroutines, so a bare bytes.Buffer would race the test's reads.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// newJournaledRouter fronts the nodes with a coordinator journaling
// into dir and logging into the returned buffer.
func newJournaledRouter(t testing.TB, nodes []*testNode, dir string, mod func(*Config)) (*Router, *syncBuf) {
	t.Helper()
	buf := &syncBuf{}
	rt := newTestRouter(t, nodes, func(c *Config) {
		c.JournalPath = dir
		c.Log = log.New(buf, "", 0)
		if mod != nil {
			mod(c)
		}
	})
	return rt, buf
}

// reloadNode rewrites a node's corpus file with a variant and reloads,
// modeling a node whose on-disk state diverged from the cluster.
func reloadNode(t testing.TB, n *testNode, corpus []byte) {
	t.Helper()
	if err := os.WriteFile(n.path, corpus, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := n.srv.Reload(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// mustCrash runs fn and requires it to die on an injected panic.
func mustCrash(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected an injected coordinator crash")
		}
	}()
	fn()
}

// TestRolloutDeltaEpoch: the first journaled epoch has no committed
// base and ships full corpora; the second finds every member on the
// committed fingerprint and ships the HBD patch, which commits to the
// same converged state a full rollout would.
func TestRolloutDeltaEpoch(t *testing.T) {
	nodes := newTestNodes(t, 3)
	dir := t.TempDir()
	rt, logs := newJournaledRouter(t, nodes, dir, nil)
	fpSecond := fingerprintOf(t, "second")
	fpFirst := fingerprintOf(t, "first")
	ctx := context.Background()

	if _, err := rt.Rollout(ctx, corpusHBC(t, "second"), 0); err != nil {
		t.Fatalf("epoch 1: %v", err)
	}
	st, err := rt.journal.load()
	if err != nil || st == nil {
		t.Fatalf("journal after epoch 1: %v, %v", st, err)
	}
	if st.Epoch != 1 || st.Phase != phaseCommitted || st.TargetFP != fpSecond {
		t.Fatalf("journal after epoch 1 = %+v", st)
	}
	for _, jn := range st.Nodes {
		if jn.Delta {
			t.Errorf("epoch 1 planned a delta for %s with no committed base", jn.Node)
		}
	}
	committed, err := rt.journal.readCommitted()
	if err != nil || !corpusbin.IsHBC(committed) {
		t.Fatal("journal does not hold the committed corpus as canonical HBC")
	}

	res, err := rt.Rollout(ctx, corpusHBC(t, "first"), 0)
	if err != nil {
		t.Fatalf("epoch 2: %v", err)
	}
	if res.Fingerprint != fpFirst {
		t.Fatalf("epoch 2 committed %s, want %s", res.Fingerprint, fpFirst)
	}
	st, _ = rt.journal.load()
	if st.Epoch != 2 || st.Phase != phaseCommitted {
		t.Fatalf("journal after epoch 2 = %+v", st)
	}
	for _, jn := range st.Nodes {
		if !jn.Delta {
			t.Errorf("epoch 2 did not plan a delta for %s despite a matching base", jn.Node)
		}
	}
	if !strings.Contains(logs.String(), "members eligible") {
		t.Error("delta planning left no trace in the coordinator log")
	}
	if !strings.Contains(logs.String(), "committed "+fpFirst+" on 3 nodes (3 via delta); plan: base ") {
		t.Errorf("the epoch's commit line carries no plan step times:\n%s", logs)
	}
	for i, n := range nodes {
		fp, prepared := nodeFP(t, n)
		if fp != fpFirst || prepared != "" {
			t.Errorf("node %d: fp %s prepared %q after delta epoch", i, fp, prepared)
		}
		lr := n.srv.StatusNow().LastRollout
		if lr == nil || lr.Epoch != 2 || lr.Outcome != "committed" {
			t.Errorf("node %d last_rollout = %+v, want committed epoch 2", i, lr)
		}
	}
	// prev.corpus now holds the epoch-1 target: the delta base for
	// healing a node that missed exactly this epoch.
	prev, err := rt.journal.readPrev()
	if err != nil || prev == nil {
		t.Fatal("commit did not rotate the previous committed corpus")
	}
	if c, err := extract.Load(bytes.NewReader(prev)); err != nil || c.FingerprintString() != fpSecond {
		t.Errorf("prev corpus fingerprints wrong: %v", err)
	}
}

// TestRolloutV1CommittedFullSendThenDelta: a journal whose committed
// corpus a version 1 coordinator wrote (testdata/first-v1.hbc, the
// "first" corpus with its program table) costs exactly one epoch its
// deltas. That epoch cannot read the base, ships full corpora and
// commits a current-version corpus; the next epoch diffs against it
// and ships the patch.
func TestRolloutV1CommittedFullSendThenDelta(t *testing.T) {
	nodes := newTestNodes(t, 3)
	rt, logs := newJournaledRouter(t, nodes, t.TempDir(), nil)
	v1, err := os.ReadFile(filepath.Join("testdata", "first-v1.hbc"))
	if err != nil {
		t.Fatal(err)
	}
	if v1[3] != 1 || extract.FormatFingerprint(binary.LittleEndian.Uint64(v1[4:])) != fingerprintOf(t, "first") {
		t.Fatal("testdata/first-v1.hbc is not the first corpus in version 1")
	}
	if err := os.WriteFile(rt.journal.committedPath(), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	deltas := func(epoch uint64) int {
		t.Helper()
		st, err := rt.journal.load()
		if err != nil || st == nil || st.Epoch != epoch || st.Phase != phaseCommitted {
			t.Fatalf("journal after epoch %d = %+v, %v", epoch, st, err)
		}
		n := 0
		for _, jn := range st.Nodes {
			if jn.Delta {
				n++
			}
		}
		return n
	}

	if _, err := rt.Rollout(ctx, corpusHBC(t, "second"), 0); err != nil {
		t.Fatalf("epoch 1: %v", err)
	}
	if n := deltas(1); n != 0 {
		t.Errorf("epoch 1 planned %d deltas against a version 1 base", n)
	}
	if !strings.Contains(logs.String(), "full sends this epoch") || !strings.Contains(logs.String(), "version 1") {
		t.Errorf("the unreadable version 1 base left no trace in the coordinator log:\n%s", logs)
	}
	committed, err := rt.journal.readCommitted()
	if err != nil || !corpusbin.IsHBC(committed) || committed[3] != corpusbin.Magic[3] {
		t.Fatalf("epoch 1 did not commit a current-version corpus: %v", err)
	}

	if _, err := rt.Rollout(ctx, corpusHBC(t, "first"), 0); err != nil {
		t.Fatalf("epoch 2: %v", err)
	}
	if n := deltas(2); n != len(nodes) {
		t.Errorf("epoch 2 planned %d deltas, want one per node (%d)", n, len(nodes))
	}
	for i, n := range nodes {
		if fp, _ := nodeFP(t, n); fp != fingerprintOf(t, "first") {
			t.Errorf("node %d serves %s after epoch 2", i, fp)
		}
	}
}

// TestRolloutAcceptsHBDPatch: the operator surface takes a patch
// directly — hoiho -diff output POSTed to /-/rollout — and the
// coordinator resolves it against the journaled committed corpus.
func TestRolloutAcceptsHBDPatch(t *testing.T) {
	nodes := newTestNodes(t, 3)
	rt, _ := newJournaledRouter(t, nodes, t.TempDir(), nil)
	fpThird := fingerprintOf(t, "third")
	ctx := context.Background()

	if _, err := rt.Rollout(ctx, corpusHBC(t, "second"), 0); err != nil {
		t.Fatal(err)
	}
	// Diff from the journaled base to the next target, as hoiho -diff
	// would against the same corpus files.
	committed, _ := rt.journal.readCommitted()
	base, err := extract.Load(bytes.NewReader(committed))
	if err != nil {
		t.Fatal(err)
	}
	target, err := extract.Load(bytes.NewReader(corpusHBC(t, "third")))
	if err != nil {
		t.Fatal(err)
	}
	var patch bytes.Buffer
	if err := extract.Diff(base, target, &patch); err != nil {
		t.Fatal(err)
	}
	res, err := rt.Rollout(ctx, patch.Bytes(), 0)
	if err != nil {
		t.Fatalf("HBD rollout: %v", err)
	}
	if res.Fingerprint != fpThird {
		t.Fatalf("HBD rollout committed %s, want %s", res.Fingerprint, fpThird)
	}
	for i, n := range nodes {
		if fp, _ := nodeFP(t, n); fp != fpThird {
			t.Errorf("node %d serves %s after HBD rollout, want %s", i, fp, fpThird)
		}
	}
}

// TestRolloutHBDRequiresJournal: without a journal there is no durable
// base, so a posted patch is refused before any node is touched.
func TestRolloutHBDRequiresJournal(t *testing.T) {
	nodes := newTestNodes(t, 2)
	rt := newTestRouter(t, nodes, nil)
	baseC, _ := extract.Load(bytes.NewReader(corpusHBC(t, "first")))
	targetC, _ := extract.Load(bytes.NewReader(corpusHBC(t, "second")))
	var patch bytes.Buffer
	if err := extract.Diff(baseC, targetC, &patch); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Rollout(context.Background(), patch.Bytes(), 0); !errors.Is(err, ErrBadCorpus) || !strings.Contains(err.Error(), "-journal") {
		t.Fatalf("journal-less HBD rollout = %v, want a journal-path error", err)
	}
	for i, n := range nodes {
		if fp, _ := nodeFP(t, n); fp != fingerprintOf(t, "first") {
			t.Errorf("node %d changed state on a refused HBD rollout", i)
		}
	}
}

// TestRolloutDeltaNackFallsBackToFull: a node that diverges between
// delta planning and its prepare nacks the patch with a base mismatch;
// the coordinator resends the full corpus to just that node and the
// epoch still commits.
func TestRolloutDeltaNackFallsBackToFull(t *testing.T) {
	nodes := newTestNodes(t, 3)
	rt, logs := newJournaledRouter(t, nodes, t.TempDir(), nil)
	fpThird := fingerprintOf(t, "third")
	ctx := context.Background()

	if _, err := rt.Rollout(ctx, corpusHBC(t, "second"), 0); err != nil {
		t.Fatal(err)
	}
	// Stall node 1's prepare long enough to reload it onto a foreign
	// corpus after the delta plan was made from its old fingerprint.
	restore := faultinject.Activate(&faultinject.Plan{Rules: []faultinject.Rule{
		{Stage: faultinject.StageClusterRollout, Key: "prepare:" + nodes[1].url(),
			Kind: faultinject.KindStall, Prob: 1, Stall: 800 * time.Millisecond},
	}})
	defer restore()
	done := make(chan error, 1)
	go func() {
		_, err := rt.Rollout(ctx, corpusHBC(t, "third"), 0)
		done <- err
	}()
	time.Sleep(150 * time.Millisecond)
	reloadNode(t, nodes[1], corpusHBC(t, "first"))
	if err := <-done; err != nil {
		t.Fatalf("rollout with a mid-epoch divergence: %v", err)
	}
	if !strings.Contains(logs.String(), "nacked the delta base") {
		t.Error("base-mismatch fallback left no trace in the coordinator log")
	}
	for i, n := range nodes {
		if fp, _ := nodeFP(t, n); fp != fpThird {
			t.Errorf("node %d serves %s after nack fallback, want %s", i, fp, fpThird)
		}
	}
}

// TestRolloutSabotagedDeltaNeverCommits: bit-flipped, truncated, and
// wrong-base patches are all rejected at the coordinator before any
// node is contacted, and the fleet keeps serving the committed corpus.
func TestRolloutSabotagedDeltaNeverCommits(t *testing.T) {
	nodes := newTestNodes(t, 3)
	rt, _ := newJournaledRouter(t, nodes, t.TempDir(), nil)
	fpSecond := fingerprintOf(t, "second")
	ctx := context.Background()

	if _, err := rt.Rollout(ctx, corpusHBC(t, "second"), 0); err != nil {
		t.Fatal(err)
	}
	committed, _ := rt.journal.readCommitted()
	base, _ := extract.Load(bytes.NewReader(committed))
	target, _ := extract.Load(bytes.NewReader(corpusHBC(t, "third")))
	var patch bytes.Buffer
	if err := extract.Diff(base, target, &patch); err != nil {
		t.Fatal(err)
	}
	good := patch.Bytes()

	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x20
	wrongBase, _ := extract.Load(bytes.NewReader(corpusHBC(t, "first")))
	var foreign bytes.Buffer
	if err := extract.Diff(wrongBase, target, &foreign); err != nil {
		t.Fatal(err)
	}
	sabotaged := map[string][]byte{
		"bit-flipped": flipped,
		"truncated":   good[:len(good)/2],
		"wrong-base":  foreign.Bytes(),
	}
	for name, data := range sabotaged {
		if _, err := rt.Rollout(ctx, data, 0); err == nil {
			t.Fatalf("%s delta committed", name)
		}
	}
	if _, err := rt.Rollout(ctx, foreign.Bytes(), 0); !errors.Is(err, corpusbin.ErrDeltaBaseMismatch) {
		t.Errorf("wrong-base delta = %v, want ErrDeltaBaseMismatch", err)
	}
	for i, n := range nodes {
		fp, prepared := nodeFP(t, n)
		if fp != fpSecond || prepared != "" {
			t.Errorf("node %d: fp %s prepared %q after sabotaged deltas", i, fp, prepared)
		}
	}
	if st, _ := rt.journal.load(); st == nil || st.Phase != phaseCommitted || st.TargetFP != fpSecond {
		t.Errorf("journal moved off the committed epoch: %+v", st)
	}
}

// TestResumeAbortsCrashBeforeValidate: a coordinator that dies after
// prepare but before the validate record leaves side buffers staged and
// nothing published; its successor aborts the epoch cleanly and can
// roll out again.
func TestResumeAbortsCrashBeforeValidate(t *testing.T) {
	nodes := newTestNodes(t, 3)
	dir := t.TempDir()
	rtA, _ := newJournaledRouter(t, nodes, dir, nil)
	fpFirst := fingerprintOf(t, "first")
	fpSecond := fingerprintOf(t, "second")
	ctx := context.Background()

	restore := faultinject.Activate(&faultinject.Plan{Rules: []faultinject.Rule{
		{Stage: faultinject.StageClusterJournal, Key: phaseValidate,
			Kind: faultinject.KindPanic, Prob: 1},
	}})
	mustCrash(t, func() { rtA.Rollout(ctx, corpusHBC(t, "second"), 0) })
	restore()

	// The crash left prepared corpora staged on every node.
	for i, n := range nodes {
		if _, prepared := nodeFP(t, n); prepared == "" {
			t.Errorf("node %d lost its side buffer in the crash window", i)
		}
	}
	rtB, logsB := newJournaledRouter(t, nodes, dir, nil)
	if err := rtB.Resume(ctx); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !strings.Contains(logsB.String(), "aborted cleanly") {
		t.Error("resume did not report the clean abort")
	}
	st, _ := rtB.journal.load()
	if st == nil || st.Phase != phaseAborted || st.Epoch != 1 {
		t.Fatalf("journal after resume = %+v, want epoch 1 aborted", st)
	}
	for i, n := range nodes {
		fp, prepared := nodeFP(t, n)
		if fp != fpFirst || prepared != "" {
			t.Errorf("node %d: fp %s prepared %q after resume abort", i, fp, prepared)
		}
	}
	// The successor coordinator is fully operational, on a fresh epoch.
	res, err := rtB.Rollout(ctx, corpusHBC(t, "second"), 0)
	if err != nil || res.Fingerprint != fpSecond {
		t.Fatalf("post-resume rollout = %v, %v", res, err)
	}
	if st, _ := rtB.journal.load(); st.Epoch != 2 {
		t.Errorf("post-resume epoch = %d, want 2", st.Epoch)
	}
}

// TestResumeRollsForwardCrashMidCommit: a coordinator that dies after
// the commit record may have published on some nodes; its successor
// rolls the epoch forward to the journaled target and the fleet
// converges.
func TestResumeRollsForwardCrashMidCommit(t *testing.T) {
	nodes := newTestNodes(t, 3)
	dir := t.TempDir()
	rtA, _ := newJournaledRouter(t, nodes, dir, nil)
	fpFirst := fingerprintOf(t, "first")
	ctx := context.Background()

	if _, err := rtA.Rollout(ctx, corpusHBC(t, "second"), 0); err != nil {
		t.Fatal(err)
	}
	// Die on the committed record: the commit fanout has run (all nodes
	// published) and the corpus files have rotated, but the journal
	// still says commit.
	restore := faultinject.Activate(&faultinject.Plan{Rules: []faultinject.Rule{
		{Stage: faultinject.StageClusterJournal, Key: phaseCommitted,
			Kind: faultinject.KindPanic, Prob: 1},
	}})
	mustCrash(t, func() { rtA.Rollout(ctx, corpusHBC(t, "first"), 0) })
	restore()
	st, _ := rtA.journal.load()
	if st == nil || st.Phase != phaseCommit || st.Epoch != 2 {
		t.Fatalf("journal after crash = %+v, want epoch 2 in commit", st)
	}

	rtB, logsB := newJournaledRouter(t, nodes, dir, nil)
	if err := rtB.Resume(ctx); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !strings.Contains(logsB.String(), "rolling forward") {
		t.Error("resume did not report the roll-forward")
	}
	st, _ = rtB.journal.load()
	if st == nil || st.Phase != phaseCommitted || st.TargetFP != fpFirst {
		t.Fatalf("journal after roll-forward = %+v, want %s committed", st, fpFirst)
	}
	if st.Epoch != 3 {
		t.Errorf("roll-forward epoch = %d, want a fresh epoch 3", st.Epoch)
	}
	for i, n := range nodes {
		fp, prepared := nodeFP(t, n)
		if fp != fpFirst || prepared != "" {
			t.Errorf("node %d: fp %s prepared %q after roll-forward", i, fp, prepared)
		}
	}
}

// TestRolloutCommitFailureJournaled: with a journal, a commit that
// fails once is repaired inside the epoch, the epoch is journaled
// committed with the target as committed.corpus, and the fleet is
// already converged, so the next sweep has nothing to repair.
func TestRolloutCommitFailureJournaled(t *testing.T) {
	nodes := newTestNodes(t, 3)
	rt, _ := newJournaledRouter(t, nodes, t.TempDir(), nil)
	fpSecond := fingerprintOf(t, "second")
	ctx := context.Background()

	restore := faultinject.Activate(&faultinject.Plan{Rules: []faultinject.Rule{
		{Stage: faultinject.StageClusterRollout, Key: "commit:" + nodes[1].url(),
			Kind: faultinject.KindError, Prob: 1, Times: 1},
	}})
	_, err := rt.Rollout(ctx, corpusHBC(t, "second"), 0)
	restore()
	if err != nil {
		t.Fatalf("rollout with a repaired commit failure = %v, want success", err)
	}
	requireCommitted(t, rt, fpSecond)
	rt.antiEntropySweep(ctx)
	if n := rt.stats.repairs.Load() + rt.stats.repairFails.Load(); n != 0 {
		t.Errorf("sweep after an in-epoch repair attempted %d repairs, want 0", n)
	}
	for _, n := range nodes {
		requireServesAndHolds(t, n, fpSecond)
	}
}

// TestRolloutCommitSurvivesCallerCancel: an operator who hangs up after
// the commit record is journaled cannot split the fleet between the old
// corpus and the target. The commit calls, held in flight by a stall on
// every node, outlive the cancellation, and every node ends on the
// target.
func TestRolloutCommitSurvivesCallerCancel(t *testing.T) {
	nodes := newTestNodes(t, 3)
	rt, _ := newJournaledRouter(t, nodes, t.TempDir(), nil)
	fpSecond := fingerprintOf(t, "second")

	var rules []faultinject.Rule
	for _, n := range nodes {
		rules = append(rules, faultinject.Rule{Stage: faultinject.StageClusterRollout, Key: "commit:" + n.url(),
			Kind: faultinject.KindStall, Prob: 1, Stall: 300 * time.Millisecond})
	}
	restore := faultinject.Activate(&faultinject.Plan{Rules: rules})
	defer restore()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := rt.Rollout(ctx, corpusHBC(t, "second"), 0)
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st, _ := rt.journal.load(); st != nil && st.Phase == phaseCommit {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the epoch never journaled its commit record")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("rollout whose caller hung up during commit = %v, want success", err)
	}
	requireCommitted(t, rt, fpSecond)
	for _, n := range nodes {
		requireServesAndHolds(t, n, fpSecond)
	}
}

// TestRolloutCommitNotConverged: when the in-epoch repair fails too,
// the rollout names the node in an ErrNotConverged commit error, the
// journal still says committed, the node keeps the old corpus on disk
// and in memory, and one sweep converges it once the fault lifts.
func TestRolloutCommitNotConverged(t *testing.T) {
	nodes := newTestNodes(t, 3)
	rt, _ := newJournaledRouter(t, nodes, t.TempDir(), nil)
	fpFirst := fingerprintOf(t, "first")
	fpSecond := fingerprintOf(t, "second")
	ctx := context.Background()

	restore := faultinject.Activate(&faultinject.Plan{Rules: []faultinject.Rule{
		{Stage: faultinject.StageClusterRollout, Key: "commit:" + nodes[2].url(),
			Kind: faultinject.KindError, Prob: 1},
	}})
	_, err := rt.Rollout(ctx, corpusHBC(t, "second"), 0)
	restore()
	var re *RolloutError
	if !errors.Is(err, ErrNotConverged) || !errors.As(err, &re) || re.Phase != "commit" || re.Node != nodes[2].url() {
		t.Fatalf("rollout = %v, want an ErrNotConverged commit error naming node 2", err)
	}
	requireCommitted(t, rt, fpSecond)
	requireServesAndHolds(t, nodes[0], fpSecond)
	requireServesAndHolds(t, nodes[1], fpSecond)
	requireServesAndHolds(t, nodes[2], fpFirst)
	if _, prepared := nodeFP(t, nodes[2]); prepared != "" {
		t.Error("failed repair left a prepared corpus on node 2")
	}

	rt.antiEntropySweep(ctx)
	for _, n := range nodes {
		requireServesAndHolds(t, n, fpSecond)
	}
	if rt.stats.repairs.Load() != 1 {
		t.Errorf("repairs = %d, want 1", rt.stats.repairs.Load())
	}
}

// requireCommitted checks that the journal records fp as the committed
// target and holds it as committed.corpus.
func requireCommitted(t *testing.T, rt *Router, fp string) {
	t.Helper()
	st, err := rt.journal.load()
	if err != nil || st == nil || st.Phase != phaseCommitted || st.TargetFP != fp {
		t.Fatalf("journal = %+v (%v), want %s committed", st, err, fp)
	}
	committed, err := rt.journal.readCommitted()
	if err != nil {
		t.Fatal(err)
	}
	c, err := extract.Load(bytes.NewReader(committed))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.FingerprintString(); got != fp {
		t.Errorf("committed.corpus is %s, want %s", got, fp)
	}
}

// TestAntiEntropyHealsDivergence: the sweep repairs a node restored
// from a stale disk image (full-corpus repair), a node exactly one
// epoch behind (delta repair from prev.corpus), and a node that left
// before an epoch and rejoined after it — all without operator action.
func TestAntiEntropyHealsDivergence(t *testing.T) {
	nodes := newTestNodes(t, 3)
	rt, logs := newJournaledRouter(t, nodes, t.TempDir(), nil)
	fpSecond := fingerprintOf(t, "second")
	fpThird := fingerprintOf(t, "third")
	ctx := context.Background()

	if _, err := rt.Rollout(ctx, corpusHBC(t, "second"), 0); err != nil {
		t.Fatal(err)
	}
	// Stale disk image: node 2 reloads a corpus from before the epoch.
	reloadNode(t, nodes[2], corpusHBC(t, "first"))
	rt.antiEntropySweep(ctx)
	if fp, _ := nodeFP(t, nodes[2]); fp != fpSecond {
		t.Fatalf("sweep did not repair the stale node: serves %s", fp)
	}
	if rt.stats.repairs.Load() != 1 {
		t.Errorf("repairs = %d, want 1", rt.stats.repairs.Load())
	}

	// One epoch behind: after the next rollout, prev.corpus is the
	// epoch-1 target; a node reloaded onto it is repaired by delta.
	if _, err := rt.Rollout(ctx, corpusHBC(t, "third"), 0); err != nil {
		t.Fatal(err)
	}
	prev, _ := rt.journal.readPrev()
	reloadNode(t, nodes[1], prev)
	rt.antiEntropySweep(ctx)
	if fp, _ := nodeFP(t, nodes[1]); fp != fpThird {
		t.Fatalf("sweep did not repair the one-epoch-stale node: serves %s", fp)
	}
	if !strings.Contains(logs.String(), "delta=true") {
		t.Error("one-epoch repair did not use the prev→committed delta")
	}

	// Rejoin across an epoch: node 0 leaves, misses a rollout, rejoins
	// still serving the old corpus; the sweep converges it.
	if err := rt.Leave(nodes[0].url()); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Rollout(ctx, corpusHBC(t, "second"), 0); err != nil {
		t.Fatal(err)
	}
	if err := rt.Join(ctx, nodes[0].url()); err != nil {
		t.Fatal(err)
	}
	if fp, _ := nodeFP(t, nodes[0]); fp != fpThird {
		t.Fatalf("rejoined node unexpectedly serves %s", fp)
	}
	rt.antiEntropySweep(ctx)
	if fp, _ := nodeFP(t, nodes[0]); fp != fpSecond {
		t.Fatalf("sweep did not heal the rejoined node: serves %s", fp)
	}
	if got := rt.stats.repairs.Load(); got != 3 {
		t.Errorf("repairs = %d, want 3", got)
	}
	if rt.stats.sweeps.Load() != 3 {
		t.Errorf("sweeps = %d, want 3", rt.stats.sweeps.Load())
	}
	// A converged fleet sweeps clean: no further repairs.
	rt.antiEntropySweep(ctx)
	if rt.stats.repairs.Load() != 3 {
		t.Error("sweep of a converged fleet attempted repairs")
	}
	st := rt.StatusNow()
	if st.AntiEntropySweeps != 4 || st.AntiEntropyRepairs != 3 || st.AntiEntropyRepairFails != 0 {
		t.Errorf("status counters = %d/%d/%d, want 4/3/0",
			st.AntiEntropySweeps, st.AntiEntropyRepairs, st.AntiEntropyRepairFails)
	}
}

// TestAntiEntropyRepairFaultFailsClosed: an injected failure on the
// repair path leaves the divergent node untouched and accounted as a
// failed repair; the next sweep heals it.
func TestAntiEntropyRepairFaultFailsClosed(t *testing.T) {
	nodes := newTestNodes(t, 2)
	rt, _ := newJournaledRouter(t, nodes, t.TempDir(), nil)
	fpFirst := fingerprintOf(t, "first")
	fpSecond := fingerprintOf(t, "second")
	ctx := context.Background()

	if _, err := rt.Rollout(ctx, corpusHBC(t, "second"), 0); err != nil {
		t.Fatal(err)
	}
	reloadNode(t, nodes[1], corpusHBC(t, "first"))

	restore := faultinject.Activate(&faultinject.Plan{Rules: []faultinject.Rule{
		{Stage: faultinject.StageClusterAntiEntropy, Key: nodes[1].url(),
			Kind: faultinject.KindError, Prob: 1},
	}})
	rt.antiEntropySweep(ctx)
	restore()
	if fp, _ := nodeFP(t, nodes[1]); fp != fpFirst {
		t.Fatalf("failed repair still changed the node: serves %s", fp)
	}
	if rt.stats.repairFails.Load() != 1 || rt.stats.repairs.Load() != 0 {
		t.Errorf("counters after failed repair: %d fails %d repairs, want 1/0",
			rt.stats.repairFails.Load(), rt.stats.repairs.Load())
	}
	rt.antiEntropySweep(ctx)
	if fp, _ := nodeFP(t, nodes[1]); fp != fpSecond {
		t.Fatalf("recovered sweep did not repair: serves %s", fp)
	}
}

// TestAntiEntropyLoopRuns: the background loop itself converges a
// divergent node without any direct sweep calls.
func TestAntiEntropyLoopRuns(t *testing.T) {
	nodes := newTestNodes(t, 2)
	rt, _ := newJournaledRouter(t, nodes, t.TempDir(), func(c *Config) {
		c.AntiEntropyInterval = 30 * time.Millisecond
	})
	fpSecond := fingerprintOf(t, "second")
	ctx := context.Background()
	if _, err := rt.Rollout(ctx, corpusHBC(t, "second"), 0); err != nil {
		t.Fatal(err)
	}
	reloadNode(t, nodes[0], corpusHBC(t, "first"))
	deadline := time.Now().Add(5 * time.Second)
	for {
		if fp, _ := nodeFP(t, nodes[0]); fp == fpSecond {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("anti-entropy loop never repaired the divergent node")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAntiEntropyRequiresJournal: the config invariant is enforced.
func TestAntiEntropyRequiresJournal(t *testing.T) {
	_, err := NewRouter(Config{Nodes: []string{"http://x:1"}, AntiEntropyInterval: time.Second})
	if err == nil || !strings.Contains(err.Error(), "journal") {
		t.Fatalf("anti-entropy without journal = %v, want a config error", err)
	}
}

// TestChaosJournalCrashResumeUnderStorm: the PR's headline chaos
// scenario under -race. A coordinator is crashed mid-commit and
// mid-prepare across successive epochs while client traffic storms the
// router; each successor resumes from the journal — rolling forward or
// aborting as the phase dictates — and no client ever sees a failure or
// an uncommitted corpus.
func TestChaosJournalCrashResumeUnderStorm(t *testing.T) {
	check := leaktest.Check(t)
	t.Run("storm", func(t *testing.T) {
		nodes := newTestNodes(t, 3)
		dir := filepath.Join(t.TempDir(), "journal")
		rtA, _ := newJournaledRouter(t, nodes, dir, nil)
		fpA := fingerprintOf(t, "first")
		fpB := fingerprintOf(t, "second")
		allowed := map[string]uint32{fpA: 1, fpB: 2}
		ctx := context.Background()

		stop := make(chan struct{})
		stats, wg := stormTraffic(t, rtA, 4, stop, allowed, "")

		if _, err := rtA.Rollout(ctx, corpusHBC(t, "second"), 0); err != nil {
			t.Fatalf("epoch 1: %v", err)
		}
		// Crash 1: die on the committed record — every node has
		// published, the journal still says commit.
		restore := faultinject.Activate(&faultinject.Plan{Rules: []faultinject.Rule{
			{Stage: faultinject.StageClusterJournal, Key: phaseCommitted,
				Kind: faultinject.KindPanic, Prob: 1},
		}})
		mustCrash(t, func() { rtA.Rollout(ctx, corpusHBC(t, "first"), 0) })
		restore()

		rtB, _ := newJournaledRouter(t, nodes, dir, nil)
		if err := rtB.Resume(ctx); err != nil {
			t.Fatalf("resume after commit crash: %v", err)
		}
		for i, n := range nodes {
			if fp, _ := nodeFP(t, n); fp != fpA {
				t.Fatalf("node %d serves %s after roll-forward, want %s", i, fp, fpA)
			}
		}

		// Crash 2: die before the validate record — nothing published,
		// side buffers staged.
		restore = faultinject.Activate(&faultinject.Plan{Rules: []faultinject.Rule{
			{Stage: faultinject.StageClusterJournal, Key: phaseValidate,
				Kind: faultinject.KindPanic, Prob: 1},
		}})
		mustCrash(t, func() { rtB.Rollout(ctx, corpusHBC(t, "second"), 0) })
		restore()

		rtC, _ := newJournaledRouter(t, nodes, dir, nil)
		if err := rtC.Resume(ctx); err != nil {
			t.Fatalf("resume after prepare crash: %v", err)
		}
		for i, n := range nodes {
			fp, prepared := nodeFP(t, n)
			if fp != fpA || prepared != "" {
				t.Fatalf("node %d: fp %s prepared %q after resume abort", i, fp, prepared)
			}
		}
		// The surviving coordinator finishes the job.
		if _, err := rtC.Rollout(ctx, corpusHBC(t, "second"), 0); err != nil {
			t.Fatalf("final rollout: %v", err)
		}
		for i, n := range nodes {
			if fp, _ := nodeFP(t, n); fp != fpB {
				t.Fatalf("node %d serves %s at the end, want %s", i, fp, fpB)
			}
		}

		close(stop)
		wg.Wait()
		if n := stats.non200.Load(); n != 0 {
			t.Errorf("%d client requests failed across the crash/resume cycle", n)
		}
		if n := stats.mismatch.Load(); n != 0 {
			t.Errorf("%d responses carried an uncommitted corpus or wrong ASN", n)
		}
		if stats.requests.Load() == 0 {
			t.Fatal("storm made no requests")
		}
		if st, _ := rtC.journal.load(); st == nil || st.Phase != phaseCommitted || st.TargetFP != fpB {
			t.Errorf("final journal state = %+v, want %s committed", st, fpB)
		}
	})
	check()
}
