package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hoiho/internal/extract"
	"hoiho/internal/faultinject"
)

// nodeFP asks a node's Status for its serving fingerprint and
// whether a prepared corpus is still staged.
func nodeFP(t testing.TB, n *testNode) (fp string, preparedFP string) {
	t.Helper()
	st := n.srv.StatusNow()
	return st.Fingerprint, st.PreparedFingerprint
}

// TestRolloutCommit: the happy path publishes the new corpus on every
// node, and extraction responses stamp the new fingerprint afterwards.
func TestRolloutCommit(t *testing.T) {
	nodes := newTestNodes(t, 3)
	rt := newTestRouter(t, nodes, nil)
	fpSecond := fingerprintOf(t, "second")

	res, err := rt.Rollout(context.Background(), corpusHBC(t, "second"), 0)
	if err != nil {
		t.Fatalf("rollout: %v", err)
	}
	if res.Fingerprint != fpSecond {
		t.Errorf("committed fingerprint %s, want %s", res.Fingerprint, fpSecond)
	}
	if len(res.Nodes) != 3 {
		t.Errorf("committed on %d nodes, want 3", len(res.Nodes))
	}
	for _, nc := range res.Nodes {
		if nc.Generation != 2 {
			t.Errorf("node %s at generation %d after first rollout, want 2", nc.Node, nc.Generation)
		}
	}
	for i, n := range nodes {
		fp, prepared := nodeFP(t, n)
		if fp != fpSecond {
			t.Errorf("node %d serving %s after commit, want %s", i, fp, fpSecond)
		}
		if prepared != "" {
			t.Errorf("node %d retains a prepared corpus after commit", i)
		}
	}
	// The committed corpus captures the second number.
	w, rep := doGet(t, rt, "/extract?host=as7-pod9.cluster3.net")
	if w.Code != 200 || !rep.Found || rep.ASN != 9 {
		t.Errorf("post-rollout extraction = %d %+v, want ASN 9", w.Code, rep)
	}
	if got := w.Header().Get("X-Hoiho-Corpus"); got != fpSecond {
		t.Errorf("post-rollout stamp %s, want %s", got, fpSecond)
	}
	if rt.stats.rollouts.Load() != 1 {
		t.Error("committed rollout not accounted")
	}
}

// TestRolloutPersists: a committed corpus survives a node "restart" —
// commit wrote the shipped bytes over the node's corpus path, so a
// reload from disk keeps the new generation.
func TestRolloutPersists(t *testing.T) {
	nodes := newTestNodes(t, 2)
	rt := newTestRouter(t, nodes, nil)
	fpSecond := fingerprintOf(t, "second")
	if _, err := rt.Rollout(context.Background(), corpusHBC(t, "second"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[0].srv.Reload(context.Background()); err != nil {
		t.Fatalf("post-commit reload: %v", err)
	}
	if fp, _ := nodeFP(t, nodes[0]); fp != fpSecond {
		t.Errorf("reload from disk served %s, want the committed %s", fp, fpSecond)
	}
}

// TestRolloutCorruptAborts: a corpus that does not decode aborts the
// rollout before it starts. Planning refuses it with ErrBadCorpus, no
// node sees a prepare, and every node keeps serving the old generation
// with no prepared residue.
func TestRolloutCorruptAborts(t *testing.T) {
	nodes := newTestNodes(t, 3)
	rt := newTestRouter(t, nodes, nil)
	fpFirst := fingerprintOf(t, "first")

	_, err := rt.Rollout(context.Background(), []byte("{definitely not a corpus"), 0)
	var re *RolloutError
	if !errors.Is(err, ErrBadCorpus) || errors.As(err, &re) {
		t.Fatalf("corrupt rollout = %v, want ErrBadCorpus before any phase", err)
	}
	for i, n := range nodes {
		fp, prepared := nodeFP(t, n)
		if fp != fpFirst {
			t.Errorf("node %d serving %s after a refused rollout, want %s", i, fp, fpFirst)
		}
		if prepared != "" || n.srv.StatusNow().Prepares != 0 {
			t.Errorf("node %d saw a prepare of a refused corpus", i)
		}
	}
	if n := rt.stats.aborted.Load(); n != 0 {
		t.Errorf("%d epochs aborted, want none started", n)
	}
}

// TestRolloutValidateCatchesGenerationMove: a reload slipping into the
// epoch between prepare and validate makes the prepared corpora stale;
// validate must catch it and abort.
func TestRolloutValidateCatchesGenerationMove(t *testing.T) {
	nodes := newTestNodes(t, 3)
	rt := newTestRouter(t, nodes, nil)
	fpFirst := fingerprintOf(t, "first")

	done := make(chan error, 1)
	go func() {
		_, err := rt.Rollout(context.Background(), corpusHBC(t, "second"), 300*time.Millisecond)
		done <- err
	}()
	// While the coordinator holds between prepare and validate, reload
	// node 1 — its serving generation moves.
	time.Sleep(100 * time.Millisecond)
	if _, err := nodes[1].srv.Reload(context.Background()); err != nil {
		t.Fatal(err)
	}
	err := <-done
	var re *RolloutError
	if !errors.As(err, &re) || re.Phase != "validate" {
		t.Fatalf("rollout with mid-epoch reload = %v, want a validate-phase RolloutError", err)
	}
	for i, n := range nodes {
		if fp, _ := nodeFP(t, n); fp != fpFirst {
			t.Errorf("node %d serving %s after aborted epoch, want %s", i, fp, fpFirst)
		}
	}
}

// TestRolloutCoordinatorFaultAborts: an injected coordinator-side fault
// against one node in the validate phase aborts the whole epoch.
func TestRolloutCoordinatorFaultAborts(t *testing.T) {
	nodes := newTestNodes(t, 3)
	rt := newTestRouter(t, nodes, nil)
	fpFirst := fingerprintOf(t, "first")

	defer faultinject.Activate(&faultinject.Plan{Rules: []faultinject.Rule{
		{Stage: faultinject.StageClusterRollout, Key: "validate:" + nodes[1].url(),
			Kind: faultinject.KindError, Prob: 1},
	}})()

	_, err := rt.Rollout(context.Background(), corpusHBC(t, "second"), 0)
	var re *RolloutError
	if !errors.As(err, &re) || re.Phase != "validate" || re.Node != nodes[1].url() {
		t.Fatalf("rollout = %v, want validate failure at node 1", err)
	}
	for i, n := range nodes {
		fp, prepared := nodeFP(t, n)
		if fp != fpFirst || prepared != "" {
			t.Errorf("node %d: fp %s prepared %q after abort", i, fp, prepared)
		}
	}
}

// TestRolloutCommitFailureRollsForward: a commit that fails once on one
// node is repaired forward inside the epoch. Every node ends on the
// target, and every node's corpus file holds what it serves, so a
// restart cannot resurrect an aborted corpus.
func TestRolloutCommitFailureRollsForward(t *testing.T) {
	nodes := newTestNodes(t, 3)
	rt := newTestRouter(t, nodes, nil)
	fpSecond := fingerprintOf(t, "second")

	defer faultinject.Activate(&faultinject.Plan{Rules: []faultinject.Rule{
		{Stage: faultinject.StageClusterRollout, Key: "commit:" + nodes[2].url(),
			Kind: faultinject.KindError, Prob: 1, Times: 1},
	}})()

	res, err := rt.Rollout(context.Background(), corpusHBC(t, "second"), 0)
	if err != nil {
		t.Fatalf("rollout with a repaired commit failure = %v, want success", err)
	}
	if res.Fingerprint != fpSecond {
		t.Errorf("committed %s, want %s", res.Fingerprint, fpSecond)
	}
	for i, n := range nodes {
		requireServesAndHolds(t, n, fpSecond)
		if _, prepared := nodeFP(t, n); prepared != "" {
			t.Errorf("node %d retains a prepared corpus", i)
		}
	}
}

// requireServesAndHolds checks that n serves fp and that its corpus
// file loads to the same fingerprint.
func requireServesAndHolds(t *testing.T, n *testNode, fp string) {
	t.Helper()
	if got, _ := nodeFP(t, n); got != fp {
		t.Errorf("node %s serves %s, want %s", n.url(), got, fp)
	}
	c, err := extract.LoadFile(n.path)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.FingerprintString(); got != fp {
		t.Errorf("node %s holds %s on disk, serves %s", n.url(), got, fp)
	}
}

// TestRolloutSerialized: the protocol runs one epoch at a time; a
// second rollout during the hold window is refused, not queued.
func TestRolloutSerialized(t *testing.T) {
	nodes := newTestNodes(t, 2)
	rt := newTestRouter(t, nodes, nil)
	done := make(chan error, 1)
	go func() {
		_, err := rt.Rollout(context.Background(), corpusHBC(t, "second"), 400*time.Millisecond)
		done <- err
	}()
	time.Sleep(100 * time.Millisecond)
	if _, err := rt.Rollout(context.Background(), corpusHBC(t, "second"), 0); !errors.Is(err, ErrRolloutInProgress) {
		t.Errorf("concurrent rollout = %v, want ErrRolloutInProgress", err)
	}
	if err := <-done; err != nil {
		t.Errorf("held rollout failed: %v", err)
	}
}

// TestRolloutEndpointRefusesUnplannable: a rollout body the coordinator
// cannot plan is the client's fault. Empty, JSON and bit-flipped HBC
// bodies get a 422 from a journal-less router and a journaled one, and
// so does an HBD patch posted to a journal-less router; no node records
// a prepare and the serving generation never moves.
func TestRolloutEndpointRefusesUnplannable(t *testing.T) {
	nodes := newTestNodes(t, 2)
	plain := newTestRouter(t, nodes, nil)
	journaled, _ := newJournaledRouter(t, nodes, t.TempDir(), nil)
	// Seed the journal's committed base, so the journaled router plans
	// against a decoded base.
	if _, err := journaled.Rollout(context.Background(), corpusHBC(t, "first"), 0); err != nil {
		t.Fatal(err)
	}
	flipped := corpusHBC(t, "second")
	flipped[len(flipped)-2] ^= 0x10
	from, _ := extract.Load(bytes.NewReader(corpusHBC(t, "first")))
	to, _ := extract.Load(bytes.NewReader(corpusHBC(t, "second")))
	var patch bytes.Buffer
	if err := extract.Diff(from, to, &patch); err != nil {
		t.Fatal(err)
	}
	js := []byte(corpusJSON("second"))

	type statusz struct {
		Generation  uint64          `json:"generation"`
		Prepares    uint64          `json:"prepares"`
		LastRollout json.RawMessage `json:"last_rollout"`
	}
	status := func(n *testNode) statusz {
		t.Helper()
		resp, err := n.ts.Client().Get(n.url() + "/statusz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st statusz
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	cases := []struct {
		name string
		rt   *Router
		body []byte
	}{
		{"empty, no journal", plain, nil},
		{"JSON, no journal", plain, js},
		{"bit-flipped HBC, no journal", plain, flipped},
		{"HBD, no journal", plain, patch.Bytes()},
		{"empty, journal", journaled, nil},
		{"JSON, journal", journaled, js},
		{"bit-flipped HBC, journal", journaled, flipped},
	}
	for _, tc := range cases {
		before := make([]statusz, len(nodes))
		for i, n := range nodes {
			before[i] = status(n)
		}
		w := httptest.NewRecorder()
		tc.rt.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/-/rollout", bytes.NewReader(tc.body)))
		if w.Code != 422 {
			t.Errorf("%s: POST /-/rollout = %d %q, want 422", tc.name, w.Code, w.Body.String())
		}
		if bytes.Equal(tc.body, js) && !strings.Contains(w.Body.String(), "hoiho -save") {
			t.Errorf("%s: refusal %q does not name `hoiho -save`", tc.name, w.Body.String())
		}
		for i, n := range nodes {
			if st := status(n); st.Prepares != before[i].Prepares || st.Generation != before[i].Generation ||
				string(st.LastRollout) != string(before[i].LastRollout) {
				t.Errorf("%s: node %d statusz moved: %+v -> %+v", tc.name, i, before[i], st)
			}
		}
	}
}

// TestRolloutEndpoint: the operator surface — POST the corpus, get the
// committed result; corrupt input is the client's fault (422).
func TestRolloutEndpoint(t *testing.T) {
	nodes := newTestNodes(t, 2)
	rt := newTestRouter(t, nodes, nil)
	fpSecond := fingerprintOf(t, "second")

	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/-/rollout", bytes.NewReader(corpusHBC(t, "second"))))
	if w.Code != 200 {
		t.Fatalf("POST /-/rollout = %d: %s", w.Code, w.Body.String())
	}
	var res RolloutResult
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Fingerprint != fpSecond || len(res.Nodes) != 2 {
		t.Errorf("rollout result = %+v", res)
	}

	w2 := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w2, httptest.NewRequest("POST", "/-/rollout", strings.NewReader("{broken")))
	if w2.Code != 422 {
		t.Errorf("corrupt rollout = %d, want 422", w2.Code)
	}
	if !strings.Contains(w2.Body.String(), "hoiho -save") {
		t.Errorf("error body %q does not name the loadable form", w2.Body.String())
	}

	w3 := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w3, httptest.NewRequest("POST", "/-/rollout?hold-validate=bogus", strings.NewReader("x")))
	if w3.Code != 400 {
		t.Errorf("bad hold-validate = %d, want 400", w3.Code)
	}
}
