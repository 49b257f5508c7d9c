package serve

// Node-side rollout protocol tests: the side buffer's lifecycle
// (prepare → validate → commit/abort), its staleness and mismatch
// guards, the admin reply bodies, the node status the coordinator
// reads, and the jittered Retry-After hint.

import (
	"context"
	"errors"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestPrepareValidateCommit(t *testing.T) {
	s, path := newTestServer(t, nil)
	h := s.Handler()
	fpFirst := fingerprintOf(t, "first")
	fpSecond := fingerprintOf(t, "second")

	// Prepare stages the new corpus without serving it.
	w := doReq(t, h, "POST", "/-/rollout/prepare", corpusJSON("second"))
	if w.Code != 200 {
		t.Fatalf("prepare = %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Hoiho-Corpus"); got != fpSecond {
		t.Errorf("prepare ack fingerprint %s, want %s", got, fpSecond)
	}
	if got := w.Header().Get("X-Hoiho-Generation"); got != "1" {
		t.Errorf("prepare ack generation %s, want 1", got)
	}
	if st := s.StatusNow(); st.Fingerprint != fpFirst {
		t.Errorf("prepare must not change the serving corpus; serving %s", st.Fingerprint)
	}

	// Validate re-acks the same identity.
	w = doReq(t, h, "POST", "/-/rollout/validate", "")
	if w.Code != 200 || w.Header().Get("X-Hoiho-Corpus") != fpSecond {
		t.Fatalf("validate = %d, fp %s", w.Code, w.Header().Get("X-Hoiho-Corpus"))
	}

	// Commit publishes and persists.
	w = doReq(t, h, "POST", "/-/rollout/commit?fingerprint="+fpSecond, "")
	if w.Code != 200 {
		t.Fatalf("commit = %d: %s", w.Code, w.Body.String())
	}
	st := s.StatusNow()
	if st.Fingerprint != fpSecond || st.Generation != 2 {
		t.Errorf("after commit: fp %s gen %d, want %s gen 2", st.Fingerprint, st.Generation, fpSecond)
	}
	if st.PreparedFingerprint != "" {
		t.Error("commit must clear the side buffer")
	}
	// The shipped bytes were persisted over the corpus path: a reload
	// from disk keeps the committed corpus.
	if _, err := s.Reload(context.Background()); err != nil {
		t.Fatalf("post-commit reload: %v", err)
	}
	if st := s.StatusNow(); st.Fingerprint != fpSecond {
		t.Errorf("reload from disk serves %s, want the persisted %s", st.Fingerprint, fpSecond)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != corpusJSON("second") {
		t.Error("corpus path does not hold the committed bytes")
	}
}

func TestPrepareRejectsCorrupt(t *testing.T) {
	s, _ := newTestServer(t, nil)
	h := s.Handler()
	w := doReq(t, h, "POST", "/-/rollout/prepare", "{not a corpus")
	if w.Code != 422 {
		t.Fatalf("corrupt prepare = %d, want 422", w.Code)
	}
	st := s.StatusNow()
	if st.PreparedFingerprint != "" {
		t.Error("a rejected prepare must not stage anything")
	}
	if st.LastReloadError == "" {
		t.Error("/statusz must surface the prepare failure")
	}
	if st.ReloadFailures != 1 {
		t.Errorf("reload_failures = %d, want 1", st.ReloadFailures)
	}
}

func TestValidateAndCommitWithoutPrepare(t *testing.T) {
	s, _ := newTestServer(t, nil)
	h := s.Handler()
	if w := doReq(t, h, "POST", "/-/rollout/validate", ""); w.Code != 409 {
		t.Errorf("validate without prepare = %d, want 409", w.Code)
	}
	if w := doReq(t, h, "POST", "/-/rollout/commit", ""); w.Code != 409 {
		t.Errorf("commit without prepare = %d, want 409", w.Code)
	}
	if _, _, err := s.ValidatePrepared(); !errors.Is(err, ErrNoPrepared) {
		t.Errorf("ValidatePrepared = %v, want ErrNoPrepared", err)
	}
}

func TestCommitFingerprintMismatch(t *testing.T) {
	s, _ := newTestServer(t, nil)
	h := s.Handler()
	fpFirst := fingerprintOf(t, "first")
	if w := doReq(t, h, "POST", "/-/rollout/prepare", corpusJSON("second")); w.Code != 200 {
		t.Fatal("prepare failed")
	}
	w := doReq(t, h, "POST", "/-/rollout/commit?fingerprint=deadbeefdeadbeef", "")
	if w.Code != 409 {
		t.Fatalf("mismatched commit = %d, want 409", w.Code)
	}
	if !strings.Contains(w.Body.String(), "mismatch") {
		t.Errorf("mismatch body = %q", w.Body.String())
	}
	if st := s.StatusNow(); st.Fingerprint != fpFirst {
		t.Error("a refused commit must not publish")
	}
	var mm *CommitMismatchError
	if _, err := s.CommitPrepared("deadbeefdeadbeef"); !errors.As(err, &mm) {
		t.Errorf("CommitPrepared = %v, want a *CommitMismatchError", err)
	}
}

func TestPreparedStaleAfterReload(t *testing.T) {
	s, _ := newTestServer(t, nil)
	h := s.Handler()
	if w := doReq(t, h, "POST", "/-/rollout/prepare", corpusJSON("second")); w.Code != 200 {
		t.Fatal("prepare failed")
	}
	// A reload slips into the epoch: the serving generation moves.
	if _, err := s.Reload(context.Background()); err != nil {
		t.Fatal(err)
	}
	if w := doReq(t, h, "POST", "/-/rollout/validate", ""); w.Code != 409 {
		t.Errorf("stale validate = %d, want 409", w.Code)
	}
	if w := doReq(t, h, "POST", "/-/rollout/commit", ""); w.Code != 409 {
		t.Errorf("stale commit = %d, want 409", w.Code)
	}
	if _, _, err := s.ValidatePrepared(); !errors.Is(err, ErrPreparedStale) {
		t.Errorf("ValidatePrepared = %v, want ErrPreparedStale", err)
	}
}

func TestAbortIdempotent(t *testing.T) {
	s, _ := newTestServer(t, nil)
	h := s.Handler()
	if w := doReq(t, h, "POST", "/-/rollout/prepare", corpusJSON("second")); w.Code != 200 {
		t.Fatal("prepare failed")
	}
	// The first abort drops the side buffer; the second finds none, so
	// the aborts counter in its reply does not move.
	w := doReq(t, h, "POST", "/-/rollout/abort", "")
	if st := decodeStatus(t, w); w.Code != 200 || st.Aborts != 1 || st.PreparedFingerprint != "" {
		t.Errorf("abort = %d %+v, want the side buffer dropped", w.Code, st)
	}
	w = doReq(t, h, "POST", "/-/rollout/abort", "")
	if st := decodeStatus(t, w); w.Code != 200 || st.Aborts != 1 {
		t.Errorf("second abort = %d %+v, want nothing dropped", w.Code, st)
	}
	if w := doReq(t, h, "POST", "/-/rollout/commit", ""); w.Code != 409 {
		t.Errorf("commit after abort = %d, want 409", w.Code)
	}
	st := s.StatusNow()
	if st.Prepares != 1 || st.Aborts != 1 {
		t.Errorf("counters prepares=%d aborts=%d, want 1/1", st.Prepares, st.Aborts)
	}
}

// TestNodeStatusEndpoint: the rollout coordinator reads a node through
// GET /statusz, so a failed reload must show there, with its time,
// while the old corpus keeps serving.
func TestNodeStatusEndpoint(t *testing.T) {
	s, path := newTestServer(t, nil)
	h := s.Handler()
	fpFirst := fingerprintOf(t, "first")

	w := doReq(t, h, "GET", "/statusz", "")
	if w.Code != 200 {
		t.Fatalf("GET /statusz = %d", w.Code)
	}
	st := decodeStatus(t, w)
	if st.Fingerprint != fpFirst || st.Generation != 1 || st.NCs != nSuffixes {
		t.Errorf("status = %+v", st)
	}
	if st.LastReloadError != "" {
		t.Errorf("fresh server reports a reload error: %q", st.LastReloadError)
	}

	if err := os.WriteFile(path, []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if w := doReq(t, h, "POST", "/-/reload", ""); w.Code != 422 {
		t.Fatalf("reload of corrupt file = %d, want 422", w.Code)
	}
	st = decodeStatus(t, doReq(t, h, "GET", "/statusz", ""))
	if st.LastReloadError == "" || st.LastReloadAt.IsZero() {
		t.Error("/statusz must carry the last reload error and its time")
	}
	if st.Fingerprint != fpFirst || st.ReloadFailures != 1 {
		t.Errorf("after failed reload: fp %s failures %d", st.Fingerprint, st.ReloadFailures)
	}
}

// TestRetryAfterJitterSpread: the admission gate's backoff hint spreads
// across [base, 2*base] instead of synchronizing every shed client on
// one instant.
func TestRetryAfterJitterSpread(t *testing.T) {
	distinct := map[string]bool{}
	for i := 0; i < 64; i++ {
		v := RetryAfter(3 * time.Second)
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("Retry-After %q is not an integer", v)
		}
		if n < 3 || n > 6 {
			t.Fatalf("Retry-After %d outside [3, 6]", n)
		}
		distinct[v] = true
	}
	if len(distinct) < 3 {
		t.Errorf("64 hints collapsed to %d distinct value(s)", len(distinct))
	}
	// Sub-second budgets still round up to at least one second.
	if v := RetryAfter(10 * time.Millisecond); v < "1" {
		t.Errorf("tiny budget hint = %q", v)
	}
}
