package serve

// Delta-aware rollout prepare: an HBD patch applies against the live
// corpus into the side buffer, a wrong-base patch nacks with the typed
// base-mismatch signal (and the header the coordinator keys its
// full-corpus fallback on), and every outcome lands in /statusz's
// last_rollout so "never rolled out" and "rolled back" are
// distinguishable at rest.

import (
	"bytes"
	"encoding/json"
	"log"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"hoiho/internal/corpusbin"
	"hoiho/internal/extract"
)

// variantCorpus loads a corpusJSON variant the way the server does.
func variantCorpus(t testing.TB, variant string) *extract.Corpus {
	t.Helper()
	c, err := extract.Load(bytes.NewReader(corpusHBC(t, variant)))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// variantDelta diffs two corpusJSON variants into an HBD patch.
func variantDelta(t testing.TB, from, to string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := extract.Diff(variantCorpus(t, from), variantCorpus(t, to), &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPrepareLogsOneLine: every staged prepare logs one line naming its
// epoch, whether it was a delta or a full corpus, where its time went
// and, for a delta, how many records it copied and inserted.
func TestPrepareLogsOneLine(t *testing.T) {
	var logs bytes.Buffer
	s, _ := newTestServer(t, func(c *Config) { c.Log = log.New(&logs, "", 0) })
	h := s.Handler()
	fpSecond := fingerprintOf(t, "second")
	if w := doReq(t, h, "POST", "/-/rollout/prepare?epoch=7", string(variantDelta(t, "first", "second"))); w.Code != 200 {
		t.Fatalf("delta prepare = %d: %s", w.Code, w.Body.String())
	}
	doReq(t, h, "POST", "/-/rollout/abort", "")
	if w := doReq(t, h, "POST", "/-/rollout/prepare?epoch=8", string(corpusHBC(t, "second"))); w.Code != 200 {
		t.Fatalf("full prepare = %d: %s", w.Code, w.Body.String())
	}
	var lines []string
	for _, l := range strings.Split(logs.String(), "\n") {
		if strings.HasPrefix(l, "rollout prepare:") {
			lines = append(lines, l)
		}
	}
	if len(lines) != 2 {
		t.Fatalf("%d prepare lines for 2 prepares:\n%s", len(lines), logs.String())
	}
	n := variantCorpus(t, "second").Len()
	delta := regexp.MustCompile(`^rollout prepare: epoch 7 delta, apply \S+, index \S+, (\d+) records copied, (\d+) inserted; corpus ` + fpSecond + ` staged over generation 1$`)
	m := delta.FindStringSubmatch(lines[0])
	if m == nil {
		t.Fatalf("delta prepare line %q", lines[0])
	}
	copied, _ := strconv.Atoi(m[1])
	inserted, _ := strconv.Atoi(m[2])
	// The two variants share no record.
	if copied != 0 || inserted != n {
		t.Errorf("delta prepare copied %d and inserted %d records, want 0 and %d", copied, inserted, n)
	}
	full := regexp.MustCompile(`^rollout prepare: epoch 8 full, load \S+, ` + strconv.Itoa(n) + ` records; corpus ` + fpSecond + ` staged over generation 1$`)
	if !full.MatchString(lines[1]) {
		t.Errorf("full prepare line %q", lines[1])
	}
}

func TestPrepareDeltaCommits(t *testing.T) {
	s, path := newTestServer(t, nil)
	h := s.Handler()
	fpSecond := fingerprintOf(t, "second")
	delta := variantDelta(t, "first", "second")

	w := doReq(t, h, "POST", "/-/rollout/prepare?epoch=7", string(delta))
	if w.Code != 200 {
		t.Fatalf("delta prepare = %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Hoiho-Corpus"); got != fpSecond {
		t.Errorf("delta prepare ack fingerprint %s, want %s", got, fpSecond)
	}
	if w = doReq(t, h, "POST", "/-/rollout/commit?fingerprint="+fpSecond, ""); w.Code != 200 {
		t.Fatalf("commit = %d: %s", w.Code, w.Body.String())
	}
	st := s.StatusNow()
	if st.Fingerprint != fpSecond || st.Generation != 2 {
		t.Errorf("after delta commit: fp %s gen %d, want %s gen 2", st.Fingerprint, st.Generation, fpSecond)
	}
	if st.LastRollout == nil {
		t.Fatal("committed rollout missing from /statusz")
	}
	if st.LastRollout.Epoch != 7 || st.LastRollout.Outcome != "committed" || st.LastRollout.Fingerprint != fpSecond {
		t.Errorf("last_rollout = %+v, want epoch 7 committed %s", st.LastRollout, fpSecond)
	}
	// Commit persisted the complete patched corpus — never the patch —
	// so a restart (or reload) boots the committed generation.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !corpusbin.IsHBC(data) || corpusbin.IsHBD(data) {
		t.Fatal("corpus path does not hold a full HBC corpus after a delta commit")
	}
	if c, err := extract.LoadFile(path); err != nil || c.FingerprintString() != fpSecond {
		t.Fatalf("persisted corpus reloads as (%v, %v), want %s", c, err, fpSecond)
	}
}

func TestPrepareDeltaBaseMismatchNack(t *testing.T) {
	s, _ := newTestServer(t, nil)
	h := s.Handler()
	fpFirst := fingerprintOf(t, "first")

	// A patch chained from "second" cannot apply to a node on "first".
	w := doReq(t, h, "POST", "/-/rollout/prepare?epoch=3", string(variantDelta(t, "second", "first")))
	if w.Code != 409 {
		t.Fatalf("wrong-base delta prepare = %d, want 409", w.Code)
	}
	if got := w.Header().Get("X-Hoiho-Rollout-Nack"); got != "base-mismatch" {
		t.Errorf("nack header = %q, want base-mismatch", got)
	}
	st := s.StatusNow()
	if st.Fingerprint != fpFirst || st.PreparedFingerprint != "" {
		t.Errorf("nacked delta changed node state: fp %s prepared %q", st.Fingerprint, st.PreparedFingerprint)
	}
	if st.LastRollout == nil || st.LastRollout.Outcome != "failed" || st.LastRollout.Epoch != 3 {
		t.Errorf("last_rollout = %+v, want a failed epoch-3 outcome", st.LastRollout)
	}
	// The coordinator's fallback — a full-corpus resend — succeeds.
	if w := doReq(t, h, "POST", "/-/rollout/prepare?epoch=3", string(corpusHBC(t, "second"))); w.Code != 200 {
		t.Fatalf("full-corpus fallback prepare = %d: %s", w.Code, w.Body.String())
	}
}

func TestPrepareDeltaCorruptFailsClosed(t *testing.T) {
	s, _ := newTestServer(t, nil)
	h := s.Handler()
	fpFirst := fingerprintOf(t, "first")
	delta := variantDelta(t, "first", "second")

	for _, i := range []int{8, len(delta) / 2, len(delta) - 1} {
		mut := append([]byte(nil), delta...)
		mut[i] ^= 0x04
		w := doReq(t, h, "POST", "/-/rollout/prepare", string(mut))
		if w.Code == 200 {
			t.Fatalf("corrupt delta (flip at %d) prepared successfully", i)
		}
	}
	w := doReq(t, h, "POST", "/-/rollout/prepare", string(delta[:len(delta)/3]))
	if w.Code == 200 {
		t.Fatal("truncated delta prepared successfully")
	}
	st := s.StatusNow()
	if st.Fingerprint != fpFirst || st.Generation != 1 || st.PreparedFingerprint != "" {
		t.Errorf("corrupt deltas changed node state: %+v", st)
	}
}

func TestLastRolloutDistinguishesAbortFromNever(t *testing.T) {
	s, _ := newTestServer(t, nil)
	h := s.Handler()

	w := doReq(t, h, "GET", "/statusz", "")
	if strings.Contains(w.Body.String(), "last_rollout") {
		t.Fatal("fresh node must not report a last_rollout")
	}
	if w := doReq(t, h, "POST", "/-/rollout/prepare?epoch=12", string(corpusHBC(t, "second"))); w.Code != 200 {
		t.Fatal("prepare failed")
	}
	if w := doReq(t, h, "POST", "/-/rollout/abort", ""); w.Code != 200 {
		t.Fatal("abort failed")
	}
	w = doReq(t, h, "GET", "/statusz", "")
	var st Status
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.LastRollout == nil || st.LastRollout.Outcome != "aborted" || st.LastRollout.Epoch != 12 {
		t.Fatalf("after abort: last_rollout = %+v, want an aborted epoch-12 outcome", st.LastRollout)
	}
	if st.LastRollout.Fingerprint != fingerprintOf(t, "second") {
		t.Errorf("aborted outcome fingerprint %s, want the target's", st.LastRollout.Fingerprint)
	}
}
