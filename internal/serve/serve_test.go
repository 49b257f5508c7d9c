package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hoiho/internal/extract"
)

// Test corpora: every suffix serveN.net carries hostnames of the form
// as<A>-pod<B>.serveN.net holding two distinct numbers. Variant "first"
// captures A, variant "second" captures B — so any response's ASN
// identifies exactly which corpus produced it, which is how the reload
// chaos tests prove no request was misrouted across a hot swap.
const nSuffixes = 8

func corpusJSON(variant string) string {
	var sb strings.Builder
	sb.WriteString("[\n")
	for i := 0; i < nSuffixes; i++ {
		if i > 0 {
			sb.WriteString(",\n")
		}
		var re string
		switch variant {
		case "first":
			re = fmt.Sprintf(`^as(\\d+)-pod\\d+\\.serve%d\\.net$`, i)
		case "second":
			re = fmt.Sprintf(`^as\\d+-pod(\\d+)\\.serve%d\\.net$`, i)
		default:
			panic("unknown variant " + variant)
		}
		fmt.Fprintf(&sb, `  {"suffix":"serve%d.net","regexes":["%s"],"class":"good"}`, i, re)
	}
	sb.WriteString("\n]\n")
	return sb.String()
}

func writeCorpus(t testing.TB, path, variant string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(corpusJSON(variant)), 0o644); err != nil {
		t.Fatal(err)
	}
}

// fingerprintOf loads the variant the way the server does and returns
// the fingerprint header value it will stamp.
func fingerprintOf(t testing.TB, variant string) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "ncs.json")
	writeCorpus(t, path, variant)
	c, err := extract.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return c.FingerprintString()
}

// newTestServer boots a Server on a "first"-variant corpus file and
// returns it with the corpus path (for reload tests to overwrite).
func newTestServer(t testing.TB, mod func(*Config)) (*Server, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ncs.json")
	writeCorpus(t, path, "first")
	cfg := Config{CorpusPath: path}
	if mod != nil {
		mod(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, path
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New without CorpusPath must fail")
	}
	if _, err := New(Config{CorpusPath: filepath.Join(t.TempDir(), "missing.json")}); err == nil {
		t.Error("New with a missing corpus must fail")
	}
	path := filepath.Join(t.TempDir(), "ncs.json")
	writeCorpus(t, path, "first")
	if _, err := New(Config{CorpusPath: path, Classes: "bogus"}); err == nil {
		t.Error("New with unknown classes must fail")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := New(Config{CorpusPath: bad})
	var re *ReloadError
	if !errors.As(err, &re) {
		t.Errorf("New on a corrupt corpus returned %v, want a *ReloadError", err)
	}
}

func doReq(t testing.TB, h http.Handler, method, target, body string) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, target, nil)
	} else {
		r = httptest.NewRequest(method, target, strings.NewReader(body))
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

func TestExtractEndpoint(t *testing.T) {
	s, _ := newTestServer(t, nil)
	h := s.Handler()

	w := doReq(t, h, "GET", "/extract?host=as7018-pod42.serve3.net", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %q", w.Code, w.Body.String())
	}
	if got := w.Body.String(); !strings.Contains(got, `"asn": 7018`) || !strings.Contains(got, `"found": true`) {
		t.Errorf("body = %s, want found asn 7018", got)
	}
	if fp := w.Header().Get("X-Hoiho-Corpus"); fp != fingerprintOf(t, "first") {
		t.Errorf("X-Hoiho-Corpus = %q, want the first-variant fingerprint", fp)
	}
	if gen := w.Header().Get("X-Hoiho-Generation"); gen != "1" {
		t.Errorf("X-Hoiho-Generation = %q, want 1", gen)
	}

	// A governed suffix with no match is found:false, still a 200.
	w = doReq(t, h, "GET", "/extract?host=lo0.rt1.serve3.net", "")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"found": false`) {
		t.Errorf("miss: status %d body %s, want 200 found:false", w.Code, w.Body.String())
	}

	// Missing the host parameter is the caller's error.
	if w = doReq(t, h, "GET", "/extract", ""); w.Code != http.StatusBadRequest {
		t.Errorf("no host: status = %d, want 400", w.Code)
	}
}

func TestExtractBatchEndpoint(t *testing.T) {
	s, _ := newTestServer(t, nil)
	h := s.Handler()

	body := "as100-pod1.serve0.net\n\nas200-pod2.serve1.net\nunknown.example.org\n"
	w := doReq(t, h, "POST", "/extract", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %q", w.Code, w.Body.String())
	}
	got := w.Body.String()
	for _, want := range []string{`"asn": 100`, `"asn": 200`, `"found": false`} {
		if !strings.Contains(got, want) {
			t.Errorf("batch body missing %s:\n%s", want, got)
		}
	}

	if w = doReq(t, h, "POST", "/extract", "\n\n"); w.Code != http.StatusBadRequest {
		t.Errorf("empty batch: status = %d, want 400", w.Code)
	}

	s2, _ := newTestServer(t, func(c *Config) { c.MaxBatchBytes = 16 })
	if w = doReq(t, s2.Handler(), "POST", "/extract", strings.Repeat("x", 64)); w.Code != http.StatusBadRequest {
		t.Errorf("oversized batch: status = %d, want 400", w.Code)
	}
}

func TestHealthAndReadiness(t *testing.T) {
	s, _ := newTestServer(t, nil)
	h := s.Handler()

	if w := doReq(t, h, "GET", "/healthz", ""); w.Code != http.StatusOK {
		t.Errorf("healthz = %d, want 200", w.Code)
	}
	if w := doReq(t, h, "GET", "/readyz", ""); w.Code != http.StatusOK {
		t.Errorf("readyz = %d, want 200", w.Code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("idle drain: %v", err)
	}
	// Liveness survives drain; readiness and admission do not.
	if w := doReq(t, h, "GET", "/healthz", ""); w.Code != http.StatusOK {
		t.Errorf("draining healthz = %d, want 200", w.Code)
	}
	if w := doReq(t, h, "GET", "/readyz", ""); w.Code != http.StatusServiceUnavailable {
		t.Errorf("draining readyz = %d, want 503", w.Code)
	}
	w := doReq(t, h, "GET", "/extract?host=as1-pod2.serve0.net", "")
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("draining extract = %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("draining extract carries no Retry-After")
	}
}

func TestReloadAndRollback(t *testing.T) {
	s, path := newTestServer(t, nil)
	h := s.Handler()
	const host = "/extract?host=as111-pod222.serve5.net"

	if w := doReq(t, h, "GET", host, ""); !strings.Contains(w.Body.String(), `"asn": 111`) {
		t.Fatalf("boot corpus: body %s, want asn 111", w.Body.String())
	}

	// A rollback before any reload has nothing to return to.
	if w := doReq(t, h, "POST", "/-/rollback", ""); w.Code != http.StatusConflict {
		t.Errorf("rollback with no prev = %d, want 409", w.Code)
	}

	writeCorpus(t, path, "second")
	if w := doReq(t, h, "POST", "/-/reload", ""); w.Code != http.StatusOK {
		t.Fatalf("reload = %d, body %q", w.Code, w.Body.String())
	}
	w := doReq(t, h, "GET", host, "")
	if !strings.Contains(w.Body.String(), `"asn": 222`) {
		t.Fatalf("after reload: body %s, want asn 222", w.Body.String())
	}
	if gen := w.Header().Get("X-Hoiho-Generation"); gen != "2" {
		t.Errorf("generation after reload = %q, want 2", gen)
	}

	// Rollback flips back to the first variant under a new generation.
	if w := doReq(t, h, "POST", "/-/rollback", ""); w.Code != http.StatusOK {
		t.Fatalf("rollback = %d, body %q", w.Code, w.Body.String())
	}
	w = doReq(t, h, "GET", host, "")
	if !strings.Contains(w.Body.String(), `"asn": 111`) {
		t.Fatalf("after rollback: body %s, want asn 111", w.Body.String())
	}
	if gen := w.Header().Get("X-Hoiho-Generation"); gen != "3" {
		t.Errorf("generation after rollback = %q, want 3", gen)
	}

	st := s.StatusNow()
	if st.Reloads != 2 || st.Rollbacks != 1 {
		t.Errorf("stats = %d reloads / %d rollbacks, want 2/1", st.Reloads, st.Rollbacks)
	}
}

// TestReloadReadOnlyCorpus: Reload only reads the corpus file — it
// succeeds on a read-only file in a read-only directory and leaves the
// very same file in place (a rewrite by rename would change its
// identity even where permissions do not bind).
func TestReloadReadOnlyCorpus(t *testing.T) {
	s, path := newTestServer(t, nil)
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Dir(path)
	if err := os.Chmod(path, 0o444); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chmod(dir, 0o755) })

	snap, err := s.Reload(context.Background())
	if err != nil {
		t.Fatalf("reload of a read-only corpus: %v", err)
	}
	if snap.generation != 2 || snap.corpus.FingerprintString() != fingerprintOf(t, "first") {
		t.Errorf("reload published generation %d corpus %s", snap.generation, snap.corpus.FingerprintString())
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) || !after.ModTime().Equal(before.ModTime()) {
		t.Error("reload rewrote the corpus file")
	}
}

func TestCorruptReloadKeepsServing(t *testing.T) {
	s, path := newTestServer(t, nil)
	h := s.Handler()
	const host = "/extract?host=as9-pod8.serve1.net"
	fpFirst := fingerprintOf(t, "first")

	for _, corrupt := range []string{"", "{truncated", `[]`, `[{"suffix":"","regexes":[],"class":"good"}]`} {
		if err := os.WriteFile(path, []byte(corrupt), 0o644); err != nil {
			t.Fatal(err)
		}
		w := doReq(t, h, "POST", "/-/reload", "")
		if w.Code != http.StatusUnprocessableEntity {
			t.Errorf("corrupt reload %q = %d, want 422", corrupt, w.Code)
		}
		w = doReq(t, h, "GET", host, "")
		if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"asn": 9`) {
			t.Fatalf("after corrupt reload: status %d body %s, want old corpus serving", w.Code, w.Body.String())
		}
		if fp := w.Header().Get("X-Hoiho-Corpus"); fp != fpFirst {
			t.Errorf("after corrupt reload: fingerprint %q, want original %q", fp, fpFirst)
		}
	}
	if st := s.StatusNow(); st.ReloadFailures != 4 || st.Generation != 1 {
		t.Errorf("stats = %d failures / generation %d, want 4 / 1", st.ReloadFailures, st.Generation)
	}
}

// decodeStatus decodes a reply body as the node's Status document,
// refusing unknown fields, so an ad hoc reply shape fails to decode.
func decodeStatus(t testing.TB, w *httptest.ResponseRecorder) Status {
	t.Helper()
	dec := json.NewDecoder(w.Body)
	dec.DisallowUnknownFields()
	var st Status
	if err := dec.Decode(&st); err != nil {
		t.Fatalf("reply body does not decode as Status: %v", err)
	}
	return st
}

// TestStatusz walks GET /statusz through every field group of the
// Status document — snapshot identity, admission, request counters,
// reload and rollout counters, the prepared side buffer, the last
// reload error and last_rollout — and checks that every admin reply
// body decodes as the same document.
func TestStatusz(t *testing.T) {
	s, path := newTestServer(t, func(c *Config) {
		c.MaxInflight = 1
		c.QueueWait = 5 * time.Second
	})
	h := s.Handler()
	fpFirst := fingerprintOf(t, "first")
	fpSecond := fingerprintOf(t, "second")
	doReq(t, h, "GET", "/extract?host=as4-pod5.serve2.net", "")
	doReq(t, h, "GET", "/extract?host=nomatch.serve2.net", "")

	w := doReq(t, h, "GET", "/statusz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("statusz = %d", w.Code)
	}
	body := w.Body.String()
	for _, want := range []string{`"generation": 1`, `"ncs": 8`, `"requests": 2`, `"served": 2`, `"found": 1`} {
		if !strings.Contains(body, want) {
			t.Errorf("statusz missing %s:\n%s", want, body)
		}
	}
	for _, absent := range []string{"prepared_fingerprint", "last_reload_error", "last_rollout"} {
		if strings.Contains(body, absent) {
			t.Errorf("fresh node reports %s:\n%s", absent, body)
		}
	}
	st := decodeStatus(t, w)
	if st.Fingerprint != fpFirst || st.Generation != 1 || st.NCs != nSuffixes || st.Source != path || st.LoadedAt.IsZero() {
		t.Errorf("snapshot identity = %+v", st)
	}
	if st.Requests != 2 || st.Served != 2 || st.Found != 1 || st.Shed != 0 || st.Panics != 0 {
		t.Errorf("request counters = %+v", st)
	}
	if st.Reloads != 1 || st.ReloadFailures != 0 || st.LastReloadError != "" || !st.LastReloadAt.IsZero() {
		t.Errorf("fresh reload state = %+v", st)
	}

	// Admission: hold the one slot and park a second request in the
	// queue; both show up before either is released.
	if err := s.gate.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() { queued <- s.gate.acquire(context.Background()) }()
	for s.gate.waiting() == 0 {
		time.Sleep(time.Millisecond)
	}
	st = decodeStatus(t, doReq(t, h, "GET", "/statusz", ""))
	if st.Inflight != 1 || st.Queued != 1 || st.Draining {
		t.Errorf("admission = inflight %d queued %d draining %v, want 1/1/false", st.Inflight, st.Queued, st.Draining)
	}
	s.gate.release()
	if err := <-queued; err != nil {
		t.Fatal(err)
	}
	s.gate.release()

	// A failed reload surfaces its error and time while the old corpus
	// keeps serving.
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

	// Prepare: the reply and /statusz both show the side buffer.
	w = doReq(t, h, "POST", "/-/rollout/prepare?epoch=5", corpusJSON("second"))
	if w.Code != 200 {
		t.Fatalf("prepare = %d: %s", w.Code, w.Body.String())
	}
	if st = decodeStatus(t, w); st.PreparedFingerprint != fpSecond || st.Fingerprint != fpFirst {
		t.Errorf("prepare reply = %+v, want %s prepared over %s", st, fpSecond, fpFirst)
	}
	st = decodeStatus(t, doReq(t, h, "GET", "/statusz", ""))
	if st.PreparedFingerprint != fpSecond || st.PreparedGeneration != 1 || st.PreparedAt.IsZero() || st.Prepares != 1 {
		t.Errorf("side buffer = %+v, want %s prepared over generation 1", st, fpSecond)
	}

	// Abort: the reply shows the side buffer dropped and the outcome.
	w = doReq(t, h, "POST", "/-/rollout/abort", "")
	if w.Code != 200 {
		t.Fatalf("abort = %d", w.Code)
	}
	st = decodeStatus(t, w)
	if st.PreparedFingerprint != "" || st.Aborts != 1 {
		t.Errorf("abort reply = %+v, want no side buffer and 1 abort", st)
	}
	if lr := st.LastRollout; lr == nil || lr.Epoch != 5 || lr.Outcome != "aborted" || lr.Fingerprint != fpSecond {
		t.Errorf("last_rollout after abort = %+v", lr)
	}

	// Prepare, validate, commit: every reply is a Status, and the
	// commit reply names the published snapshot.
	if w := doReq(t, h, "POST", "/-/rollout/prepare?epoch=6", corpusJSON("second")); w.Code != 200 {
		t.Fatalf("prepare = %d", w.Code)
	}
	w = doReq(t, h, "POST", "/-/rollout/validate", "")
	if st = decodeStatus(t, w); w.Code != 200 || st.PreparedFingerprint != fpSecond {
		t.Errorf("validate = %d %+v", w.Code, st)
	}
	w = doReq(t, h, "POST", "/-/rollout/commit?fingerprint="+fpSecond, "")
	if w.Code != 200 {
		t.Fatalf("commit = %d: %s", w.Code, w.Body.String())
	}
	st = decodeStatus(t, w)
	if st.Fingerprint != fpSecond || st.Generation != 2 || st.Commits != 1 || st.PreparedFingerprint != "" {
		t.Errorf("commit reply = %+v", st)
	}
	if lr := st.LastRollout; lr == nil || lr.Epoch != 6 || lr.Outcome != "committed" {
		t.Errorf("last_rollout after commit = %+v", lr)
	}

	// Reload and rollback replies are the same document.
	w = doReq(t, h, "POST", "/-/reload", "")
	if st = decodeStatus(t, w); w.Code != 200 || st.Generation != 3 || st.Reloads != 2 {
		t.Errorf("reload = %d %+v", w.Code, st)
	}
	w = doReq(t, h, "POST", "/-/rollback", "")
	if st = decodeStatus(t, w); w.Code != 200 || st.Generation != 4 || st.Rollbacks != 1 {
		t.Errorf("rollback = %d %+v", w.Code, st)
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st = decodeStatus(t, doReq(t, h, "GET", "/statusz", "")); !st.Draining {
		t.Error("/statusz must report draining after Drain")
	}
}

func TestGateBounds(t *testing.T) {
	g := newGate(2, 1, 20*time.Millisecond)
	ctx := context.Background()
	if err := g.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := g.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	// Slots full: the single queue ticket times out...
	if err := g.acquire(ctx); !errors.Is(err, ErrAdmissionTimeout) {
		t.Errorf("queued acquire = %v, want ErrAdmissionTimeout", err)
	}
	// ...and with the queue also held, excess is shed instantly.
	hold := make(chan error, 1)
	go func() { hold <- g.acquire(ctx) }()
	for g.waiting() == 0 {
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	if err := g.acquire(ctx); !errors.Is(err, ErrQueueFull) {
		t.Errorf("over-queue acquire = %v, want ErrQueueFull", err)
	}
	if d := time.Since(start); d > 10*time.Millisecond {
		t.Errorf("queue-full shed took %v, want immediate", d)
	}
	if err := <-hold; !errors.Is(err, ErrAdmissionTimeout) {
		t.Errorf("held queue ticket = %v, want ErrAdmissionTimeout", err)
	}

	// Deadline-aware: a request whose deadline cannot survive any wait
	// is shed as queue-full rather than parked.
	expired, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
	defer cancel()
	if err := g.acquire(expired); !errors.Is(err, ErrQueueFull) {
		t.Errorf("expired-deadline acquire = %v, want ErrQueueFull", err)
	}

	// Slots release and admission resumes.
	g.release()
	if err := g.acquire(ctx); err != nil {
		t.Errorf("post-release acquire = %v", err)
	}
}
