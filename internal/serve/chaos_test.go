package serve

// Chaos tests for the daemon: the acceptance suite for PR 5's headline
// guarantees, run under -race.
//
//   - A hot reload under sustained concurrent load completes with zero
//     failed or misrouted requests: every response is a 200 whose ASN
//     matches the corpus its X-Hoiho-Corpus header claims produced it.
//   - A corrupt corpus reload is rejected while the old corpus keeps
//     serving.
//   - Drain finishes every admitted in-flight request (held in-handler
//     by injected stalls) and rejects late arrivals with 503.
//   - Saturation beyond the admission queue sheds promptly with 429 +
//     Retry-After — bounded queue, bounded memory, no hangs.
//
// Schedules are deterministic (seeded faultinject plans, probability 1)
// and the suites use the shared internal/leaktest check, so a failure
// replays exactly and a leaked handler goroutine is a test failure.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hoiho/internal/faultinject"
	"hoiho/internal/leaktest"
)

// chaosClient wraps an httptest.Server with response decoding.
type chaosClient struct {
	t  *testing.T
	ts *httptest.Server
}

type chaosResp struct {
	code        int
	fingerprint string
	retryAfter  string
	body        extractResponse
}

func (c *chaosClient) get(path string) chaosResp {
	resp, err := c.ts.Client().Get(c.ts.URL + path)
	if err != nil {
		c.t.Errorf("GET %s: %v", path, err)
		return chaosResp{code: -1}
	}
	defer resp.Body.Close()
	out := chaosResp{
		code:        resp.StatusCode,
		fingerprint: resp.Header.Get("X-Hoiho-Corpus"),
		retryAfter:  resp.Header.Get("Retry-After"),
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Errorf("GET %s: reading body: %v", path, err)
		return out
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &out.body); err != nil {
			c.t.Errorf("GET %s: bad JSON %q: %v", path, raw, err)
		}
	}
	return out
}

func (c *chaosClient) post(path string) (int, string) {
	resp, err := c.ts.Client().Post(c.ts.URL+path, "text/plain", nil)
	if err != nil {
		c.t.Errorf("POST %s: %v", path, err)
		return -1, ""
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// TestChaosReloadUnderLoad is the headline: workers hammer single
// extractions while the corpus file is rewritten and hot-reloaded many
// times, alternating between the two variants. Every response must be a
// 200, and its ASN must be exactly what the corpus named in its
// X-Hoiho-Corpus header extracts — a response mixing two corpora, or
// produced by a half-swapped state, fails the matrix check.
func TestChaosReloadUnderLoad(t *testing.T) {
	defer leaktest.Check(t)()
	s, path := newTestServer(t, func(c *Config) {
		c.MaxInflight = 32
		c.MaxQueue = 128
		c.RequestTimeout = 10 * time.Second
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer ts.Client().CloseIdleConnections()
	cl := &chaosClient{t: t, ts: ts}

	fpFirst := fingerprintOf(t, "first")
	fpSecond := fingerprintOf(t, "second")

	const workers = 8
	const reloads = 20
	stop := make(chan struct{})
	type sample struct {
		host        string
		asn         uint32
		fingerprint string
		code        int
	}
	results := make([][]sample, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				a, b := rng.Intn(60000)+1, rng.Intn(60000)+1
				host := fmt.Sprintf("as%d-pod%d.serve%d.net", a, b, rng.Intn(nSuffixes))
				r := cl.get("/extract?host=" + host)
				results[w] = append(results[w], sample{
					host: host, asn: r.body.ASN, fingerprint: r.fingerprint, code: r.code,
				})
			}
		}(w)
	}

	// Reload repeatedly while the load runs, alternating variants. Each
	// iteration rewrites the file then reloads it through the admin
	// endpoint; odd iterations roll back instead, exercising both swap
	// paths under load.
	variant := "second"
	for i := 0; i < reloads; i++ {
		writeCorpus(t, path, variant)
		if code, body := cl.post("/-/reload"); code != http.StatusOK {
			t.Fatalf("reload %d: status %d body %q", i, code, body)
		}
		if variant == "second" {
			variant = "first"
		} else {
			variant = "second"
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	total := 0
	for w := range results {
		for _, smp := range results[w] {
			total++
			if smp.code != http.StatusOK {
				t.Fatalf("request for %s failed with status %d during reload", smp.host, smp.code)
			}
			var wantA, wantB int
			if _, err := fmt.Sscanf(smp.host, "as%d-pod%d.", &wantA, &wantB); err != nil {
				t.Fatalf("unparseable host %q", smp.host)
			}
			switch smp.fingerprint {
			case fpFirst:
				if smp.asn != uint32(wantA) {
					t.Fatalf("misrouted: %s served asn %d by first-variant corpus, want %d", smp.host, smp.asn, wantA)
				}
			case fpSecond:
				if smp.asn != uint32(wantB) {
					t.Fatalf("misrouted: %s served asn %d by second-variant corpus, want %d", smp.host, smp.asn, wantB)
				}
			default:
				t.Fatalf("response for %s stamped unknown corpus %q", smp.host, smp.fingerprint)
			}
		}
	}
	if total == 0 {
		t.Fatal("no requests completed during the reload storm")
	}
	if st := s.StatusNow(); st.Reloads != uint64(reloads)+1 { // +1 boot load
		t.Errorf("reloads = %d, want %d", st.Reloads, reloads+1)
	}
	t.Logf("verified %d responses across %d hot reloads", total, reloads)
}

// writeCorpusJSON writes the variant's corpus to path in the JSON form
// people read, which no corpus reader loads.
func writeCorpusJSON(t testing.TB, path, variant string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(corpusJSON(variant)), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestChaosReloadAlternatingFormats is the reload storm with the on-disk
// corpus alternating between the HBC and JSON forms: 20 hot reloads
// under sustained load. Each HBC reload swaps to the other ASN-routing
// variant and must succeed. Each JSON reload writes the variant that is
// not serving and must be refused with a 422 naming `hoiho -save`:
// reload_failures rises, and the serving fingerprint and generation
// never move to that variant. The matrix check is unchanged: every
// response must be a 200 whose ASN is exactly what the corpus named in
// its X-Hoiho-Corpus header extracts.
func TestChaosReloadAlternatingFormats(t *testing.T) {
	defer leaktest.Check(t)()
	s, path := newTestServer(t, func(c *Config) {
		c.MaxInflight = 32
		c.MaxQueue = 128
		c.RequestTimeout = 10 * time.Second
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer ts.Client().CloseIdleConnections()
	cl := &chaosClient{t: t, ts: ts}

	fpFirst := fingerprintOf(t, "first")
	fpSecond := fingerprintOf(t, "second")

	const workers = 8
	const reloads = 20
	stop := make(chan struct{})
	type sample struct {
		host        string
		asn         uint32
		fingerprint string
		code        int
	}
	results := make([][]sample, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(500 + w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				a, b := rng.Intn(60000)+1, rng.Intn(60000)+1
				host := fmt.Sprintf("as%d-pod%d.serve%d.net", a, b, rng.Intn(nSuffixes))
				r := cl.get("/extract?host=" + host)
				results[w] = append(results[w], sample{
					host: host, asn: r.body.ASN, fingerprint: r.fingerprint, code: r.code,
				})
			}
		}(w)
	}

	serving, other := "first", "second"
	for i := 0; i < reloads; i++ {
		before := s.StatusNow()
		if i%2 == 0 {
			writeCorpus(t, path, other)
			if code, body := cl.post("/-/reload"); code != http.StatusOK {
				t.Fatalf("HBC reload %d: status %d body %q", i, code, body)
			}
			serving, other = other, serving
		} else {
			writeCorpusJSON(t, path, other)
			if code, body := cl.post("/-/reload"); code != http.StatusUnprocessableEntity || !strings.Contains(body, "hoiho -save") {
				t.Fatalf("JSON reload %d: status %d body %q, want 422 naming `hoiho -save`", i, code, body)
			}
			st := s.StatusNow()
			if st.Fingerprint != before.Fingerprint || st.Generation != before.Generation {
				t.Fatalf("JSON reload %d moved the node: %s gen %d -> %s gen %d",
					i, before.Fingerprint, before.Generation, st.Fingerprint, st.Generation)
			}
			if st.ReloadFailures != before.ReloadFailures+1 {
				t.Fatalf("JSON reload %d: reload_failures %d, want %d", i, st.ReloadFailures, before.ReloadFailures+1)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	total := 0
	for w := range results {
		for _, smp := range results[w] {
			total++
			if smp.code != http.StatusOK {
				t.Fatalf("request for %s failed with status %d during reload", smp.host, smp.code)
			}
			var wantA, wantB int
			if _, err := fmt.Sscanf(smp.host, "as%d-pod%d.", &wantA, &wantB); err != nil {
				t.Fatalf("unparseable host %q", smp.host)
			}
			switch smp.fingerprint {
			case fpFirst:
				if smp.asn != uint32(wantA) {
					t.Fatalf("misrouted: %s served asn %d by first-variant corpus, want %d", smp.host, smp.asn, wantA)
				}
			case fpSecond:
				if smp.asn != uint32(wantB) {
					t.Fatalf("misrouted: %s served asn %d by second-variant corpus, want %d", smp.host, smp.asn, wantB)
				}
			default:
				t.Fatalf("response for %s stamped unknown corpus %q", smp.host, smp.fingerprint)
			}
		}
	}
	if total == 0 {
		t.Fatal("no requests completed during the reload storm")
	}
	if st := s.StatusNow(); st.Reloads != reloads/2+1 || st.ReloadFailures != reloads/2 { // +1 boot load
		t.Errorf("reloads = %d, reload_failures = %d, want %d and %d", st.Reloads, st.ReloadFailures, reloads/2+1, reloads/2)
	}
	t.Logf("verified %d responses across %d mixed-format hot reloads", total, reloads)
}

// TestChaosCorruptReloadKeepsServing drives both corrupt-file rejection
// and an injected reload fault while requests flow: the daemon must
// answer every request from the original corpus throughout.
func TestChaosCorruptReloadKeepsServing(t *testing.T) {
	defer leaktest.Check(t)()
	s, path := newTestServer(t, nil)
	// Activate after boot so the injected fault hits the admin-triggered
	// reload, not the initial load.
	plan := &faultinject.Plan{Seed: 7, Rules: []faultinject.Rule{{
		Stage: faultinject.StageServeReload,
		Kind:  faultinject.KindError, Prob: 1, Times: 1,
	}}}
	defer faultinject.Activate(plan)()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer ts.Client().CloseIdleConnections()
	cl := &chaosClient{t: t, ts: ts}
	fpFirst := fingerprintOf(t, "first")

	// First reload attempt dies on the injected fault (Times: 1)...
	writeCorpus(t, path, "second")
	if code, body := cl.post("/-/reload"); code != http.StatusUnprocessableEntity {
		t.Fatalf("injected-fault reload: status %d body %q, want 422", code, body)
	}
	// ...then a corrupt file is rejected by validation...
	if err := os.WriteFile(path, []byte(`{"version":99,"ncs":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _ := cl.post("/-/reload"); code != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt reload accepted: status %d", code)
	}
	// ...and through it all the boot corpus serves every request.
	for i := 0; i < 50; i++ {
		host := fmt.Sprintf("as%d-pod%d.serve%d.net", i+1, i+2, i%nSuffixes)
		r := cl.get("/extract?host=" + host)
		if r.code != http.StatusOK || r.fingerprint != fpFirst {
			t.Fatalf("request %d: status %d fingerprint %q, want 200 from original corpus", i, r.code, r.fingerprint)
		}
		if r.body.ASN != uint32(i+1) {
			t.Fatalf("request %d: asn %d, want %d", i, r.body.ASN, i+1)
		}
	}
	if st := s.StatusNow(); st.ReloadFailures != 2 || st.Generation != 1 {
		t.Errorf("stats = %d failures / generation %d, want 2 / 1", st.ReloadFailures, st.Generation)
	}
}

// TestChaosDrainFinishesInflight holds admitted requests in-handler with
// injected stalls, begins a drain, and requires every admitted request
// to complete 200 while post-drain arrivals get immediate 503s.
func TestChaosDrainFinishesInflight(t *testing.T) {
	defer leaktest.Check(t)()
	const stall = 300 * time.Millisecond
	const inflight = 6
	plan := &faultinject.Plan{Seed: 11, Rules: []faultinject.Rule{{
		Stage: faultinject.StageServeRequest,
		Kind:  faultinject.KindStall, Prob: 1, Stall: stall, Times: inflight,
	}}}
	defer faultinject.Activate(plan)()

	s, _ := newTestServer(t, func(c *Config) {
		c.MaxInflight = inflight
		c.RequestTimeout = 10 * time.Second
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer ts.Client().CloseIdleConnections()
	cl := &chaosClient{t: t, ts: ts}

	codes := make(chan int, inflight)
	var wg sync.WaitGroup
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := cl.get(fmt.Sprintf("/extract?host=as%d-pod9.serve0.net", i+1))
			codes <- r.code
		}(i)
	}
	// Wait until every request is admitted and stalled in-handler, so
	// the drain below races real in-flight work.
	for plan.Fired(0) < inflight {
		time.Sleep(time.Millisecond)
	}

	drainStart := time.Now()
	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drainErr <- s.Drain(ctx)
	}()
	// Give drain a moment to flip the flag, then late arrivals bounce.
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	late := cl.get("/extract?host=as5-pod6.serve1.net")
	if late.code != http.StatusServiceUnavailable {
		t.Errorf("post-drain request: status %d, want 503", late.code)
	}
	if late.retryAfter == "" {
		t.Error("post-drain rejection carries no Retry-After")
	}

	if err := <-drainErr; err != nil {
		t.Fatalf("drain did not complete: %v", err)
	}
	if d := time.Since(drainStart); d < stall/2 {
		t.Errorf("drain returned in %v, before the stalled requests could have finished", d)
	}
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Fatalf("admitted in-flight request finished with %d, want 200", code)
		}
	}
}

// TestChaosSaturationSheds429 saturates the daemon far beyond its
// admission bounds and requires prompt 429s with Retry-After for the
// overflow — never an unbounded queue, a hang, or a dropped connection.
func TestChaosSaturationSheds429(t *testing.T) {
	defer leaktest.Check(t)()
	const (
		inflight = 2
		queue    = 2
		extra    = 12 // requests beyond every bound
	)
	plan := &faultinject.Plan{Seed: 13, Rules: []faultinject.Rule{{
		Stage: faultinject.StageServeRequest,
		Kind:  faultinject.KindStall, Prob: 1, Stall: time.Minute,
	}}}
	defer faultinject.Activate(plan)()

	s, _ := newTestServer(t, func(c *Config) {
		c.MaxInflight = inflight
		c.MaxQueue = queue
		c.QueueWait = 50 * time.Millisecond
		c.RequestTimeout = 500 * time.Millisecond // bounds the injected stall
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer ts.Client().CloseIdleConnections()
	cl := &chaosClient{t: t, ts: ts}

	total := inflight + queue + extra
	type outcome struct {
		code       int
		retryAfter string
		elapsed    time.Duration
	}
	outcomes := make(chan outcome, total)
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			r := cl.get(fmt.Sprintf("/extract?host=as%d-pod1.serve%d.net", i+1, i%nSuffixes))
			outcomes <- outcome{code: r.code, retryAfter: r.retryAfter, elapsed: time.Since(start)}
		}(i)
	}
	wg.Wait()
	close(outcomes)

	var shed, timedOut, ok int
	for o := range outcomes {
		switch o.code {
		case http.StatusTooManyRequests:
			shed++
			if o.retryAfter == "" {
				t.Error("429 without Retry-After")
			} else if secs, err := strconv.Atoi(o.retryAfter); err != nil || secs < 1 {
				t.Errorf("Retry-After = %q, want a positive integer", o.retryAfter)
			}
			if o.elapsed > 5*time.Second {
				t.Errorf("shed response took %v; shedding must be prompt", o.elapsed)
			}
		case http.StatusGatewayTimeout:
			// The stalled-then-expired requests: deadline propagated
			// through the context into the handler.
			timedOut++
		case http.StatusOK:
			ok++
		default:
			t.Errorf("unexpected status %d under saturation", o.code)
		}
	}
	if shed < extra {
		t.Errorf("shed %d requests, want at least the %d beyond all bounds", shed, extra)
	}
	if timedOut == 0 {
		t.Error("no stalled request hit its deadline; the stall rule did not engage")
	}
	if st := s.StatusNow(); st.Shed < uint64(extra) {
		t.Errorf("shed counter = %d, want >= %d", st.Shed, extra)
	}
	t.Logf("saturation: %d shed / %d timed out / %d ok of %d", shed, timedOut, ok, total)
}

// TestChaosPanicRecovery injects a handler panic and requires the
// daemon to convert it into one 500 and keep serving — the request-level
// twin of the learner's per-suffix quarantine.
func TestChaosPanicRecovery(t *testing.T) {
	defer leaktest.Check(t)()
	plan := &faultinject.Plan{Seed: 17, Rules: []faultinject.Rule{{
		Stage: faultinject.StageServeRequest, Key: "as666-pod1.serve0.net",
		Kind: faultinject.KindPanic, Prob: 1,
	}}}
	defer faultinject.Activate(plan)()

	s, _ := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer ts.Client().CloseIdleConnections()
	cl := &chaosClient{t: t, ts: ts}

	if r := cl.get("/extract?host=as666-pod1.serve0.net"); r.code != http.StatusInternalServerError {
		t.Fatalf("panicking request: status %d, want 500", r.code)
	}
	// The process survives and every other request is unaffected.
	for i := 0; i < 10; i++ {
		r := cl.get(fmt.Sprintf("/extract?host=as%d-pod2.serve1.net", i+1))
		if r.code != http.StatusOK {
			t.Fatalf("post-panic request %d: status %d, want 200", i, r.code)
		}
	}
	if st := s.StatusNow(); st.Panics != 1 {
		t.Errorf("panics counter = %d, want 1", st.Panics)
	}
}
