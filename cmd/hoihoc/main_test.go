package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"hoiho/internal/core"
	"hoiho/internal/extract"
	"hoiho/internal/serve"
)

// syncWriter lets the test read the router's log while run is writing it.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

func writeTestCorpus(t *testing.T, path string) {
	t.Helper()
	ncs, err := core.UnmarshalNCs([]byte(`[{"suffix":"routed.net","regexes":["^as(\\d+)-r\\d+\\.routed\\.net$"],"class":"good"}]`))
	if err != nil {
		t.Fatal(err)
	}
	if err := extract.New(ncs).SaveFile(path); err != nil {
		t.Fatal(err)
	}
}

// bootNode starts one in-process hoihod-equivalent for the router to
// front.
func bootNode(t *testing.T) *httptest.Server {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ncs.hbc")
	writeTestCorpus(t, path)
	srv, err := serve.New(serve.Config{CorpusPath: path})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func TestRunFlagValidation(t *testing.T) {
	ctx := context.Background()
	var buf syncWriter
	if err := run(ctx, nil, &buf); err == nil || !strings.Contains(err.Error(), "-nodes") {
		t.Errorf("run without -nodes = %v, want a -nodes error", err)
	}
	if err := run(ctx, []string{"-nodes", "http://x", "stray"}, &buf); err == nil || !strings.Contains(err.Error(), "usage") {
		t.Errorf("run with stray args = %v, want usage error", err)
	}
	if err := run(ctx, []string{"-nodes", "ftp://bad-scheme"}, &buf); err == nil {
		t.Error("run with a non-http node URL must fail at boot")
	}
}

// TestRunRouteAndShutdown boots two nodes and the router on real
// sockets, routes an extraction through the cluster, and requires a
// clean exit on context cancellation (the SIGTERM path).
func TestRunRouteAndShutdown(t *testing.T) {
	n1, n2 := bootNode(t), bootNode(t)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var buf syncWriter
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-nodes", fmt.Sprintf("%s,%s", n1.URL, n2.URL),
			"-probe-interval", "20ms",
		}, &buf)
	}()

	addrRe := regexp.MustCompile(`on (127\.0\.0\.1:\d+)`)
	var base string
	for deadline := time.Now().Add(10 * time.Second); ; {
		if m := addrRe.FindStringSubmatch(buf.String()); m != nil {
			base = "http://" + m[1]
			break
		}
		select {
		case err := <-runErr:
			t.Fatalf("router exited before listening: %v\n%s", err, buf.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never logged its address:\n%s", buf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	get := func(path string) (int, string, http.Header) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), resp.Header
	}

	if code, _, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	// Readiness follows the probes; poll until at least one node is seen.
	ready := false
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if code, _, _ := get("/readyz"); code == http.StatusOK {
			ready = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !ready {
		t.Fatalf("router never became ready:\n%s", buf.String())
	}

	code, body, hdr := get("/extract?host=as64500-r7.routed.net")
	var answer struct {
		Found bool   `json:"found"`
		ASN   uint32 `json:"asn"`
	}
	if code != http.StatusOK || json.Unmarshal([]byte(body), &answer) != nil || !answer.Found || answer.ASN != 64500 {
		t.Fatalf("extract through router = %d %s", code, body)
	}
	if hdr.Get("X-Hoiho-Node") == "" || hdr.Get("X-Hoiho-Corpus") == "" {
		t.Errorf("routed response missing provenance headers: %v", hdr)
	}
	if code, body, _ := get("/-/cluster"); code != http.StatusOK || !strings.Contains(body, `"members"`) {
		t.Errorf("/-/cluster = %d %s", code, body)
	}

	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("shutdown = %v, want nil\n%s", err, buf.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("router did not exit after cancellation:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "stopped") {
		t.Errorf("log missing shutdown confirmation:\n%s", buf.String())
	}
}
