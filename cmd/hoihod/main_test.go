package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"hoiho/internal/core"
	"hoiho/internal/extract"
)

// syncWriter lets the test read the daemon's log while run is writing it.
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

func writeTestCorpus(t *testing.T, path, capture string) {
	t.Helper()
	var re string
	if capture == "first" {
		re = `^as(\\d+)-r\\d+\\.daemon\\.net$`
	} else {
		re = `^as\\d+-r(\\d+)\\.daemon\\.net$`
	}
	ncs, err := core.UnmarshalNCs([]byte(fmt.Sprintf(`[{"suffix":"daemon.net","regexes":["%s"],"class":"good"}]`, re)))
	if err != nil {
		t.Fatal(err)
	}
	if err := extract.New(ncs).SaveFile(path); err != nil {
		t.Fatal(err)
	}
}

func TestRunFlagValidation(t *testing.T) {
	ctx := context.Background()
	var buf syncWriter
	if err := run(ctx, nil, &buf); err == nil || !strings.Contains(err.Error(), "-corpus") {
		t.Errorf("run without -corpus = %v, want a -corpus error", err)
	}
	if err := run(ctx, []string{"-corpus", "x.json", "stray"}, &buf); err == nil || !strings.Contains(err.Error(), "usage") {
		t.Errorf("run with stray args = %v, want usage error", err)
	}
	missing := filepath.Join(t.TempDir(), "missing.hbc")
	if err := run(ctx, []string{"-corpus", missing}, &buf); err == nil {
		t.Error("run with a missing corpus must fail at boot")
	}
	// A JSON corpus (the `hoiho -json` form) is for reading: boot
	// refuses it and names the loadable form.
	js := filepath.Join(t.TempDir(), "ncs.json")
	if err := os.WriteFile(js, []byte(`[{"suffix":"daemon.net","regexes":["^as(\\d+)-r\\d+\\.daemon\\.net$"],"class":"good"}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, []string{"-corpus", js, "-addr", "127.0.0.1:0"}, &buf); err == nil || !strings.Contains(err.Error(), "hoiho -save") {
		t.Errorf("run on a JSON corpus = %v, want a boot refusal naming `hoiho -save`", err)
	}
}

// TestRunServeReloadDrain is the in-process version of the CI smoke
// test: boot the daemon on a real socket, extract, hot-reload via
// SIGHUP, then cancel the lifecycle context (the SIGTERM path) and
// require a clean, drained exit.
func TestRunServeReloadDrain(t *testing.T) {
	corpus := filepath.Join(t.TempDir(), "ncs.hbc")
	writeTestCorpus(t, corpus, "first")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var buf syncWriter
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(ctx, []string{
			"-corpus", corpus, "-addr", "127.0.0.1:0", "-drain-timeout", "5s",
		}, &buf)
	}()

	// The daemon logs its bound address; poll for it.
	addrRe := regexp.MustCompile(`on (127\.0\.0\.1:\d+)`)
	var base string
	for deadline := time.Now().Add(10 * time.Second); ; {
		if m := addrRe.FindStringSubmatch(buf.String()); m != nil {
			base = "http://" + m[1]
			break
		}
		select {
		case err := <-runErr:
			t.Fatalf("daemon exited before listening: %v\n%s", err, buf.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never logged its address:\n%s", buf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz = %d", code)
	}
	if code, body := get("/extract?host=as64500-r7.daemon.net"); code != http.StatusOK || answerASN(t, body) != 64500 {
		t.Fatalf("extract = %d %s, want asn 64500", code, body)
	}

	// Hot reload via SIGHUP: same hostname, the other capture group.
	writeTestCorpus(t, corpus, "second")
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	reloaded := false
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if code, body := get("/extract?host=as64500-r7.daemon.net"); code == http.StatusOK && answerASN(t, body) == 7 {
			reloaded = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !reloaded {
		t.Fatalf("SIGHUP reload never took effect:\n%s", buf.String())
	}

	// SIGTERM path: cancelling the lifecycle context drains and exits 0.
	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("drained exit = %v, want nil\n%s", err, buf.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("daemon did not exit after cancellation:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "drained cleanly") {
		t.Errorf("log missing drain confirmation:\n%s", buf.String())
	}
}

// answerASN decodes an extraction answer and returns its ASN, failing
// the test unless it is a hit.
func answerASN(t *testing.T, body string) uint32 {
	t.Helper()
	var a struct {
		Found bool   `json:"found"`
		ASN   uint32 `json:"asn"`
	}
	if err := json.Unmarshal([]byte(body), &a); err != nil || !a.Found {
		t.Fatalf("answer %q is not a hit: %v", body, err)
	}
	return a.ASN
}
