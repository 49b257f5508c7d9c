package cluster

// Shared test rig: real serve.Server nodes behind httptest listeners,
// fronted by a real Router. The corpora mirror internal/serve's test
// scheme — hostnames as<A>-pod<B>.cluster<N>.net carry two numbers, and
// each corpus variant captures a different one — so any response's ASN
// and X-Hoiho-Corpus stamp identify exactly which corpus produced it.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hoiho/internal/core"
	"hoiho/internal/extract"
	"hoiho/internal/serve"
)

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
			re = fmt.Sprintf(`^as(\\d+)-pod\\d+\\.cluster%d\\.net$`, i)
		case "second":
			re = fmt.Sprintf(`^as\\d+-pod(\\d+)\\.cluster%d\\.net$`, i)
		case "third":
			re = fmt.Sprintf(`^asn(\\d+)\\.cluster%d\\.net$`, i)
		default:
			panic("unknown variant " + variant)
		}
		fmt.Fprintf(&sb, `  {"suffix":"cluster%d.net","regexes":["%s"],"class":"good"}`, i, re)
	}
	sb.WriteString("\n]\n")
	return sb.String()
}

// corpusHBC encodes the variant's corpus to the HBC form every corpus
// reader loads.
func corpusHBC(t testing.TB, variant string) []byte {
	t.Helper()
	ncs, err := core.UnmarshalNCs([]byte(corpusJSON(variant)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := extract.New(ncs).SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fingerprintOf returns the X-Hoiho-Corpus value a node serving the
// variant will stamp.
func fingerprintOf(t testing.TB, variant string) string {
	t.Helper()
	c, err := extract.Load(bytes.NewReader(corpusHBC(t, variant)))
	if err != nil {
		t.Fatal(err)
	}
	return c.FingerprintString()
}

// nodeMode lets chaos tests break a node's rollout surface from the
// outside, modeling an operator-visible failure without tearing down
// the listener: mode rollout500 nacks every rollout phase, rolloutCrash
// severs the connection mid-request (a node crash as the coordinator
// sees one).
type nodeMode int32

const (
	modeNormal nodeMode = iota
	modeRollout500
	modeRolloutCrash
)

// testNode is one hoihod-equivalent: a real serve.Server on its own
// corpus file, listening on a real port.
type testNode struct {
	srv  *serve.Server
	ts   *httptest.Server
	path string // corpus file
	mode atomic.Int32
}

func (n *testNode) url() string { return n.ts.URL }

func (n *testNode) setMode(m nodeMode) { n.mode.Store(int32(m)) }

// middleware applies the node's failure mode to rollout paths.
func (n *testNode) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/-/rollout/") {
			switch nodeMode(n.mode.Load()) {
			case modeRollout500:
				http.Error(w, "injected node failure", http.StatusInternalServerError)
				return
			case modeRolloutCrash:
				panic(http.ErrAbortHandler)
			}
		}
		next.ServeHTTP(w, r)
	})
}

// newTestNodes boots n nodes, all serving the "first" corpus variant.
func newTestNodes(t testing.TB, n int) []*testNode {
	t.Helper()
	nodes := make([]*testNode, n)
	for i := 0; i < n; i++ {
		path := filepath.Join(t.TempDir(), "ncs.hbc")
		if err := os.WriteFile(path, corpusHBC(t, "first"), 0o644); err != nil {
			t.Fatal(err)
		}
		srv, err := serve.New(serve.Config{CorpusPath: path})
		if err != nil {
			t.Fatal(err)
		}
		node := &testNode{srv: srv, path: path}
		node.ts = httptest.NewServer(node.middleware(srv.Handler()))
		t.Cleanup(node.ts.Close)
		nodes[i] = node
	}
	return nodes
}

// newTestRouter fronts the nodes with a Router tuned for test speed and
// starts health probing; teardown stops the loops and drains the
// client's connection pool so leaktest sees a clean process.
func newTestRouter(t testing.TB, nodes []*testNode, mod func(*Config)) *Router {
	t.Helper()
	urls := make([]string, len(nodes))
	for i, n := range nodes {
		urls[i] = n.url()
	}
	cfg := Config{
		Nodes:               urls,
		ProbeInterval:       20 * time.Millisecond,
		ProbeTimeout:        250 * time.Millisecond,
		ProbeMaxBackoff:     100 * time.Millisecond,
		HedgeAfter:          25 * time.Millisecond,
		TryTimeout:          2 * time.Second,
		RequestTimeout:      5 * time.Second,
		RolloutPhaseTimeout: 2 * time.Second,
	}
	if mod != nil {
		mod(&cfg)
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	rt.Start(ctx)
	t.Cleanup(func() {
		cancel()
		rt.Wait()
		rt.client.CloseIdleConnections()
	})
	waitHealthy(t, rt, len(nodes))
	return rt
}

// waitHealthy blocks until want members are healthy (probes are fast in
// tests; this converges in a few intervals).
func waitHealthy(t testing.TB, rt *Router, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := 0
		for _, m := range rt.view.Load().members {
			if m.healthy.Load() {
				n++
			}
		}
		if n >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d members became healthy", n, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
