package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hoiho/internal/faultinject"
)

// extractReply mirrors the node's extraction response body.
type extractReply struct {
	Hostname string `json:"hostname"`
	Found    bool   `json:"found"`
	ASN      uint32 `json:"asn"`
}

// doGet runs one request through the router handler and decodes it.
func doGet(t testing.TB, rt *Router, target string) (*httptest.ResponseRecorder, extractReply) {
	t.Helper()
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, httptest.NewRequest("GET", target, nil))
	var rep extractReply
	if w.Code == 200 {
		if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
			t.Fatalf("bad extraction JSON %q: %v", w.Body.String(), err)
		}
	}
	return w, rep
}

func TestRouterConfigValidation(t *testing.T) {
	if _, err := NewRouter(Config{}); err != ErrNoMembers {
		t.Errorf("NewRouter without nodes = %v, want ErrNoMembers", err)
	}
	if _, err := NewRouter(Config{Nodes: []string{"ftp://x"}}); err == nil {
		t.Error("NewRouter must reject a non-http node URL")
	}
	if _, err := NewRouter(Config{Nodes: []string{"http://"}}); err == nil {
		t.Error("NewRouter must reject a hostless node URL")
	}
}

// TestRouterForward: a request reaches its shard's primary owner, the
// response carries the node's corpus stamp plus the router's identity
// header, and no degraded marker appears on a healthy cluster.
func TestRouterForward(t *testing.T) {
	nodes := newTestNodes(t, 3)
	rt := newTestRouter(t, nodes, nil)
	fpFirst := fingerprintOf(t, "first")

	host := "as7-pod9.cluster3.net"
	w, rep := doGet(t, rt, "/extract?host="+host)
	if w.Code != 200 {
		t.Fatalf("GET /extract = %d: %s", w.Code, w.Body.String())
	}
	if !rep.Found || rep.ASN != 7 {
		t.Errorf("extraction = %+v, want ASN 7 from the first-variant corpus", rep)
	}
	if got := w.Header().Get("X-Hoiho-Corpus"); got != fpFirst {
		t.Errorf("X-Hoiho-Corpus = %q, want %q", got, fpFirst)
	}
	if w.Header().Get("X-Hoiho-Degraded") != "" {
		t.Error("healthy cluster must not mark responses degraded")
	}
	node := w.Header().Get("X-Hoiho-Node")
	owners := rt.view.Load().ring.Owners(rt.shardKey(host))
	if node != owners[0] {
		t.Errorf("served by %s, want primary owner %s", node, owners[0])
	}
}

func TestRouterMissingHost(t *testing.T) {
	nodes := newTestNodes(t, 1)
	rt := newTestRouter(t, nodes, nil)
	if w, _ := doGet(t, rt, "/extract"); w.Code != 400 {
		t.Errorf("GET /extract without host = %d, want 400", w.Code)
	}
}

// TestRouterBatch: a batch body forwards whole to one node and comes
// back in input order.
func TestRouterBatch(t *testing.T) {
	nodes := newTestNodes(t, 3)
	rt := newTestRouter(t, nodes, nil)
	body := "as1-pod2.cluster0.net\nas3-pod4.cluster1.net\n"
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/extract", strings.NewReader(body)))
	if w.Code != 200 {
		t.Fatalf("POST /extract = %d: %s", w.Code, w.Body.String())
	}
	var reps []extractReply
	if err := json.Unmarshal(w.Body.Bytes(), &reps); err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 || reps[0].ASN != 1 || reps[1].ASN != 3 {
		t.Errorf("batch = %+v, want ASNs 1 and 3", reps)
	}
	if w.Header().Get("X-Hoiho-Node") == "" {
		t.Error("batch response must name its serving node")
	}
	w2 := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w2, httptest.NewRequest("POST", "/extract", strings.NewReader("\n\n")))
	if w2.Code != 400 {
		t.Errorf("empty batch = %d, want 400", w2.Code)
	}
}

// TestRouterOversizedAnswer: a node answer one byte over the router's
// response cap becomes a 502 naming the cap — never the cut-off prefix
// under the node's 200 — and is not failed over, since every node
// renders the same answer.
func TestRouterOversizedAnswer(t *testing.T) {
	var hits atomic.Int32
	stub := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			return
		}
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Write(bytes.Repeat([]byte(" "), maxProxyRespBytes+1))
	})
	nodes := make([]*testNode, 2)
	for i := range nodes {
		nodes[i] = &testNode{ts: httptest.NewServer(stub)}
		t.Cleanup(nodes[i].ts.Close)
	}
	rt := newTestRouter(t, nodes, nil)

	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/extract", strings.NewReader("a1.x.net\n")))
	if w.Code != http.StatusBadGateway {
		t.Fatalf("oversized answer relayed as %d (%d bytes), want 502", w.Code, w.Body.Len())
	}
	if want := strconv.Itoa(maxProxyRespBytes) + "-byte cap"; !strings.Contains(w.Body.String(), want) {
		t.Errorf("502 body %q does not name the %s", w.Body.String(), want)
	}
	if n := hits.Load(); n != 1 {
		t.Errorf("oversized answer forwarded to %d nodes, want 1", n)
	}
}

// TestRouterFailover: when a shard's primary cannot be reached, the
// request lands on the other replica — same corpus, no error, no
// degraded marker (a replica is a full owner).
func TestRouterFailover(t *testing.T) {
	nodes := newTestNodes(t, 3)
	rt := newTestRouter(t, nodes, nil)
	host := "as5-pod1.cluster2.net"
	owners := rt.view.Load().ring.Owners(rt.shardKey(host))

	defer faultinject.Activate(&faultinject.Plan{Rules: []faultinject.Rule{
		{Stage: faultinject.StageClusterForward, Key: owners[0], Kind: faultinject.KindError, Prob: 1},
	}})()

	w, rep := doGet(t, rt, "/extract?host="+host)
	if w.Code != 200 {
		t.Fatalf("failover GET = %d: %s", w.Code, w.Body.String())
	}
	if !rep.Found || rep.ASN != 5 {
		t.Errorf("failover extraction = %+v", rep)
	}
	if got := w.Header().Get("X-Hoiho-Node"); got != owners[1] {
		t.Errorf("served by %s, want replica %s", got, owners[1])
	}
	if w.Header().Get("X-Hoiho-Degraded") != "" {
		t.Error("a replica-served response is not degraded")
	}
	if rt.stats.retries.Load() == 0 {
		t.Error("failover must account a retry")
	}
}

// TestRouterDegraded: with R=1 and the sole owner down, the request is
// answered by a non-owner and says so.
func TestRouterDegraded(t *testing.T) {
	nodes := newTestNodes(t, 3)
	rt := newTestRouter(t, nodes, func(c *Config) { c.Replicas = 1; c.MaxAttempts = 3 })
	host := "as8-pod2.cluster4.net"
	owner := rt.view.Load().ring.Owner(rt.shardKey(host))

	defer faultinject.Activate(&faultinject.Plan{Rules: []faultinject.Rule{
		{Stage: faultinject.StageClusterForward, Key: owner, Kind: faultinject.KindError, Prob: 1},
	}})()

	w, rep := doGet(t, rt, "/extract?host="+host)
	if w.Code != 200 {
		t.Fatalf("degraded GET = %d: %s", w.Code, w.Body.String())
	}
	if !rep.Found || rep.ASN != 8 {
		t.Errorf("degraded extraction = %+v", rep)
	}
	if w.Header().Get("X-Hoiho-Degraded") == "" {
		t.Error("an off-replica answer must carry X-Hoiho-Degraded")
	}
	if got := w.Header().Get("X-Hoiho-Node"); got == owner {
		t.Errorf("served by the dead owner %s", got)
	}
}

// TestRouterShed: with every node unreachable the request sheds as 503
// with a jittered Retry-After, matching the serve taxonomy.
func TestRouterShed(t *testing.T) {
	nodes := newTestNodes(t, 2)
	rt := newTestRouter(t, nodes, nil)
	defer faultinject.Activate(&faultinject.Plan{Rules: []faultinject.Rule{
		{Stage: faultinject.StageClusterForward, Kind: faultinject.KindError, Prob: 1},
	}})()
	w, _ := doGet(t, rt, "/extract?host=as1-pod1.cluster0.net")
	if w.Code != 503 {
		t.Fatalf("all-down GET = %d, want 503", w.Code)
	}
	ra, err := strconv.Atoi(w.Header().Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want a positive integer", w.Header().Get("Retry-After"))
	}
	if !strings.Contains(w.Body.String(), "unavailable") {
		t.Errorf("shed body = %q", w.Body.String())
	}
}

// TestRouterHedge: a stalled primary is hedged to the next replica
// after the latency budget instead of waiting out the stall.
func TestRouterHedge(t *testing.T) {
	nodes := newTestNodes(t, 3)
	rt := newTestRouter(t, nodes, func(c *Config) { c.HedgeAfter = 10 * time.Millisecond })
	host := "as2-pod6.cluster5.net"
	owners := rt.view.Load().ring.Owners(rt.shardKey(host))

	defer faultinject.Activate(&faultinject.Plan{Rules: []faultinject.Rule{
		{Stage: faultinject.StageClusterForward, Key: owners[0], Kind: faultinject.KindStall,
			Prob: 1, Stall: 2 * time.Second},
	}})()

	start := time.Now()
	w, rep := doGet(t, rt, "/extract?host="+host)
	if w.Code != 200 {
		t.Fatalf("hedged GET = %d: %s", w.Code, w.Body.String())
	}
	if !rep.Found || rep.ASN != 2 {
		t.Errorf("hedged extraction = %+v", rep)
	}
	if got := w.Header().Get("X-Hoiho-Node"); got != owners[1] {
		t.Errorf("served by %s, want hedge target %s", got, owners[1])
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("hedged request took %v; it waited out the stall", elapsed)
	}
	if rt.stats.hedges.Load() == 0 {
		t.Error("hedge must be accounted")
	}
}

// TestRouterReadyz: not ready before any probe succeeds, ready after.
func TestRouterReadyz(t *testing.T) {
	nodes := newTestNodes(t, 2)
	urls := []string{nodes[0].url(), nodes[1].url()}
	rt, err := NewRouter(Config{Nodes: urls, ProbeInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/readyz", nil))
	if w.Code != 503 {
		t.Errorf("readyz before probes = %d, want 503", w.Code)
	}
	ctx, cancel := context.WithCancel(context.Background())
	rt.Start(ctx)
	defer func() {
		cancel()
		rt.Wait()
		rt.client.CloseIdleConnections()
	}()
	waitHealthy(t, rt, 2)
	w2 := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w2, httptest.NewRequest("GET", "/readyz", nil))
	if w2.Code != 200 {
		t.Errorf("readyz after probes = %d, want 200", w2.Code)
	}
	w3 := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w3, httptest.NewRequest("GET", "/healthz", nil))
	if w3.Code != 200 {
		t.Errorf("healthz = %d, want 200", w3.Code)
	}
}

// TestRouterJoinLeave: a joined node enters the ring only after
// warming; a left node exits it; the edges (duplicate join, unknown or
// last-member leave) are rejected.
func TestRouterJoinLeave(t *testing.T) {
	nodes := newTestNodes(t, 3)
	rt := newTestRouter(t, []*testNode{nodes[0], nodes[1]}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	if err := rt.Join(ctx, nodes[2].url()); err != nil {
		t.Fatalf("join: %v", err)
	}
	if got := len(rt.view.Load().members); got != 3 {
		t.Fatalf("members after join = %d, want 3", got)
	}
	if err := rt.Join(ctx, nodes[2].url()); err == nil {
		t.Error("duplicate join must fail")
	}
	if _, rep := doGet(t, rt, "/extract?host=as4-pod4.cluster6.net"); !rep.Found {
		t.Error("extraction must keep working across a join")
	}

	if err := rt.Leave(nodes[0].url()); err != nil {
		t.Fatalf("leave: %v", err)
	}
	if got := len(rt.view.Load().members); got != 2 {
		t.Fatalf("members after leave = %d, want 2", got)
	}
	for _, m := range rt.view.Load().members {
		if m.name == nodes[0].url() {
			t.Error("left node still in the view")
		}
	}
	if err := rt.Leave("http://never-was-a-member"); err == nil {
		t.Error("leaving an unknown node must fail")
	}
	if err := rt.Leave(nodes[1].url()); err != nil {
		t.Fatalf("leave second: %v", err)
	}
	if err := rt.Leave(nodes[2].url()); err == nil {
		t.Error("leaving the last member must fail")
	}
}

// TestClusterStatus: /-/cluster reports membership, ring shape, and the
// counters.
func TestClusterStatus(t *testing.T) {
	nodes := newTestNodes(t, 3)
	rt := newTestRouter(t, nodes, nil)
	doGet(t, rt, "/extract?host=as1-pod1.cluster0.net")
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/-/cluster", nil))
	if w.Code != 200 {
		t.Fatalf("GET /-/cluster = %d", w.Code)
	}
	var st ClusterStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Members) != 3 || st.Replication != DefaultReplicas {
		t.Errorf("status = %+v", st)
	}
	for _, m := range st.Members {
		if !m.Healthy {
			t.Errorf("member %s unhealthy in status", m.Node)
		}
	}
	if st.Requests == 0 || st.Forwards == 0 {
		t.Errorf("counters not accounted: %+v", st)
	}
}

// TestRetryAfterJitter: the router's shed hint spreads across
// [base, 2*base] of its configured RetryAfter, so synchronized clients
// do not return as a thundering herd.
func TestRetryAfterJitter(t *testing.T) {
	nodes := newTestNodes(t, 2)
	rt := newTestRouter(t, nodes, func(c *Config) { c.RetryAfter = 2 * time.Second })
	defer faultinject.Activate(&faultinject.Plan{Rules: []faultinject.Rule{
		{Stage: faultinject.StageClusterForward, Kind: faultinject.KindError, Prob: 1},
	}})()
	distinct := map[string]bool{}
	for i := 0; i < 64; i++ {
		w, _ := doGet(t, rt, "/extract?host=as1-pod1.cluster0.net")
		if w.Code != 503 {
			t.Fatalf("all-down GET = %d, want 503", w.Code)
		}
		v := w.Header().Get("Retry-After")
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("Retry-After %q is not an integer", v)
		}
		if n < 2 || n > 4 {
			t.Fatalf("Retry-After %d outside [2, 4]", n)
		}
		distinct[v] = true
	}
	if len(distinct) < 2 {
		t.Errorf("64 hints collapsed to %d distinct value(s); jitter is not spreading", len(distinct))
	}
}

// TestShardKey: PSL-known suffixes shard on their registered domain so
// every host of one operator's domain lands on the same replica set.
func TestShardKey(t *testing.T) {
	nodes := newTestNodes(t, 1)
	rt := newTestRouter(t, nodes, nil)
	a := rt.shardKey("ae1.cr2.example.net")
	b := rt.shardKey("xe0.br1.example.net")
	if a != b {
		t.Errorf("shard keys %q and %q differ for one registered domain", a, b)
	}
	if got := rt.shardKey("host.weird-unknown-tld-zzz"); got != "host.weird-unknown-tld-zzz" {
		t.Errorf("unknown suffix key = %q, want the whole hostname", got)
	}
	_ = fmt.Sprint(a)
}
