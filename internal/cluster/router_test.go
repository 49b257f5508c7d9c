package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hoiho/internal/allocbound"
	"hoiho/internal/faultinject"
	"hoiho/internal/leaktest"
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

// routedBatchBytesPerHost is the heap one 1000-host POST /extract
// through Router.Handler may allocate per host, counting the router,
// its transport and the node behind it. Measured on linux/amd64 with Go
// 1.24: 44 bytes per host. 26 of them are the router's copy of the
// body, which the transport may still read after a forward returns and
// so is not pooled; about 4 are httptest's request. Before bodies were
// read at their size, the node's batch memory was pooled, the relay
// buffer was pooled and the transport's write buffer held a whole batch
// body, it was 492.
const routedBatchBytesPerHost = 52

// TestBoundRoutedBatchBytesPerHost: a routed 1000-host batch allocates
// about one copy of its body, the router's, and little else.
func TestBoundRoutedBatchBytesPerHost(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops the node's pooled scratches at random under -race")
	}
	nodes := newTestNodes(t, 1)
	rt := newTestRouter(t, nodes, nil)
	h := rt.Handler()
	const n = 1000
	var sb strings.Builder
	for i := range n {
		fmt.Fprintf(&sb, "as%d-pod%d.cluster%d.net\n", 1000+i, i, i%nSuffixes)
	}
	body := []byte(sb.String())
	w := allocbound.NewDiscardWriter()
	per := allocbound.BytesPerRun(50, func() {
		w.Code = 0
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/extract", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("routed batch = %d", w.Code)
		}
	}) / n
	t.Logf("%.1f bytes per host", per)
	if per > routedBatchBytesPerHost {
		t.Errorf("routed 1000-host POST /extract = %.1f bytes per host, want <= %d", per, routedBatchBytesPerHost)
	}
}

// TestRouterRelayCutAborts: a node that sends 200 and half a JSON
// array, then dies, must not reach the client as a complete answer. The
// router has relayed the first half by then, so it cannot fail over; it
// aborts the client's connection instead, and the client's body read
// fails rather than ending in a clean EOF under 200.
func TestRouterRelayCutAborts(t *testing.T) {
	var hits atomic.Int32
	stub := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			return
		}
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		// Far past every buffer between node and client, so the router
		// has relayed part of the answer before the cut.
		w.Write([]byte("["))
		w.Write(bytes.Repeat([]byte(`{"hostname":"a1.x.net","found":false},`), 2000))
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	})
	nodes := make([]*testNode, 2)
	for i := range nodes {
		nodes[i] = &testNode{ts: httptest.NewServer(stub)}
		t.Cleanup(nodes[i].ts.Close)
	}
	rt := newTestRouter(t, nodes, nil)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	defer front.Client().CloseIdleConnections()

	resp, err := front.Client().Post(front.URL+"/extract", "text/plain", strings.NewReader("a1.x.net\n"))
	if err != nil {
		t.Fatalf("the relay began before the cut, so the client must see its headers: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil {
		t.Fatalf("cut answer read to a clean EOF under %d (%d bytes)", resp.StatusCode, len(body))
	}
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Errorf("relay before the cut = %d with %d bytes, want the node's 200 and a partial body", resp.StatusCode, len(body))
	}
	if n := hits.Load(); n != 1 {
		t.Errorf("cut answer forwarded to %d nodes, want 1 (no failover after the first byte)", n)
	}
}

// bodyCounter is a RoundTripper that counts the response bodies it
// hands out and how many are still open.
type bodyCounter struct {
	base   *http.Transport
	opened atomic.Int32
	open   atomic.Int32
	// read is closed at the first read of any body; second when the
	// second response is handed out.
	read, second chan struct{}
	readOnce     sync.Once
}

func (c *bodyCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	c.open.Add(1)
	if c.opened.Add(1) == 2 {
		close(c.second)
	}
	resp.Body = &countedBody{ReadCloser: resp.Body, c: c}
	return resp, nil
}

func (c *bodyCounter) CloseIdleConnections() { c.base.CloseIdleConnections() }

type countedBody struct {
	io.ReadCloser
	c    *bodyCounter
	once sync.Once
}

func (b *countedBody) Read(p []byte) (int, error) {
	b.c.readOnce.Do(func() { close(b.c.read) })
	return b.ReadCloser.Read(p)
}

func (b *countedBody) Close() error {
	b.once.Do(func() { b.c.open.Add(-1) })
	return b.ReadCloser.Close()
}

// TestRouterHedgeLoserClosed: a hedged GET where both attempts answer
// 200. The hedge's answer is relayed; the primary's arrives while the
// relay is still running and must be closed, not left open. Once the
// router's idle connections close, no goroutine or connection the
// request started is left.
func TestRouterHedgeLoserClosed(t *testing.T) {
	const host = "as2-pod6.cluster5.net"
	var primary atomic.Pointer[string]
	counter := &bodyCounter{base: &http.Transport{}, read: make(chan struct{}), second: make(chan struct{})}
	wait := func(c <-chan struct{}) {
		select {
		case <-c:
		case <-time.After(5 * time.Second):
		}
	}
	stub := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if "http://"+r.Host == *primary.Load() {
			// The primary stalls past the hedge budget, then answers in
			// full once the router has begun relaying the hedge's answer.
			wait(counter.read)
			fmt.Fprintf(w, `{"hostname":%q,"found":true,"asn":2}`+"\n", host)
			return
		}
		// The hedge answers first, holding back the rest of its body
		// until the primary's answer has reached the router.
		fmt.Fprintf(w, `{"hostname":%q,`, host)
		w.(http.Flusher).Flush()
		wait(counter.second)
		fmt.Fprint(w, `"found":true,"asn":2}`+"\n")
	})
	nodes := make([]*testNode, 2)
	urls := make([]string, len(nodes))
	for i := range nodes {
		nodes[i] = &testNode{ts: httptest.NewServer(stub)}
		t.Cleanup(nodes[i].ts.Close)
		urls[i] = nodes[i].url()
	}
	defer leaktest.Check(t)()

	// No probe loop: the members are marked healthy by hand, so every
	// goroutine and connection after the baseline belongs to the request.
	rt, err := NewRouter(Config{Nodes: urls, HedgeAfter: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rt.client.Transport = counter
	for _, m := range rt.view.Load().members {
		m.healthy.Store(true)
	}
	owner := rt.view.Load().ring.Owners(rt.shardKey(host))[0]
	primary.Store(&owner)

	w, rep := doGet(t, rt, "/extract?host="+host)
	if w.Code != 200 || !rep.Found || rep.ASN != 2 {
		t.Fatalf("hedged GET = %d %+v: %s", w.Code, rep, w.Body.String())
	}
	if got := w.Header().Get("X-Hoiho-Node"); got == owner {
		t.Errorf("served by the stalled primary %s, want the hedge", got)
	}
	if n := counter.opened.Load(); n != 2 {
		t.Fatalf("%d upstream answers reached the router, want both attempts'", n)
	}
	for deadline := time.Now().Add(5 * time.Second); counter.open.Load() != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d unrelayed upstream bodies left open", counter.open.Load())
		}
		time.Sleep(time.Millisecond)
	}
	rt.client.CloseIdleConnections()
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
