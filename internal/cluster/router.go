package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"hoiho/internal/faultinject"
	"hoiho/internal/serve"
)

// maxProxyRespBytes caps a buffered upstream response. A single answer
// is small, but a batch inside the node's default 8 MiB body cap can
// render well past it.
const maxProxyRespBytes = 32 << 20

// errResponseTooLarge is a node answer over maxProxyRespBytes. The
// router answers it with a 502 naming the cap and does not fail over:
// every node would render the same answer.
var errResponseTooLarge = fmt.Errorf("cluster: upstream response exceeds the %d-byte cap", maxProxyRespBytes)

// Handler returns the router's full HTTP surface. Extraction endpoints
// shard and forward; health endpoints report the router's own view;
// admin endpoints drive membership and rollouts.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /readyz", rt.handleReadyz)
	mux.HandleFunc("GET /extract", rt.handleExtract)
	mux.HandleFunc("POST /extract", rt.handleExtractBatch)
	mux.HandleFunc("GET /-/cluster", rt.handleCluster)
	mux.HandleFunc("POST /-/rollout", rt.handleRollout)
	mux.HandleFunc("POST /-/join", rt.handleJoin)
	mux.HandleFunc("POST /-/leave", rt.handleLeave)
	return mux
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports routability: ready as long as at least one
// member is healthy. Shard-level gaps surface per request (503 with
// Retry-After), not as global unreadiness.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	v := rt.view.Load()
	for _, m := range v.members {
		if m.healthy.Load() {
			w.WriteHeader(http.StatusOK)
			fmt.Fprintln(w, "ready")
			return
		}
	}
	rt.shed(w, "no healthy cluster members")
}

func (rt *Router) handleExtract(w http.ResponseWriter, r *http.Request) {
	rt.stats.requests.Add(1)
	host := r.URL.Query().Get("host")
	if host == "" {
		http.Error(w, "cluster: missing host query parameter", http.StatusBadRequest)
		return
	}
	rt.forward(w, r, rt.shardKey(host), nil, true)
}

// handleExtractBatch forwards a newline-separated batch body whole to
// one node, sharded on the first hostname — batch callers group related
// hosts, and splitting a batch across nodes would trade one upstream
// round trip for N with no correctness gain (every node serves the full
// corpus).
func (rt *Router) handleExtractBatch(w http.ResponseWriter, r *http.Request) {
	rt.stats.requests.Add(1)
	body, err := io.ReadAll(io.LimitReader(r.Body, rt.cfg.MaxBatchBytes+1))
	if err != nil {
		http.Error(w, fmt.Sprintf("cluster: reading batch body: %v", err), http.StatusBadRequest)
		return
	}
	if int64(len(body)) > rt.cfg.MaxBatchBytes {
		http.Error(w, fmt.Sprintf("cluster: batch body exceeds %d-byte cap", rt.cfg.MaxBatchBytes), http.StatusBadRequest)
		return
	}
	first := firstHostLine(body)
	if first == "" {
		http.Error(w, "cluster: batch body contains no hostnames", http.StatusBadRequest)
		return
	}
	rt.forward(w, r, rt.shardKey(first), body, false)
}

// firstHostLine returns the first non-blank line of a batch body.
func firstHostLine(body []byte) string {
	for _, line := range strings.Split(string(body), "\n") {
		if h := strings.TrimSpace(line); h != "" {
			return h
		}
	}
	return ""
}

// attemptResult is one forwarding attempt's outcome, tagged with the
// candidate index so the select loop knows which node produced it.
type attemptResult struct {
	idx int
	res *proxyResult
	err error
}

// forward routes one request to its shard: replicas in preference
// order, bounded retries, an optional hedged second attempt after the
// latency budget, and a degraded fallback to healthy non-owners when
// the whole replica set is down. Exhausting every candidate sheds the
// request with the serve taxonomy (503 + jittered Retry-After); the
// router's own deadline expiring sheds it as 504.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, key string, body []byte, hedge bool) {
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
	defer cancel()

	v := rt.view.Load()
	candidates, owners := rt.candidates(v, key)
	if len(candidates) == 0 {
		rt.stats.shed.Add(1)
		rt.shed(w, ErrShardUnavailable.Error())
		return
	}

	// Every attempt gets its own bounded context; all of them are
	// cancelled on return so hedged losers stop immediately rather than
	// running out their TryTimeout.
	cancels := make([]context.CancelFunc, 0, len(candidates))
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()

	// Buffered to the candidate count: every attempt goroutine can
	// deliver (or fall through its default arm) and exit even if the
	// handler has already returned.
	replies := make(chan attemptResult, len(candidates))
	launched, pending := 0, 0
	launch := func() {
		i := launched
		launched++
		pending++
		m := candidates[i]
		actx, acancel := context.WithTimeout(ctx, rt.cfg.TryTimeout)
		cancels = append(cancels, acancel)
		rt.stats.forwards.Add(1)
		go func() {
			res, err := rt.proxy(actx, m, r.Method, r.URL.Path, r.URL.RawQuery, body)
			select {
			case replies <- attemptResult{idx: i, res: res, err: err}:
			default:
			}
		}()
	}
	launch()

	var hedgeC <-chan time.Time
	if hedge && len(candidates) > 1 {
		t := time.NewTimer(rt.cfg.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}

	for pending > 0 {
		select {
		case ar := <-replies:
			pending--
			m := candidates[ar.idx]
			if errors.Is(ar.err, errResponseTooLarge) {
				http.Error(w, ar.err.Error(), http.StatusBadGateway)
				return
			}
			if ar.err != nil {
				// Transport-level failure: the node is unreachable right
				// now; demote it and fail over.
				rt.markUnhealthy(m, ar.err)
			} else if !retryableStatus(ar.res.status) {
				rt.writeProxied(w, ar.res, m.name, ar.idx >= owners)
				return
			}
			// Retryable (transport error, 429, or 5xx): try the next
			// candidate if any remain un-launched.
			if launched < len(candidates) {
				rt.stats.retries.Add(1)
				launch()
			}
		case <-hedgeC:
			hedgeC = nil
			if launched < len(candidates) {
				rt.stats.hedges.Add(1)
				launch()
			}
		case <-ctx.Done():
			rt.stats.shed.Add(1)
			http.Error(w, "cluster: request deadline exceeded", http.StatusGatewayTimeout)
			return
		}
	}
	rt.stats.shed.Add(1)
	rt.shed(w, ErrShardUnavailable.Error())
}

// candidates orders the nodes a request may be forwarded to: healthy
// owners first, then unhealthy owners (health bits lag reality — a node
// marked down may answer, and trying it beats shedding), then healthy
// non-owners as the degraded last resort. The returned owners count
// marks where degraded territory starts. The list is capped at
// MaxAttempts.
func (rt *Router) candidates(v *view, key string) (list []*member, owners int) {
	names := v.ring.OwnersAppend(make([]string, 0, v.ring.Replication()), key)
	isOwner := func(name string) bool {
		for _, n := range names {
			if n == name {
				return true
			}
		}
		return false
	}
	list = make([]*member, 0, rt.cfg.MaxAttempts)
	for _, n := range names {
		if m := v.byName[n]; m != nil && m.healthy.Load() {
			list = append(list, m)
		}
	}
	for _, n := range names {
		if m := v.byName[n]; m != nil && !m.healthy.Load() {
			list = append(list, m)
		}
	}
	owners = len(list)
	for _, m := range v.members {
		if m.healthy.Load() && !isOwner(m.name) {
			list = append(list, m)
		}
	}
	if len(list) > rt.cfg.MaxAttempts {
		list = list[:rt.cfg.MaxAttempts]
		if owners > len(list) {
			owners = len(list)
		}
	}
	return list, owners
}

// retryableStatus reports whether an upstream status should fail over
// to another replica: shed signals (429) and server-side failures
// (5xx). Extraction is read-only, so retrying elsewhere is always safe.
func retryableStatus(status int) bool {
	return status == http.StatusTooManyRequests || status >= 500
}

// proxyResult is one buffered upstream response.
type proxyResult struct {
	status int
	header http.Header
	body   []byte
}

// proxy performs one forwarding attempt against m and buffers the
// response. The faultinject hook (keyed by node name) lets chaos tests
// fail specific nodes' forwards deterministically.
func (rt *Router) proxy(ctx context.Context, m *member, method, path, rawQuery string, body []byte) (*proxyResult, error) {
	if err := faultinject.Fire(ctx, faultinject.StageClusterForward, m.name); err != nil {
		return nil, &ForwardError{Node: m.name, Err: err}
	}
	u := *m.base
	u.Path, u.RawQuery = path, rawQuery
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u.String(), rd)
	if err != nil {
		return nil, &ForwardError{Node: m.name, Err: err}
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, &ForwardError{Node: m.name, Err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyRespBytes+1))
	if err != nil {
		return nil, &ForwardError{Node: m.name, Err: err}
	}
	if len(b) > maxProxyRespBytes {
		return nil, &ForwardError{Node: m.name, Err: errResponseTooLarge}
	}
	return &proxyResult{status: resp.StatusCode, header: resp.Header, body: b}, nil
}

// proxiedHeaders are the upstream headers forwarded to the client: the
// corpus provenance stamps (the rollout invariant's evidence), content
// type, and backoff hints.
var proxiedHeaders = []string{
	"Content-Type",
	"X-Hoiho-Corpus",
	"X-Hoiho-Generation",
	"Retry-After",
}

// writeProxied relays an upstream response, adding the serving node's
// identity and, when the answer came from off the shard's replica set,
// an explicit degraded marker — correct (full corpus everywhere) but
// misplaced, and the client deserves to know.
func (rt *Router) writeProxied(w http.ResponseWriter, res *proxyResult, node string, degraded bool) {
	for _, h := range proxiedHeaders {
		if v := res.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Hoiho-Node", node)
	if degraded {
		rt.stats.degraded.Add(1)
		w.Header().Set("X-Hoiho-Degraded", "shard-owners-unavailable")
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// shed writes the router's 503: all candidates exhausted (or none
// exist), with a jittered Retry-After so synchronized clients spread
// their return.
func (rt *Router) shed(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", serve.RetryAfter(rt.cfg.RetryAfter))
	http.Error(w, msg, http.StatusServiceUnavailable)
}

// ClusterStatus is the /-/cluster document: membership health, ring
// shape, and the router's counters.
type ClusterStatus struct {
	Members     []MemberStatus `json:"members"`
	Replication int            `json:"replication"`
	VNodes      int            `json:"vnodes"`

	Requests  uint64 `json:"requests"`
	Forwards  uint64 `json:"forwards"`
	Retries   uint64 `json:"retries"`
	Hedges    uint64 `json:"hedges"`
	Degraded  uint64 `json:"degraded"`
	Shed      uint64 `json:"shed"`
	Rollouts  uint64 `json:"rollouts"`
	Aborted   uint64 `json:"aborted_rollouts"`
	Joins     uint64 `json:"joins"`
	Leaves    uint64 `json:"leaves"`
	Unhealthy uint64 `json:"unhealthy_marks"`

	AntiEntropySweeps      uint64 `json:"anti_entropy_sweeps"`
	AntiEntropyRepairs     uint64 `json:"anti_entropy_repairs"`
	AntiEntropyRepairFails uint64 `json:"anti_entropy_repair_failures"`
}

// MemberStatus is one node's health as the router sees it.
type MemberStatus struct {
	Node      string `json:"node"`
	Healthy   bool   `json:"healthy"`
	LastProbe string `json:"last_probe_error,omitempty"`
}

// StatusNow returns the current ClusterStatus document (the
// programmatic twin of GET /-/cluster).
func (rt *Router) StatusNow() ClusterStatus {
	v := rt.view.Load()
	st := ClusterStatus{
		Members:     make([]MemberStatus, 0, len(v.members)),
		Replication: v.ring.Replication(),
		VNodes:      rt.cfg.VNodes,
		Requests:    rt.stats.requests.Load(),
		Forwards:    rt.stats.forwards.Load(),
		Retries:     rt.stats.retries.Load(),
		Hedges:      rt.stats.hedges.Load(),
		Degraded:    rt.stats.degraded.Load(),
		Shed:        rt.stats.shed.Load(),
		Rollouts:    rt.stats.rollouts.Load(),
		Aborted:     rt.stats.aborted.Load(),
		Joins:       rt.stats.joins.Load(),
		Leaves:      rt.stats.leaves.Load(),
		Unhealthy:   rt.stats.unhealthy.Load(),

		AntiEntropySweeps:      rt.stats.sweeps.Load(),
		AntiEntropyRepairs:     rt.stats.repairs.Load(),
		AntiEntropyRepairFails: rt.stats.repairFails.Load(),
	}
	for _, m := range v.members {
		ms := MemberStatus{Node: m.name, Healthy: m.healthy.Load()}
		if p := m.probeErr.Load(); p != nil {
			ms.LastProbe = *p
		}
		st.Members = append(st.Members, ms)
	}
	return st
}

func (rt *Router) handleCluster(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.StatusNow())
}

func (rt *Router) handleJoin(w http.ResponseWriter, r *http.Request) {
	node := r.URL.Query().Get("node")
	if node == "" {
		http.Error(w, "cluster: missing node query parameter", http.StatusBadRequest)
		return
	}
	if err := rt.Join(r.Context(), node); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	writeJSON(w, http.StatusOK, rt.StatusNow())
}

func (rt *Router) handleLeave(w http.ResponseWriter, r *http.Request) {
	node := r.URL.Query().Get("node")
	if node == "" {
		http.Error(w, "cluster: missing node query parameter", http.StatusBadRequest)
		return
	}
	if err := rt.Leave(node); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	writeJSON(w, http.StatusOK, rt.StatusNow())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
