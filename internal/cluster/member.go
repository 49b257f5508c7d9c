package cluster

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"
)

// member is one hoihod node in the cluster. Health is a single atomic
// bit written from two directions: the probe loop (authoritative, both
// directions) and the forwarding path (demote-only, so a request-time
// failure takes the node out of rotation immediately instead of waiting
// a probe period).
type member struct {
	name string // the configured base URL, also the ring identity
	base *url.URL

	healthy  atomic.Bool
	probeErr atomic.Pointer[string] // last probe failure, for /-/cluster

	// cancel stops this member's probe loop on Leave; Start's context
	// cancellation stops all of them.
	cancel context.CancelFunc
}

// endpoint joins the member's base URL with a server path like
// "/extract" or "/-/rollout/prepare".
func (m *member) endpoint(path string) string {
	u := *m.base
	u.Path, u.RawQuery = path, ""
	return u.String()
}

// probeLoop drives m's health bit: probe, record, back off, repeat. A
// healthy node is probed every ProbeInterval; failures double the wait
// up to ProbeMaxBackoff so a dead node is not hammered. Each wait is
// jittered across [w/2, w] from a per-member deterministic source, so a
// fleet of routers restarted together does not probe in lockstep.
func (rt *Router) probeLoop(ctx context.Context, m *member) {
	defer rt.wg.Done()
	rng := rand.New(rand.NewSource(int64(hashKey(m.name))))
	wait := rt.cfg.ProbeInterval
	timer := time.NewTimer(0) // first probe immediately
	defer timer.Stop()
	for {
		select {
		case <-timer.C:
		case <-ctx.Done():
			return
		}
		ok := rt.probe(ctx, m)
		if ok {
			if !m.healthy.Swap(true) {
				rt.logf("probe: %s healthy", m.name)
			}
		} else if m.healthy.Swap(false) {
			rt.logf("probe: %s unhealthy", m.name)
		}
		wait = nextProbeWait(wait, rt.cfg.ProbeInterval, rt.cfg.ProbeMaxBackoff, ok)
		timer.Reset(jitterWait(wait, rng))
	}
}

// nextProbeWait advances the probe backoff: a successful probe resets
// to the base interval immediately (a recovered node must not inherit
// its outage's backoff), a failure doubles the current wait up to max.
func nextProbeWait(cur, base, max time.Duration, ok bool) time.Duration {
	if ok {
		return base
	}
	w := cur * 2
	if w > max {
		w = max
	}
	return w
}

// jitterWait spreads a probe wait uniformly across [w/2, w] using the
// member's deterministic source, so a fleet of routers restarted
// together does not probe in lockstep yet every schedule is
// reproducible under test.
func jitterWait(w time.Duration, rng *rand.Rand) time.Duration {
	half := w / 2
	return half + time.Duration(rng.Int63n(int64(half)+1))
}

// probe performs one readiness check: GET /readyz within ProbeTimeout.
// Only a 200 counts — a draining node answers 503 and correctly drops
// out of rotation.
func (rt *Router) probe(ctx context.Context, m *member) bool {
	pctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, m.endpoint("/readyz"), nil)
	if err != nil {
		m.noteProbeErr(err)
		return false
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		m.noteProbeErr(err)
		return false
	}
	// Read the short reply ("ready\n") before closing, or the transport
	// drops the connection and the next probe dials a new one.
	io.Copy(io.Discard, io.LimitReader(resp.Body, 512))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		m.noteProbeErr(fmt.Errorf("cluster: probe %s: readyz returned %d", m.name, resp.StatusCode))
		return false
	}
	m.probeErr.Store(nil)
	return true
}

func (m *member) noteProbeErr(err error) {
	s := err.Error()
	m.probeErr.Store(&s)
}

// markUnhealthy is the forwarding path's passive demotion: a transport
// failure means the node is gone right now, so it leaves rotation
// immediately and the probe loop brings it back when /readyz recovers.
func (rt *Router) markUnhealthy(m *member, err error) {
	if m.healthy.Swap(false) {
		rt.stats.unhealthy.Add(1)
		rt.logf("forward: %s marked unhealthy: %v", m.name, err)
	}
}
