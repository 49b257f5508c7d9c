package cluster

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// countingListener counts the connections it accepts.
type countingListener struct {
	net.Listener
	accepts atomic.Int32
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// TestProbeReusesConnection: a router probing an idle node for several
// probe intervals does it over one kept-alive connection, not a new
// dial per probe.
func TestProbeReusesConnection(t *testing.T) {
	h := newTestNodes(t, 1)[0].srv.Handler()
	var probes atomic.Int32
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			probes.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	ln := &countingListener{Listener: ts.Listener}
	ts.Listener = ln
	ts.Start()
	defer ts.Close()

	rt, err := NewRouter(Config{Nodes: []string{ts.URL}, ProbeInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	rt.Start(ctx)
	defer func() {
		cancel()
		rt.Wait()
		rt.client.CloseIdleConnections()
	}()
	for deadline := time.Now().Add(5 * time.Second); probes.Load() < 10; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d probes in 5s", probes.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if n := ln.accepts.Load(); n != 1 {
		t.Errorf("%d probes opened %d connections, want 1", probes.Load(), n)
	}
}
