package serve

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestHTTPServerClosesStalledHeaders: a client that sends half a
// request line and stalls has its connection closed once the header
// timeout passes, while a whole request on the same server is answered.
func TestHTTPServerClosesStalledHeaders(t *testing.T) {
	defer func(d time.Duration) { serverHeaderTimeout = d }(serverHeaderTimeout)
	serverHeaderTimeout = 100 * time.Millisecond
	srv := NewHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	if srv.ReadHeaderTimeout != serverHeaderTimeout || srv.IdleTimeout != idleTimeout {
		t.Fatalf("ReadHeaderTimeout %v, IdleTimeout %v; want %v, %v",
			srv.ReadHeaderTimeout, srv.IdleTimeout, serverHeaderTimeout, idleTimeout)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-done; err != http.ErrServerClosed {
			t.Errorf("Serve: %v", err)
		}
	}()

	resp, err := http.Get("http://" + ln.Addr().String() + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "ok" {
		t.Fatalf("whole request answered %q, want ok", body)
	}

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /extract?host=as1"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(5 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("stalled connection still open after %v: %v", time.Since(start), err)
	}
	t.Logf("stalled connection closed after %v", time.Since(start))
}
