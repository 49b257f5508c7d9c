package serve

import (
	"net/http"
	"time"
)

const (
	// headerTimeout bounds how long a client may take to send a
	// request's line and headers. Without it a client that opens a
	// connection and stalls mid-headers holds its goroutine and
	// connection for as long as it likes.
	headerTimeout = 10 * time.Second
	// idleTimeout bounds how long a keep-alive connection waits for its
	// next request. It is longer than the 90 s after which the router's
	// transport (a clone of http.DefaultTransport) drops an idle
	// connection to a node, so the client side closes first and a
	// request never races the server's close.
	idleTimeout = 2 * time.Minute
)

// serverHeaderTimeout is headerTimeout, a variable so that tests can
// shorten it.
var serverHeaderTimeout = headerTimeout

// NewHTTPServer returns the http.Server that hoihod and hoihoc serve h
// with: the standard server with a bound on how long a client may take
// to send its headers and on how long an idle connection stays open.
// A request body's read is bounded by each endpoint's byte cap, not by
// time.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: serverHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}
