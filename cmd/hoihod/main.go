// Command hoihod is the hoiho extraction daemon: it serves a saved
// conventions corpus (the output of `hoiho -save`, JSON or the HBC
// binary form — the format is sniffed, so -corpus and hot reloads
// accept either) as an HTTP service with hot reload, load shedding,
// and graceful drain. An HBC corpus loads pre-compiled, which keeps
// reload pauses short under load.
//
// Endpoints:
//
//	GET  /extract?host=<hostname>   single extraction (JSON)
//	POST /extract                   newline-separated hostnames, batch (JSON)
//	GET  /healthz                   liveness (200 while the process is up)
//	GET  /readyz                    readiness (503 while draining or corpus-less)
//	GET  /statusz                   the node's status document (JSON)
//	POST /-/reload                  reload the corpus file (also: SIGHUP)
//	POST /-/rollback                republish the previous corpus
//	POST /-/rollout/prepare         stage a corpus or HBD delta (body) in the side buffer
//	POST /-/rollout/validate        re-ack the staged corpus
//	POST /-/rollout/commit          persist and publish it (?fingerprint= pins it)
//	POST /-/rollout/abort           drop the side buffer
//
// The status document carries the serving snapshot's identity,
// admission state, counters, the rollout side buffer, the last reload
// error and the last rollout outcome; every admin reply returns it.
// Every extraction response carries X-Hoiho-Corpus (content
// fingerprint) and X-Hoiho-Generation headers identifying the exact
// corpus snapshot that produced it.
//
// Lifecycle: SIGHUP triggers a validated hot reload — a corpus that
// fails validation is rejected while the running corpus keeps serving.
// SIGTERM/SIGINT begins a graceful drain: readiness flips to 503, new
// extraction requests get 503s, admitted requests finish under
// -drain-timeout, and the process exits 0.
//
// Example:
//
//	hoiho -save ncs.json training.txt
//	hoihod -corpus ncs.json -addr :8080 &
//	curl 'localhost:8080/extract?host=ae1-0.cr2.example.net'
//	kill -HUP %1     # pick up a re-learned ncs.json
//	kill -TERM %1    # drain and exit 0
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hoiho/internal/serve"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "hoihod:", err)
		os.Exit(1)
	}
}

// run boots the daemon and blocks until a termination signal drains it
// (or ctx is cancelled, the test path). The daemon's lifecycle log goes
// to out.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hoihod", flag.ContinueOnError)
	fs.SetOutput(out)
	addr := fs.String("addr", ":8080", "listen address")
	corpus := fs.String("corpus", "", "saved conventions JSON to serve (required; output of hoiho -save)")
	classes := fs.String("classes", "usable", "which conventions to serve: good, usable, or all")
	maxInflight := fs.Int("max-inflight", 64, "maximum concurrently executing extraction requests")
	maxQueue := fs.Int("max-queue", 256, "maximum requests waiting for admission before shedding")
	queueWait := fs.Duration("queue-wait", 100*time.Millisecond, "maximum time a request may wait for admission")
	reqTimeout := fs.Duration("request-timeout", 5*time.Second, "per-request deadline on extraction endpoints")
	drainTimeout := fs.Duration("drain-timeout", 15*time.Second, "how long drain waits for in-flight requests on shutdown")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: hoihod -corpus <ncs.json> [flags]")
	}
	if *corpus == "" {
		return fmt.Errorf("-corpus is required (save one with: hoiho -save ncs.json training.txt)")
	}

	logger := log.New(out, "hoihod: ", log.LstdFlags)
	srv, err := serve.New(serve.Config{
		CorpusPath:     *corpus,
		Classes:        *classes,
		MaxInflight:    *maxInflight,
		MaxQueue:       *maxQueue,
		QueueWait:      *queueWait,
		RequestTimeout: *reqTimeout,
		Log:            logger,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	status := srv.StatusNow()
	logger.Printf("serving corpus %s (%d NCs, fingerprint %s) on %s",
		*corpus, status.NCs, status.Fingerprint, ln.Addr())

	// SIGHUP: validated hot reload. A rejected corpus logs and keeps
	// the old one serving; reload never takes the daemon down.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			if _, err := srv.Reload(context.Background()); err != nil {
				logger.Printf("SIGHUP reload rejected: %v", err)
			}
		}
	}()

	// SIGTERM/SIGINT (or ctx cancellation): graceful drain.
	termCtx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() {
		serveErr <- httpSrv.Serve(ln)
	}()

	select {
	case err := <-serveErr:
		return err
	case <-termCtx.Done():
	}
	logger.Printf("draining: waiting up to %v for in-flight requests", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := srv.Drain(drainCtx)
	// The app-level drain already waited for admitted requests;
	// Shutdown closes the listener and idle connections.
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("http shutdown: %v", err)
	}
	if drainErr != nil {
		return fmt.Errorf("drain incomplete: %w", drainErr)
	}
	logger.Printf("drained cleanly; exiting")
	return nil
}
