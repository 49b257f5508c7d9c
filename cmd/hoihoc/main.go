// Command hoihoc is the hoiho cluster router: it fronts a fleet of
// hoihod nodes, consistent-hashing the registered-domain suffix space
// across them with R-way replication, failing over between replicas,
// hedging slow reads, and coordinating two-phase cluster-wide corpus
// rollouts.
//
// Endpoints:
//
//	GET  /extract?host=<hostname>   single extraction, forwarded to the
//	                                host's shard (hedged, failed over)
//	POST /extract                   batch, forwarded whole to one node
//	GET  /healthz                   router liveness
//	GET  /readyz                    503 until at least one node is healthy
//	GET  /-/cluster                 membership health, ring shape, counters
//	POST /-/rollout                 two-phase corpus rollout: body is an
//	                                HBC corpus (`hoiho -save`) or, with
//	                                -journal, an HBD delta from `hoiho
//	                                -diff`; commits on every node or aborts
//	                                on all of them; a body that does not
//	                                decode (JSON included) is a 422
//	POST /-/join?node=<url>         warm a node, then add it to the ring
//	POST /-/leave?node=<url>        remove a node from the ring
//
// Forwarded responses carry X-Hoiho-Node (which node answered) on top
// of the node's own X-Hoiho-Corpus/X-Hoiho-Generation stamps; answers
// served off the shard's replica set (all owners down) additionally
// carry X-Hoiho-Degraded.
//
// Example (3-node local cluster, R=2):
//
//	hoihod -corpus node1.hbc -addr :8081 &
//	hoihod -corpus node2.hbc -addr :8082 &
//	hoihod -corpus node3.hbc -addr :8083 &
//	hoihoc -addr :8080 -nodes http://localhost:8081,http://localhost:8082,http://localhost:8083 \
//	       -journal /var/lib/hoihoc/journal -anti-entropy 30s
//	curl 'localhost:8080/extract?host=ae1-0.cr2.example.net'
//	curl -X POST --data-binary @ncs.hbc 'localhost:8080/-/rollout'
//	hoiho -diff ncs.hbc ncs-v2.hbc -o patch.hbd
//	curl -X POST --data-binary @patch.hbd 'localhost:8080/-/rollout'
//
// With -journal, every epoch's state (phase, manifest, per-node delta
// plan) is journaled before it advances: a coordinator killed
// mid-rollout resumes on restart — rolling the epoch forward if the
// commit record is durable, aborting it cleanly otherwise — and the
// journal's committed corpus is the base for computing per-node deltas
// and for the -anti-entropy sweep, which repairs nodes that diverged or
// rejoined stale without operator action.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hoiho/internal/cluster"
	"hoiho/internal/serve"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "hoihoc:", err)
		os.Exit(1)
	}
}

// run boots the router and blocks until a termination signal (or ctx
// cancellation, the test path) shuts it down.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hoihoc", flag.ContinueOnError)
	fs.SetOutput(out)
	addr := fs.String("addr", ":8080", "listen address")
	nodes := fs.String("nodes", "", "comma-separated hoihod base URLs (required)")
	replicas := fs.Int("replicas", cluster.DefaultReplicas, "replicas per shard (R)")
	vnodes := fs.Int("vnodes", cluster.DefaultVNodes, "virtual ring points per node")
	probeInterval := fs.Duration("probe-interval", time.Second, "healthy-state readiness probe period")
	probeTimeout := fs.Duration("probe-timeout", 500*time.Millisecond, "single readiness probe deadline")
	hedgeAfter := fs.Duration("hedge-after", 25*time.Millisecond, "latency budget before hedging a read to the next replica")
	tryTimeout := fs.Duration("try-timeout", 2*time.Second, "single forwarding attempt deadline")
	reqTimeout := fs.Duration("request-timeout", 5*time.Second, "end-to-end client request deadline")
	maxAttempts := fs.Int("max-attempts", 0, "maximum nodes one request may be forwarded to (0 = replicas+1)")
	rolloutTimeout := fs.Duration("rollout-timeout", 15*time.Second, "per-node deadline for each rollout phase")
	journalPath := fs.String("journal", "", "directory for the rollout journal; enables delta rollouts and crash recovery")
	antiEntropy := fs.Duration("anti-entropy", 0, "anti-entropy sweep period repairing divergent nodes (0 = off; requires -journal)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: hoihoc -nodes <url,url,...> [flags]")
	}
	if *nodes == "" {
		return fmt.Errorf("-nodes is required (comma-separated hoihod base URLs)")
	}
	var nodeList []string
	for _, n := range strings.Split(*nodes, ",") {
		if n = strings.TrimSpace(n); n != "" {
			nodeList = append(nodeList, n)
		}
	}

	logger := log.New(out, "hoihoc: ", log.LstdFlags)
	rt, err := cluster.NewRouter(cluster.Config{
		Nodes:               nodeList,
		Replicas:            *replicas,
		VNodes:              *vnodes,
		ProbeInterval:       *probeInterval,
		ProbeTimeout:        *probeTimeout,
		HedgeAfter:          *hedgeAfter,
		TryTimeout:          *tryTimeout,
		RequestTimeout:      *reqTimeout,
		MaxAttempts:         *maxAttempts,
		RolloutPhaseTimeout: *rolloutTimeout,
		JournalPath:         *journalPath,
		AntiEntropyInterval: *antiEntropy,
		Log:                 logger,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Printf("routing %d nodes (R=%d, %d vnodes) on %s",
		len(nodeList), *replicas, *vnodes, ln.Addr())

	termCtx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Health probing runs under its own cancellable context so shutdown
	// can stop the loops and wait for them.
	probeCtx, cancelProbes := context.WithCancel(context.Background())
	defer cancelProbes()
	rt.Start(probeCtx)

	// If a previous coordinator died mid-rollout, finish its epoch from
	// the journal before accepting new work: roll forward if the commit
	// record is durable, abort cleanly otherwise.
	if *journalPath != "" {
		if err := rt.Resume(termCtx); err != nil {
			cancelProbes()
			rt.Wait()
			return fmt.Errorf("journal resume: %w", err)
		}
	}

	httpSrv := serve.NewHTTPServer(rt.Handler())
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- httpSrv.Serve(ln)
	}()

	select {
	case err := <-serveErr:
		cancelProbes()
		rt.Wait()
		return err
	case <-termCtx.Done():
	}
	logger.Printf("shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("http shutdown: %v", err)
	}
	cancelProbes()
	rt.Wait()
	logger.Printf("stopped")
	return nil
}
