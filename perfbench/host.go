package main

// The host process: the system under test. For the serving workloads
// it runs 3 hoihod nodes behind 1 hoihoc router over loopback TCP,
// composed as cmd/hoihod and cmd/hoihoc compose them, with their flag
// defaults. It talks to the orchestrator over stdin/stdout: one ready
// line after boot, then it obeys "mark" (the timed window starts; it
// answers "marked"), "finish <ops>" (report and exit) and "quit"
// (exit).

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"hoiho/internal/cluster"
	"hoiho/internal/corpusbin"
	"hoiho/internal/extract"
	"hoiho/internal/psl"
	"hoiho/internal/serve"
)

const numNodes = 3

// readyMsg is the host's boot announcement.
type readyMsg struct {
	Router  string `json:"router,omitempty"`
	CorpusA string `json:"corpus_a,omitempty"`
	CorpusB string `json:"corpus_b,omitempty"`
}

// report is what a child process hands the orchestrator when it ends.
type report struct {
	Attempted int                `json:"attempted"`
	Ops       int                `json:"ops"` // the workload's unit operations: lookups, batches, epochs, learn runs
	Failed    int                `json:"failed"`
	Wrong     int                `json:"wrong"`
	Errors    []string           `json:"errors,omitempty"`
	E2E       map[string]float64 `json:"e2e,omitempty"`   // end-to-end metrics
	Named     map[string]float64 `json:"named,omitempty"` // per-workload named metrics
	Layer     map[string]float64 `json:"layer,omitempty"` // per-layer metrics
	Notes     []string           `json:"notes,omitempty"`
	Gen       map[string]any     `json:"gen,omitempty"` // generator self-report
}

// fail records one failed operation, keeping the first few messages.
func (r *report) fail(wrong bool, err error) {
	r.Failed++
	if wrong {
		r.Wrong++
	}
	if len(r.Errors) < 5 {
		r.Errors = append(r.Errors, err.Error())
	}
}

type hostFlags struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	dir      string
}

func hostMain(args []string) error {
	var f hostFlags
	fs := newFlagSet("host")
	fs.StringVar(&f.workload, "workload", "", "workload name")
	fs.Uint64Var(&f.seed, "seed", defaultSeed, "workload seed")
	fs.Float64Var(&f.seconds, "seconds", 10, "measured seconds (learn)")
	fs.BoolVar(&f.trace, "trace", false, "record spans")
	fs.StringVar(&f.dir, "dir", "", "scratch directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if f.workload == "learn" {
		return learnHostMain(f)
	}
	h, ready, err := bootCluster(f)
	if err != nil {
		return err
	}
	defer h.close()
	if err := json.NewEncoder(os.Stdout).Encode(ready); err != nil {
		return err
	}
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		cmd, arg, _ := strings.Cut(in.Text(), " ")
		switch cmd {
		case "mark":
			resetPeakRSS()
			h.mark()
			fmt.Println("marked")
		case "finish":
			ops, _ := strconv.Atoi(arg)
			rep := h.finish(ops)
			return json.NewEncoder(os.Stdout).Encode(rep)
		case "quit":
			return nil
		}
	}
	return in.Err()
}

// hostCluster is the running system under test.
type hostCluster struct {
	f       hostFlags
	nodes   []*serve.Server
	rt      *cluster.Router
	servers []*http.Server
	lns     []*countingListener // node listeners
	rec     *recorder           // nil when untraced
	stop    context.CancelFunc  // stops the router's probe loops
	corpusA []byte
	corpusB []byte

	t0      procSample
	router0 cluster.ClusterStatus
	nodes0  []serve.Status
	accepts int64
}

func bootCluster(f hostFlags) (*hostCluster, readyMsg, error) {
	h := &hostCluster{f: f}
	if f.trace {
		h.rec = newRecorder()
	}
	logFile, err := os.Create(filepath.Join(f.dir, "host.log"))
	if err != nil {
		return nil, readyMsg{}, err
	}

	ncs := baseNCs()
	if h.corpusA, err = encodeHBC(ncs); err != nil {
		return nil, readyMsg{}, err
	}
	ready := readyMsg{CorpusA: filepath.Join(f.dir, "a.hbc")}
	if err := os.WriteFile(ready.CorpusA, h.corpusA, 0o644); err != nil {
		return nil, readyMsg{}, err
	}
	if f.workload == "rollout" {
		if h.corpusB, err = encodeHBC(variantNCs(f.seed, ncs)); err != nil {
			return nil, readyMsg{}, err
		}
		ready.CorpusB = filepath.Join(f.dir, "b.hbc")
		if err := os.WriteFile(ready.CorpusB, h.corpusB, 0o644); err != nil {
			return nil, readyMsg{}, err
		}
	}

	// Nodes, as cmd/hoihod builds them with its flag defaults. Each gets
	// its own corpus file, because a commit rewrites it.
	var urls []string
	for i := 0; i < numNodes; i++ {
		path := filepath.Join(f.dir, fmt.Sprintf("node%d.hbc", i))
		if err := os.WriteFile(path, h.corpusA, 0o644); err != nil {
			return nil, readyMsg{}, err
		}
		node, err := serve.New(serve.Config{
			CorpusPath:     path,
			Classes:        "usable",
			MaxInflight:    64,
			MaxQueue:       256,
			QueueWait:      100 * time.Millisecond,
			RequestTimeout: 5 * time.Second,
			Log:            log.New(logFile, fmt.Sprintf("node%d: ", i), log.LstdFlags),
		})
		if err != nil {
			h.close()
			return nil, readyMsg{}, err
		}
		var handler http.Handler = node.Handler()
		if h.rec != nil {
			handler = h.rec.wrap("node", handler)
		}
		ln, err := h.listen(handler)
		if err != nil {
			h.close()
			return nil, readyMsg{}, err
		}
		h.nodes = append(h.nodes, node)
		h.lns = append(h.lns, ln)
		urls = append(urls, "http://"+ln.Addr().String())
	}

	// The router, as cmd/hoihoc builds it with its flag defaults. The
	// rollout workload turns the journal on so epochs plan HBD deltas;
	// anti-entropy stays off.
	cfg := cluster.Config{
		Nodes:               urls,
		Replicas:            cluster.DefaultReplicas,
		VNodes:              cluster.DefaultVNodes,
		ProbeInterval:       time.Second,
		ProbeTimeout:        500 * time.Millisecond,
		HedgeAfter:          25 * time.Millisecond,
		TryTimeout:          2 * time.Second,
		RequestTimeout:      5 * time.Second,
		RolloutPhaseTimeout: 15 * time.Second,
		Log:                 log.New(logFile, "router: ", log.LstdFlags),
	}
	if f.workload == "rollout" {
		cfg.JournalPath = filepath.Join(f.dir, "journal")
	}
	if h.rt, err = cluster.NewRouter(cfg); err != nil {
		h.close()
		return nil, readyMsg{}, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	h.stop = cancel
	h.rt.Start(ctx)
	if cfg.JournalPath != "" {
		if err := h.rt.Resume(ctx); err != nil {
			h.close()
			return nil, readyMsg{}, err
		}
	}
	var handler http.Handler = h.rt.Handler()
	if h.rec != nil {
		handler = h.rec.wrap("router", handler)
	}
	ln, err := h.listen(handler)
	if err != nil {
		h.close()
		return nil, readyMsg{}, err
	}
	ready.Router = "http://" + ln.Addr().String()
	if err := waitReady(ready.Router, 30*time.Second); err != nil {
		h.close()
		return nil, readyMsg{}, err
	}
	if f.workload == "rollout" {
		// Seed the journal's committed base, so every timed epoch can
		// plan deltas against it.
		if err := postRollout(ready.Router, h.corpusA); err != nil {
			h.close()
			return nil, readyMsg{}, fmt.Errorf("perfbench: seed epoch: %w", err)
		}
	}
	h.mark()
	return h, ready, nil
}

// listen serves handler on a fresh loopback port.
func (h *hostCluster) listen(handler http.Handler) (*countingListener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cl := &countingListener{Listener: ln}
	srv := &http.Server{Handler: handler}
	h.servers = append(h.servers, srv)
	go srv.Serve(cl) //nolint:errcheck // returns ErrServerClosed at close
	return cl, nil
}

func waitReady(base string, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("perfbench: %s not ready after %v", base, limit)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func postRollout(base string, corpus []byte) error {
	resp, err := http.Post(base+"/-/rollout", "application/octet-stream", bytes.NewReader(corpus))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return nil
}

// mark starts the measured window for the counter deltas.
func (h *hostCluster) mark() {
	h.t0 = sampleProc()
	h.router0 = h.rt.StatusNow()
	h.nodes0 = h.nodes0[:0]
	for _, n := range h.nodes {
		h.nodes0 = append(h.nodes0, n.StatusNow())
	}
	h.accepts = h.nodeAccepts()
}

func (h *hostCluster) nodeAccepts() int64 {
	var n int64
	for _, ln := range h.lns {
		n += ln.accepts.Load()
	}
	return n
}

// finish ends the measured window, in which the generator completed
// ops operations, and reports the host's side of it.
func (h *hostCluster) finish(ops int) report {
	t1 := sampleProc()
	rep := report{E2E: map[string]float64{
		"cpu_ms_per_op": ms(t1.cpu-h.t0.cpu) / float64(max(ops, 1)),
		"rss_peak_mb":   peakRSSMB(),
	}}
	if h.rec == nil {
		return rep
	}
	rep.Layer = runtimeLayer(h.t0, t1, ops)
	r1 := h.rt.StatusNow()
	reqs := float64(r1.Requests - h.router0.Requests)
	fwds := float64(r1.Forwards - h.router0.Forwards)
	if reqs > 0 {
		rep.Layer["cluster.attempts_per_req"] = fwds / reqs
	}
	if fwds > 0 {
		rep.Layer["net.conns_per_1k"] = float64(h.nodeAccepts()-h.accepts) * 1000 / fwds
	}
	rep.Layer["cluster.hedges"] = float64(r1.Hedges - h.router0.Hedges)
	rep.Layer["cluster.retries"] = float64(r1.Retries - h.router0.Retries)
	rep.Layer["cluster.shed"] = float64(r1.Shed - h.router0.Shed)
	var shed, deadline uint64
	for i, n := range h.nodes {
		st := n.StatusNow()
		shed += st.Shed - h.nodes0[i].Shed
		deadline += st.Deadline - h.nodes0[i].Deadline
	}
	rep.Layer["serve.shed"] = float64(shed)
	rep.Layer["serve.deadline"] = float64(deadline)
	if err := h.rec.writeFile(filepath.Join(h.f.dir, "host-spans.json")); err != nil {
		rep.fail(false, err)
	}
	if err := h.replay(&rep); err != nil {
		rep.fail(false, err)
	}
	rep.Layer["trace.record_ns"] = recordCost()
	return rep
}

// replay re-runs the workload's inputs through single layers in
// process, without the network, after the measured window.
func (h *hostCluster) replay(rep *report) error {
	oracle, err := extract.Load(bytes.NewReader(h.corpusA), extract.UsableOnly())
	if err != nil {
		return err
	}
	hosts := universe()
	handler := h.nodes[0].Handler()
	switch h.f.workload {
	case "lookup":
		var idx []int
		idx = append(idx, take(newZipfStream(h.f.seed, openEntity), 10_000)...)
		idx = append(idx, take(newZipfStream(h.f.seed, closedEntity(0)), 10_000)...)
		names := make([]string, len(idx))
		for i, j := range idx {
			names[i] = hosts[j]
		}
		reqs := make([]*http.Request, len(names))
		for i, n := range names {
			reqs[i] = httptest.NewRequest(http.MethodGet, "/extract?host="+n+"&rid=x"+strconv.Itoa(i), nil)
		}
		per, allocs := timeAllocs(len(reqs), func() {
			for _, r := range reqs {
				handler.ServeHTTP(httptest.NewRecorder(), r)
			}
		})
		rep.Layer["serve.inproc_us"] = us(per)
		rep.Layer["serve.allocs_per_req"] = allocs
		rep.Layer["extract.ns_per_host"] = float64(extractCost(oracle, names))
		list := psl.Default()
		per, _ = timeAllocs(len(names)*10, func() {
			for k := 0; k < 10; k++ {
				for _, n := range names {
					list.RegisteredDomain(n)
				}
			}
		})
		rep.Layer["psl.ns_per_host"] = float64(per)
	case "batch":
		stream := newSweepStream(h.f.seed, batchEntity(0))
		var batches [][]string
		var bodies [][]byte
		for b := 0; b < 50; b++ {
			names := make([]string, batchHosts)
			for i := range names {
				names[i] = hosts[stream.next()]
			}
			batches = append(batches, names)
			bodies = append(bodies, []byte(strings.Join(names, "\n")+"\n"))
		}
		var respBytes int
		per, allocs := timeAllocs(len(bodies), func() {
			for _, body := range bodies {
				w := httptest.NewRecorder()
				handler.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/extract?rid=x", bytes.NewReader(body)))
				respBytes += w.Body.Len()
			}
		})
		rep.Layer["serve.batch_inproc_us"] = us(per)
		rep.Layer["serve.batch_allocs"] = allocs
		rep.Layer["serve.resp_bytes_per_host"] = float64(respBytes) / float64(len(bodies)*batchHosts)
		var found, total int
		per, _ = timeAllocs(len(batches), func() {
			for _, names := range batches {
				res, _ := oracle.ExtractBatch(context.Background(), names)
				for _, r := range res {
					if r.OK {
						found++
					}
				}
				total += len(res)
			}
		})
		rep.Layer["extract.batch_us"] = us(per)
		rep.Layer["extract.hit_ratio"] = float64(found) / float64(total)
		var all []string
		for _, b := range batches {
			all = append(all, b...)
		}
		rep.Layer["extract.ns_per_host"] = float64(extractCost(oracle, all))
	case "rollout":
		a, err := extract.Load(bytes.NewReader(h.corpusA))
		if err != nil {
			return err
		}
		b, err := extract.Load(bytes.NewReader(h.corpusB))
		if err != nil {
			return err
		}
		var delta bytes.Buffer
		if err := extract.Diff(a, b, &delta); err != nil {
			return err
		}
		steps := map[string]func() error{
			"corpusbin.decode_ms": func() error { _, err := corpusbin.Decode(h.corpusA); return err },
			"extract.load_ms":     func() error { _, err := extract.Load(bytes.NewReader(h.corpusA), extract.UsableOnly()); return err },
			"extract.diff_ms":     func() error { return extract.Diff(a, b, io.Discard) },
			"extract.apply_delta_ms": func() error {
				_, _, err := extract.ApplyDelta(a, delta.Bytes(), extract.UsableOnly())
				return err
			},
		}
		for name, step := range steps {
			var ts []float64
			for k := 0; k < 7; k++ {
				t := time.Now()
				if err := step(); err != nil {
					return fmt.Errorf("perfbench: replay %s: %w", name, err)
				}
				ts = append(ts, ms(time.Since(t)))
			}
			rep.Layer[name] = median(ts)
		}
	}
	return nil
}

// timeAllocs runs f once and returns its time and heap allocations
// per each of n operations.
func timeAllocs(n int, f func()) (time.Duration, float64) {
	m0 := mallocs()
	t := time.Now()
	f()
	d := time.Since(t)
	return d / time.Duration(n), float64(mallocs()-m0) / float64(n)
}

// extractCost is Corpus.Extract's median cost per host over a few
// passes of names, in ns.
func extractCost(c *extract.Corpus, names []string) time.Duration {
	ctx := context.Background()
	var ts []float64
	for k := 0; k < 5; k++ {
		per, _ := timeAllocs(len(names), func() {
			for _, n := range names {
				c.Extract(ctx, n)
			}
		})
		ts = append(ts, float64(per))
	}
	return time.Duration(median(ts))
}

// recordCost is the cost of one span through the tracing wrapper
// around a handler that does nothing, in ns.
func recordCost() float64 {
	rec := newRecorder()
	h := rec.wrap("node", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	r := httptest.NewRequest(http.MethodGet, "/extract?host=x&rid=o1", nil)
	w := httptest.NewRecorder()
	per, _ := timeAllocs(20_000, func() {
		for i := 0; i < 20_000; i++ {
			h.ServeHTTP(w, r)
		}
	})
	return float64(per)
}

func (h *hostCluster) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, s := range h.servers {
		if err := s.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintln(os.Stderr, "perfbench: host shutdown:", err)
		}
	}
	if h.stop != nil {
		h.stop()
		h.rt.Wait()
	}
}
