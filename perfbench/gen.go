package main

// The generator process: it drives the router over loopback HTTP with
// at most nproc connections, checks every answer against an oracle
// corpus loaded from the same bytes the nodes serve, and reports what
// it measured and how late it ran.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hoiho/internal/cluster"
	"hoiho/internal/extract"
)

const (
	lookupRate     = 1000 // open-loop lookups/s on the lookup workload
	backgroundRate = 500  // open-loop lookups/s beside rollout epochs
	genConns       = 2    // connections of the lookup and batch loops
	warmupRequests = 200  // unmeasured lookups that open connections first
)

type genFlags struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	dir      string
	ready    readyMsg
}

// answer is what the oracle expects for one universe hostname.
type answer struct {
	found bool
	asn   uint32
}

// oracle answers for one corpus, indexed like the universe.
type oracle struct {
	fp   string
	want []answer
}

func newOracle(path string, hosts []string) (*oracle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c, err := extract.Load(bytes.NewReader(data), extract.UsableOnly())
	if err != nil {
		return nil, err
	}
	o := &oracle{fp: c.FingerprintString(), want: make([]answer, len(hosts))}
	ctx := context.Background()
	for i, h := range hosts {
		r, ok := c.Extract(ctx, h)
		o.want[i] = answer{found: ok, asn: uint32(r.ASN)}
	}
	return o, nil
}

// extractResp is the part of serve's JSON answer the checks read.
type extractResp struct {
	Hostname string `json:"hostname"`
	Found    bool   `json:"found"`
	ASN      uint32 `json:"asn"`
}

type gen struct {
	f       genFlags
	base    string
	hosts   []string
	oracles map[string]*oracle // by fingerprint
	fpA     string             // the boot corpus
	fpB     string             // the rollout variant; empty on other workloads
	spans   *recorder          // client spans; nil when untraced
	rep     report
	mu      sync.Mutex // guards rep
}

func genMain(args []string) error {
	var f genFlags
	var ready string
	fs := newFlagSet("gen")
	fs.StringVar(&f.workload, "workload", "", "workload name")
	fs.Uint64Var(&f.seed, "seed", defaultSeed, "workload seed")
	fs.Float64Var(&f.seconds, "seconds", 10, "measured seconds")
	fs.BoolVar(&f.trace, "trace", false, "record client spans")
	fs.StringVar(&f.dir, "dir", "", "scratch directory")
	fs.StringVar(&ready, "ready", "", "the host's ready message")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := json.Unmarshal([]byte(ready), &f.ready); err != nil {
		return fmt.Errorf("perfbench: -ready: %w", err)
	}
	g := &gen{f: f, base: f.ready.Router, hosts: universe(), oracles: map[string]*oracle{}}
	if f.trace {
		g.spans = newRecorder()
	}
	for _, c := range []struct {
		path string
		fp   *string
	}{{f.ready.CorpusA, &g.fpA}, {f.ready.CorpusB, &g.fpB}} {
		if c.path == "" {
			continue
		}
		o, err := newOracle(c.path, g.hosts)
		if err != nil {
			return err
		}
		g.oracles[o.fp], *c.fp = o, o.fp
	}
	var err error
	switch f.workload {
	case "lookup":
		err = g.runLookup()
	case "batch":
		err = g.runBatch()
	case "rollout":
		err = g.runRollout()
	default:
		err = fmt.Errorf("perfbench: gen: unknown workload %q", f.workload)
	}
	if err != nil {
		return err
	}
	if g.spans != nil {
		if err := g.spans.writeFile(filepath.Join(f.dir, "gen-spans.json")); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(g.rep)
}

// started tells the orchestrator the measured window is about to
// begin, and waits for its go-ahead: the host first marks the start of
// its counters.
func started() {
	fmt.Println("started")
	bufio.NewScanner(os.Stdin).Scan()
}

func newConn() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
		Timeout:   10 * time.Second,
	}
}

func (g *gen) attempt(n int) {
	g.mu.Lock()
	g.rep.Attempted += n
	g.mu.Unlock()
}

func (g *gen) fail(wrong bool, err error) {
	g.mu.Lock()
	g.rep.fail(wrong, err)
	g.mu.Unlock()
}

// do sends one request and returns the corpus fingerprint header and
// the body of a 200 answer; any other status is an error.
func (g *gen) do(c *http.Client, req *http.Request, name, rid string) (string, []byte, error) {
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return "", nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if g.spans != nil {
		g.spans.add(span{Name: name, Start: t0.UnixNano(), End: time.Now().UnixNano(), RID: rid})
	}
	if err != nil {
		return "", nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return "", nil, fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return resp.Header.Get("X-Hoiho-Corpus"), body, nil
}

// lookup sends GET /extract for universe host idx and checks the
// answer against the oracle of the corpus that says it served it. It
// returns that fingerprint, and false when the lookup failed or was
// wrong, which it records.
func (g *gen) lookup(c *http.Client, idx int, rid string) (string, bool) {
	req, err := http.NewRequest(http.MethodGet, g.base+"/extract?host="+g.hosts[idx]+"&rid="+rid, nil)
	if err != nil {
		g.fail(false, err)
		return "", false
	}
	fp, body, err := g.do(c, req, "client.extract", rid)
	if err != nil {
		g.fail(false, err)
		return "", false
	}
	o := g.oracles[fp]
	if o == nil {
		g.fail(true, fmt.Errorf("lookup %s: served by unknown corpus %q", g.hosts[idx], fp))
		return fp, false
	}
	var got extractResp
	if err := json.Unmarshal(body, &got); err != nil {
		g.fail(true, fmt.Errorf("lookup %s: %w", g.hosts[idx], err))
		return fp, false
	}
	if want := o.want[idx]; got.Hostname != g.hosts[idx] || got.Found != want.found || got.ASN != want.asn {
		g.fail(true, fmt.Errorf("lookup %s: got found=%v asn=%d, oracle %s says found=%v asn=%d",
			g.hosts[idx], got.Found, got.ASN, fp, want.found, want.asn))
		return fp, false
	}
	return fp, true
}

// openSample is one open-loop request, timed from when it was due.
type openSample struct {
	due, sent, done time.Time
	fp              string
	ok              bool // answered and checked; a failed lookup has no latency
}

// openLoop sends len(idx) lookups at rate per second over conns,
// request i due at start + i/rate whichever connection is free.
func (g *gen) openLoop(conns []*http.Client, idx []int, rate float64, prefix string, start time.Time) []openSample {
	out := make([]openSample, len(idx))
	period := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(idx) {
					return
				}
				due := start.Add(time.Duration(i) * period)
				time.Sleep(time.Until(due))
				s := &out[i]
				s.due, s.sent = due, time.Now()
				s.fp, s.ok = g.lookup(c, idx[i], prefix+strconv.Itoa(i))
				s.done = time.Now()
			}
		}(c)
	}
	wg.Wait()
	g.attempt(len(idx))
	return out
}

// latencies returns each answered sample's latency from its due time
// and its send lateness, in ms. Failed samples are left out: a fast
// failure must not lower the latencies.
func latencies(samples []openSample) (lat, late []float64) {
	for _, s := range samples {
		if !s.ok {
			continue
		}
		lat = append(lat, ms(s.done.Sub(s.due)))
		late = append(late, ms(s.sent.Sub(s.due)))
	}
	return lat, late
}

// genReport fills the generator self-report for an open loop.
func (g *gen) genReport(samples []openSample, rate float64, start time.Time) {
	_, late := latencies(samples)
	end := samples[len(samples)-1].done
	for _, s := range samples {
		if s.done.After(end) {
			end = s.done
		}
	}
	achieved := float64(len(samples)) / end.Sub(start).Seconds()
	g.rep.Gen = map[string]any{
		"offered_rps":  rate,
		"achieved_rps": achieved,
		"late_p50_ms":  median(late),
		"late_p99_ms":  quantile(late, 0.99),
		"conns":        genConns,
		"gomaxprocs":   runtime.GOMAXPROCS(0),
	}
	g.rep.Layer = map[string]float64{
		"gen.late_p50_ms":  median(late),
		"gen.late_p99_ms":  quantile(late, 0.99),
		"gen.achieved_rps": achieved,
	}
}

func (g *gen) runLookup() error {
	conns := []*http.Client{newConn(), newConn()}
	openIdx := take(newZipfStream(g.f.seed, openEntity), int(lookupRate*g.f.seconds/2))
	closed := make([][]int, len(conns))
	for k := range conns {
		closed[k] = take(newZipfStream(g.f.seed, closedEntity(k)), 1<<16)
	}
	warm := take(newZipfStream(g.f.seed, "lookup-warmup"), warmupRequests)
	for i, idx := range warm {
		g.lookup(conns[i%len(conns)], idx, "w"+strconv.Itoa(i))
	}
	g.attempt(len(warm))

	started()
	start := time.Now().Add(time.Millisecond)
	samples := g.openLoop(conns, openIdx, lookupRate, "o", start)
	lat, _ := latencies(samples)
	g.genReport(samples, lookupRate, start)

	// Closed loop: each connection sends its next lookup as soon as the
	// previous one is answered.
	dur := time.Duration(g.f.seconds / 2 * float64(time.Second))
	var done atomic.Int64
	var wg sync.WaitGroup
	cstart := time.Now()
	deadline := cstart.Add(dur)
	for k, c := range conns {
		wg.Add(1)
		go func(k int, c *http.Client) {
			defer wg.Done()
			prefix := "c" + strconv.Itoa(k) + "-"
			for i := 0; time.Now().Before(deadline); i++ {
				g.lookup(c, closed[k][i%len(closed[k])], prefix+strconv.Itoa(i))
				done.Add(1)
			}
		}(k, c)
	}
	wg.Wait()
	rps := float64(done.Load()) / time.Since(cstart).Seconds()
	g.attempt(int(done.Load()))
	// Every lookup of both phases falls in the host's measured window.
	g.rep.Ops = len(samples) + int(done.Load())
	g.rep.E2E = map[string]float64{"p50_ms": median(lat), "tail_ms": quantile(lat, 0.9)}
	g.rep.Named = map[string]float64{
		"lookup_p50_ms": median(lat),
		"lookup_p99_ms": quantile(lat, 0.99),
		"lookup_rps":    rps,
	}
	return nil
}

func (g *gen) runBatch() error {
	dur := time.Duration(g.f.seconds * float64(time.Second))
	type clientStats struct {
		lat   []float64
		hosts int
	}
	stats := make([]clientStats, genConns)
	var wg sync.WaitGroup
	started()
	start := time.Now()
	deadline := start.Add(dur)
	for k := 0; k < genConns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := newConn()
			stream := newSweepStream(g.f.seed, batchEntity(k))
			idx := make([]int, batchHosts)
			var body []byte
			var st clientStats
			for i := 0; time.Now().Before(deadline); i++ {
				body = body[:0]
				for j := range idx {
					idx[j] = stream.next()
					body = append(body, g.hosts[idx[j]]...)
					body = append(body, '\n')
				}
				t0 := time.Now()
				if n := g.batch(c, idx, body, "b"+strconv.Itoa(k)+"-"+strconv.Itoa(i)); n > 0 {
					st.lat = append(st.lat, ms(time.Since(t0)))
					st.hosts += n
				}
				g.attempt(1)
			}
			stats[k] = st
		}(k)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var lat []float64
	var hosts int
	for _, s := range stats {
		lat = append(lat, s.lat...)
		hosts += s.hosts
	}
	perS := float64(hosts) / elapsed.Seconds()
	g.rep.Ops = len(lat)
	g.rep.E2E = map[string]float64{"p50_ms": median(lat), "tail_ms": quantile(lat, 0.9)}
	g.rep.Named = map[string]float64{
		"batch_hosts_per_s": perS,
		"batch_p50_ms":      median(lat),
		"batch_p99_ms":      quantile(lat, 0.99),
	}
	g.rep.Gen = map[string]any{"conns": genConns, "closed_loop": true, "gomaxprocs": runtime.GOMAXPROCS(0)}
	return nil
}

// batch posts one body of hostnames and checks every answer; it
// returns the number of hosts answered, 0 on failure.
func (g *gen) batch(c *http.Client, idx []int, body []byte, rid string) int {
	req, err := http.NewRequest(http.MethodPost, g.base+"/extract?rid="+rid, bytes.NewReader(body))
	if err != nil {
		g.fail(false, err)
		return 0
	}
	fp, resp, err := g.do(c, req, "client.batch", rid)
	if err != nil {
		g.fail(false, err)
		return 0
	}
	o := g.oracles[fp]
	if o == nil {
		g.fail(true, fmt.Errorf("batch %s: served by unknown corpus %q", rid, fp))
		return 0
	}
	var got []extractResp
	if err := json.Unmarshal(resp, &got); err != nil {
		g.fail(true, fmt.Errorf("batch %s: %w", rid, err))
		return 0
	}
	if len(got) != len(idx) {
		g.fail(true, fmt.Errorf("batch %s: %d answers for %d hosts", rid, len(got), len(idx)))
		return 0
	}
	for j, i := range idx {
		if want := o.want[i]; got[j].Hostname != g.hosts[i] || got[j].Found != want.found || got[j].ASN != want.asn {
			g.fail(true, fmt.Errorf("batch %s: host %s: got found=%v asn=%d, oracle says found=%v asn=%d",
				rid, g.hosts[i], got[j].Found, got[j].ASN, want.found, want.asn))
			return 0
		}
	}
	return len(idx)
}

// epoch is one timed rollout, as the operator saw it.
type epoch struct {
	posted, returned time.Time
	fp               string // the target's fingerprint
}

func (g *gen) runRollout() error {
	// Epoch i rolls out corpora[i%2]: B first, since A is live.
	corpora := make([][]byte, 2)
	fps := []string{g.fpB, g.fpA}
	for i, p := range []string{g.f.ready.CorpusB, g.f.ready.CorpusA} {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		corpora[i] = data
	}
	// Probe hosts answer differently under the two corpora, so the
	// probe after each epoch shows which one is live.
	var probeHosts []int
	a, b := g.oracles[g.fpA], g.oracles[g.fpB]
	for i := range g.hosts {
		if a.want[i] != b.want[i] {
			probeHosts = append(probeHosts, i)
		}
	}
	if len(probeHosts) == 0 {
		return fmt.Errorf("perfbench: rollout corpora answer every host alike")
	}
	probeRNG := entityRNG(g.f.seed, "rollout-probe")

	dur := time.Duration(g.f.seconds * float64(time.Second))
	bgConn, epochConn := newConn(), newConn()
	bgIdx := take(newZipfStream(g.f.seed, bgEntity), int(backgroundRate*g.f.seconds))
	for i := 0; i < warmupRequests/4; i++ {
		g.lookup(bgConn, bgIdx[i], "w"+strconv.Itoa(i))
	}
	g.attempt(warmupRequests / 4)

	started()
	start := time.Now().Add(time.Millisecond)
	var bg []openSample
	bgDone := make(chan struct{})
	go func() {
		defer close(bgDone)
		bg = g.openLoop([]*http.Client{bgConn}, bgIdx, backgroundRate, "o", start)
	}()

	var epochs []epoch
	var lat []float64
	deadline := start.Add(dur)
	for i := 0; time.Now().Before(deadline); i++ {
		target := i % 2
		rid := "e" + strconv.Itoa(i)
		g.attempt(1)
		req, err := http.NewRequest(http.MethodPost, g.base+"/-/rollout?rid="+rid, bytes.NewReader(corpora[target]))
		if err != nil {
			return err
		}
		t0 := time.Now()
		_, body, err := g.do(epochConn, req, "client.rollout", rid)
		t1 := time.Now()
		if err != nil {
			// The cluster is now in an unknown state; later checks
			// would only repeat this failure.
			g.fail(false, err)
			break
		}
		var res cluster.RolloutResult
		if err := json.Unmarshal(body, &res); err != nil {
			g.fail(true, fmt.Errorf("epoch %d: %w", i, err))
			break
		}
		if res.Fingerprint != fps[target] || len(res.Nodes) != numNodes {
			g.fail(true, fmt.Errorf("epoch %d: committed %s on %d nodes, want %s on %d", i, res.Fingerprint, len(res.Nodes), fps[target], numNodes))
			break
		}
		epochs = append(epochs, epoch{posted: t0, returned: t1, fp: fps[target]})
		lat = append(lat, ms(t1.Sub(t0)))
		g.attempt(1)
		if fp, ok := g.lookup(epochConn, probeHosts[probeRNG.IntN(len(probeHosts))], "p"+strconv.Itoa(i)); ok && fp != fps[target] {
			g.fail(true, fmt.Errorf("lookup after epoch %d returned was served by %s, want %s", i, fp, fps[target]))
		}
	}
	<-bgDone
	g.checkSequence(bg, epochs, g.fpA)

	bgLat, _ := latencies(bg)
	g.genReport(bg, backgroundRate, start)
	g.rep.Layer["bg.lookup_p50_ms"] = median(bgLat)
	g.rep.Layer["bg.lookup_p99_ms"] = quantile(bgLat, 0.99)
	g.rep.Ops = len(lat)
	g.rep.E2E = map[string]float64{"p50_ms": median(lat), "tail_ms": quantile(lat, 0.9)}
	g.rep.Named = map[string]float64{
		"epoch_p50_ms":  median(lat),
		"epoch_p90_ms":  quantile(lat, 0.9),
		"lookup_p50_ms": median(bgLat),
		"lookup_p99_ms": quantile(bgLat, 0.99),
	}
	g.rep.Notes = append(g.rep.Notes, fmt.Sprintf("rollout: %d epochs", len(epochs)))
	return nil
}

// checkSequence checks that a background lookup that started after an
// epoch returned, and ended before the next epoch was posted, was
// served by that epoch's corpus. Before the first epoch the seed
// corpus is live.
func (g *gen) checkSequence(bg []openSample, epochs []epoch, seedFP string) {
	for _, s := range bg {
		if !s.ok {
			continue // already failed
		}
		want, ok := seedFP, len(epochs) == 0 || s.done.Before(epochs[0].posted)
		for k, e := range epochs {
			if s.sent.After(e.returned) && (k+1 == len(epochs) || s.done.Before(epochs[k+1].posted)) {
				want, ok = e.fp, true
			}
		}
		if ok && s.fp != want {
			g.fail(true, fmt.Errorf("lookup sent at %s between epochs was served by %s, want %s", s.sent.Format(time.StampMicro), s.fp, want))
		}
	}
}
