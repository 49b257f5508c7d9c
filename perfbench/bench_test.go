package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"hoiho/internal/core"
)

// TestMain lets the test binary stand in for the perfbench binary when
// the orchestrator re-executes itself as a host or a generator.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && (os.Args[1] == "host" || os.Args[1] == "gen") {
		main()
		return
	}
	os.Exit(m.Run())
}

// inputBytes renders every seeded input the benchmark generates, except
// the learn training set's world, which does not depend on the seed.
func inputBytes(t *testing.T, seed uint64) map[string][]byte {
	t.Helper()
	hosts := universe()
	join := func(idx []int) []byte {
		var b bytes.Buffer
		for _, i := range idx {
			b.WriteString(hosts[i])
			b.WriteByte('\n')
		}
		return b.Bytes()
	}
	out := map[string][]byte{
		openEntity:      join(take(newZipfStream(seed, openEntity), 5000)),
		closedEntity(0): join(take(newZipfStream(seed, closedEntity(0)), 5000)),
		closedEntity(1): join(take(newZipfStream(seed, closedEntity(1)), 5000)),
		bgEntity:        join(take(newZipfStream(seed, bgEntity), 5000)),
		batchEntity(0):  join(take(newSweepStream(seed, batchEntity(0)), 3*batchHosts)),
		batchEntity(1):  join(take(newSweepStream(seed, batchEntity(1)), 3*batchHosts)),
	}
	variant, err := encodeHBC(variantNCs(seed, baseNCs()))
	if err != nil {
		t.Fatal(err)
	}
	out["corpus-variant"] = variant

	// A synthetic grouping stands in for the ITDK world: the sample is
	// what the seed decides.
	groups := map[string][]core.Item{}
	var suffixes []string
	for i := 0; i < 600; i++ {
		suf := fmt.Sprintf("s%03d.net", i)
		suffixes = append(suffixes, suf)
		for k := 0; k <= i%7; k++ {
			groups[suf] = append(groups[suf], core.Item{Hostname: fmt.Sprintf("as%d.%s", k, suf), ASN: 1})
		}
	}
	var sample bytes.Buffer
	for _, it := range learnSample(seed, suffixes, groups) {
		sample.WriteString(it.Hostname + "\n")
	}
	out["learn-sample"] = sample.Bytes()
	return out
}

func TestInputsDeterministic(t *testing.T) {
	a, b, c := inputBytes(t, 7), inputBytes(t, 7), inputBytes(t, 8)
	for name, data := range a {
		if !bytes.Equal(data, b[name]) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if bytes.Equal(data, c[name]) {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", name)
		}
		// Size is hostnames per stream, bytes for the corpus.
		size := func(d []byte) int { return bytes.Count(d, []byte("\n")) }
		if name == "corpus-variant" {
			size = func(d []byte) int { return len(d) }
		}
		if size(data) == 0 || size(data) != size(c[name]) {
			t.Errorf("%s: seeds 7 and 8 gave inputs of sizes %d and %d", name, size(data), size(c[name]))
		}
	}
}

func TestUniverseDistinct(t *testing.T) {
	hosts := universe()
	seen := map[string]bool{}
	for _, h := range hosts {
		if seen[h] {
			t.Fatalf("duplicate hostname %s", h)
		}
		seen[h] = true
	}
	if len(hosts) != universeHosts {
		t.Fatalf("%d hostnames, want %d", len(hosts), universeHosts)
	}
}

// resultLine is the JSON object a run prints last.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func parseResult(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var got resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out)
	}
	return got
}

// TestRefusedIsIncorrect checks that a refused lookup fails the run and
// gives no latency sample, so a change that fails fast cannot lower the
// latencies and still pass.
func TestRefusedIsIncorrect(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no healthy owner", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	g := &gen{base: srv.URL, hosts: []string{"as1.example.net"}, oracles: map[string]*oracle{}}
	samples := g.openLoop([]*http.Client{srv.Client()}, []int{0, 0, 0}, 1000, "o", time.Now())
	if lat, late := latencies(samples); len(lat) != 0 || len(late) != 0 {
		t.Errorf("refused lookups gave latencies %v and lateness %v", lat, late)
	}
	res := &result{f: runFlags{workload: "lookup"}, gen: g.rep}
	var out bytes.Buffer
	if err := res.print(&out); err != nil {
		t.Fatal(err)
	}
	if got := parseResult(t, out.String()); got.Correct || got.Attempted != 3 || got.Failed != 3 {
		t.Errorf("correct=%v attempted=%d failed=%d, want false 3 3\n%s", got.Correct, got.Attempted, got.Failed, out.String())
	}
}

// TestSmoke runs every workload at minimal length, untraced and traced,
// and checks the result line: every declared metric with its unit, and
// no failed operation.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the cluster and the learner")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, trace), func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
				defer cancel()
				f := runFlags{workload: w, seed: defaultSeed, seconds: 1, trace: trace}
				res, err := runWorkload(ctx, f, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := res.print(&out); err != nil {
					t.Fatal(err)
				}
				got := parseResult(t, out.String())
				if !got.Correct || got.Failed != 0 || got.Attempted == 0 {
					t.Errorf("correct=%v attempted=%d failed=%d (fail_frac must be 0)\n%s", got.Correct, got.Attempted, got.Failed, out.String())
				}
				want := e2eMetrics
				if trace {
					want = layerMetrics
				}
				if len(got.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(got.Metrics), len(want))
				}
				for _, m := range want {
					g, ok := got.Metrics[m.name]
					if !ok || g.Unit != m.unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.name, g, m.unit)
					}
					if !trace && g.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.name, g.Value)
					}
				}
				if !strings.Contains(out.String(), "machine: ") {
					t.Errorf("no machine stamp in the output")
				}
				if w != "learn" && !strings.Contains(out.String(), "generator: ") {
					t.Errorf("no generator self-report in the output")
				}
			})
		}
	}
}

// TestDeclaredMetrics keeps BENCHMARK.json and the program in step.
func TestDeclaredMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: declared %s %s, reported %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, e2eMetrics)
	check("per_layer", decl.PerLayer, layerMetrics)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program runs %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: declared %s, program has %s", i, w.Name, workloads[i])
		}
	}
}
