package main

// Per-layer attribution of a traced run: the host's router and node
// spans are joined with the generator's client spans by request ID,
// and rollout phase spans are joined to their epoch by time
// containment.

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
)

// layerMetrics are the per-layer metrics of a traced run, with their
// units; BENCHMARK.json declares the same list, and README.md says
// which end-to-end metric each should move on which workload. A metric
// a workload does not exercise is reported as 0 and named in a note.
var layerMetrics = []struct{ name, unit string }{
	{"gen.late_p50_ms", "ms"},
	{"gen.late_p99_ms", "ms"},
	{"gen.achieved_rps", "1/s"},
	{"bg.lookup_p50_ms", "ms"},
	{"bg.lookup_p99_ms", "ms"},
	{"net.client_hop_us", "us"},
	{"net.conns_per_1k", "count"},
	{"cluster.forward_us", "us"},
	{"cluster.attempts_per_req", "ratio"},
	{"cluster.hedges", "count"},
	{"cluster.retries", "count"},
	{"cluster.shed", "count"},
	{"cluster.coord_ms", "ms"},
	{"cluster.delta_share", "ratio"},
	{"cluster.bytes_per_epoch", "bytes"},
	{"serve.handler_p50_us", "us"},
	{"serve.handler_p99_us", "us"},
	{"serve.handler_epoch_p50_us", "us"},
	{"serve.handler_epoch_p99_us", "us"},
	{"serve.inproc_us", "us"},
	{"serve.allocs_per_req", "count"},
	{"serve.batch_inproc_us", "us"},
	{"serve.batch_allocs", "count"},
	{"serve.resp_bytes_per_host", "bytes"},
	{"serve.prepare_ms", "ms"},
	{"serve.validate_ms", "ms"},
	{"serve.commit_ms", "ms"},
	{"serve.shed", "count"},
	{"serve.deadline", "count"},
	{"extract.ns_per_host", "ns"},
	{"extract.batch_us", "us"},
	{"extract.hit_ratio", "ratio"},
	{"extract.load_ms", "ms"},
	{"extract.apply_delta_ms", "ms"},
	{"extract.diff_ms", "ms"},
	{"extract.new_ms", "ms"},
	{"extract.save_ms", "ms"},
	{"corpusbin.decode_ms", "ms"},
	{"psl.ns_per_host", "ns"},
	{"core.group_ms", "ms"},
	{"core.suffix_ms_sum", "ms"},
	{"core.suffix_ms_max", "ms"},
	{"core.straggler_share", "ratio"},
	{"core.parallel_eff", "ratio"},
	{"core.phase1_ms", "ms"},
	{"core.merge_ms", "ms"},
	{"core.classes_ms", "ms"},
	{"core.sets_ms", "ms"},
	{"core.allocs_per_item", "count"},
	{"runtime.cpu_util", "ratio"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.gc_cycles_per_1k_ops", "count"},
	{"runtime.heap_live_mb", "MB"},
	{"trace.p50_ms", "ms"},
	{"trace.record_ns", "ns"},
	{"trace.overhead_us_per_op", "us"},
}

// analyze fills r.layer from the reports and the span files in dir.
func (r *result) analyze(dir string) error {
	r.layer = map[string]float64{}
	for _, rep := range []report{r.host, r.gen} {
		for k, v := range rep.Layer {
			r.layer[k] = v
		}
	}
	if r.f.workload == "learn" {
		r.layer["trace.p50_ms"] = r.host.E2E["p50_ms"]
	} else {
		r.layer["trace.p50_ms"] = r.gen.E2E["p50_ms"]
		host, err := readSpans(filepath.Join(dir, "host-spans.json"))
		if err != nil {
			return err
		}
		client, err := readSpans(filepath.Join(dir, "gen-spans.json"))
		if err != nil {
			return err
		}
		r.spanLayers(host, client)
	}
	var missing []string
	for _, m := range layerMetrics {
		if _, ok := r.layer[m.name]; !ok {
			missing = append(missing, m.name)
		}
	}
	if len(missing) > 0 {
		r.notes = append(r.notes, fmt.Sprintf("%s does not exercise, so reports 0 for: %s", r.f.workload, strings.Join(missing, " ")))
	}
	return nil
}

func (r *result) spanLayers(host, client []span) {
	kind := "extract"
	if r.f.workload == "batch" {
		kind = "batch"
	}
	routerByRID := map[string]span{}
	nodeByRID := map[string]span{}
	var epochs []span
	var phases []span
	for _, s := range host {
		switch {
		case s.Name == "router."+kind:
			routerByRID[s.RID] = s
		case s.Name == "node."+kind:
			// A hedged request reaches two nodes; the answer came from
			// the one that finished first.
			if prev, ok := nodeByRID[s.RID]; !ok || s.End < prev.End {
				nodeByRID[s.RID] = s
			}
		case s.Name == "router.rollout" && s.RID != "":
			// Spans without a request ID are the set-up seed epoch.
			epochs = append(epochs, s)
		case strings.HasPrefix(s.Name, "node.") && s.Name != "node.other":
			phases = append(phases, s)
		}
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i].Start < epochs[j].Start })

	var hop, fwd []float64
	for _, c := range client {
		if c.Name != "client."+kind {
			continue
		}
		rt, ok := routerByRID[c.RID]
		if !ok {
			continue
		}
		hop = append(hop, us(c.dur()-rt.dur()))
		if n, ok := nodeByRID[c.RID]; ok {
			fwd = append(fwd, us(rt.dur()-n.dur()))
		}
	}
	r.layer["net.client_hop_us"] = median(hop)
	r.layer["cluster.forward_us"] = median(fwd)

	inEpoch := func(s span) bool {
		i := sort.Search(len(epochs), func(i int) bool { return epochs[i].End >= s.Start })
		return i < len(epochs) && epochs[i].Start <= s.End
	}
	var outside, inside []float64
	for _, n := range nodeByRID {
		if inEpoch(n) {
			inside = append(inside, us(n.dur()))
		} else {
			outside = append(outside, us(n.dur()))
		}
	}
	r.layer["trace.overhead_us_per_op"] = r.host.Layer["trace.record_ns"] / 1000 * float64(len(host)) / float64(max(r.gen.Attempted, 1))
	r.layer["serve.handler_p50_us"] = median(outside)
	r.layer["serve.handler_p99_us"] = quantile(outside, 0.99)
	if len(epochs) == 0 {
		return
	}
	r.layer["serve.handler_epoch_p50_us"] = median(inside)
	r.layer["serve.handler_epoch_p99_us"] = quantile(inside, 0.99)

	// Each rollout phase waits for its slowest node.
	slowest := map[string][]float64{}
	var coord []float64
	var prepares, deltas, bytes int
	for _, e := range epochs {
		worst := map[string]float64{}
		for _, p := range phases {
			if p.Start >= e.Start && p.End <= e.End {
				phase := strings.TrimPrefix(p.Name, "node.")
				worst[phase] = max(worst[phase], ms(p.dur()))
				if phase == "prepare" {
					prepares++
					bytes += p.Bytes
					if p.Delta {
						deltas++
					}
				}
			}
		}
		c := ms(e.dur())
		for phase, d := range worst {
			slowest[phase] = append(slowest[phase], d)
			c -= d
		}
		coord = append(coord, c)
	}
	r.layer["cluster.coord_ms"] = median(coord)
	r.layer["serve.prepare_ms"] = median(slowest["prepare"])
	r.layer["serve.validate_ms"] = median(slowest["validate"])
	r.layer["serve.commit_ms"] = median(slowest["commit"])
	if prepares > 0 {
		r.layer["cluster.delta_share"] = float64(deltas) / float64(prepares)
	}
	r.layer["cluster.bytes_per_epoch"] = float64(bytes) / float64(len(epochs))
}
