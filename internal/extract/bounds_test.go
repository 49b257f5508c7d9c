package extract_test

// Performance bounds of the extraction engine that hold on any machine:
// allocation counts, the delta's size, and speed ratios of two paths
// measured side by side in one run. Each test fails when its bound is
// broken; none compares a time against a number recorded elsewhere.
// CI runs them without -race (`go test -count 1 -run '^TestBound'`).

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"testing"
	"time"

	"hoiho/internal/core"
	"hoiho/internal/experiments"
	"hoiho/internal/extract"
	"hoiho/internal/rex"
)

// TestBoundExtractAllocs: after Precompile, Corpus.Extract allocates
// nothing on a match, a suffix hit with a regex miss, or an unknown
// suffix, under each of the three suffix lookups a corpus can select:
//   - the direct tail probe, when no PSL rule lies beneath any indexed
//     suffix;
//   - the PSL registered-domain walk, when a rule lies beneath one
//     (s3.amazonaws.com under amazonaws.com);
//   - the label walk, when an indexed suffix is not a registered
//     domain (net).
//
// A host that needs normalizing takes the one budgeted fallback, which
// allocates once.
func TestBoundExtractAllocs(t *testing.T) {
	workload, hosts := experiments.CorpusWorkload(128, 8)
	nc := func(suffix, re string) *core.NC {
		r, err := rex.Parse(re)
		if err != nil {
			t.Fatal(err)
		}
		return &core.NC{Suffix: suffix, Regexes: []*rex.Regex{r}, Class: core.Good}
	}
	for _, tc := range []struct {
		name   string
		ncs    []*core.NC
		hosts  []string
		allocs float64
	}{
		{"direct", workload, hosts[:4], 0},
		{"psl-walk", []*core.NC{nc("amazonaws.com", `^as(\d+)-[^\.]+\.amazonaws\.com$`)},
			[]string{"as64500-pop1.amazonaws.com", "lo0.core1.amazonaws.com", "as64500-pop1.unknown.org"}, 0},
		{"label-walk", []*core.NC{nc("net", `^as(\d+)-[^\.]+\.net$`)},
			[]string{"as64500-pop1.net", "lo0.core1.carrier.net", "as64500-pop1.unknown.org"}, 0},
		{"dirty-fallback", workload, []string{"AS1234-POP1.CARRIER0000.NET"}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := extract.New(tc.ncs)
			c.Precompile()
			ctx := context.Background()
			if _, ok := c.Extract(ctx, tc.hosts[0]); !ok && tc.allocs == 0 {
				t.Fatalf("Extract(%q) missed; the workload must include a hit", tc.hosts[0])
			}
			for _, h := range tc.hosts {
				if allocs := testing.AllocsPerRun(200, func() { c.Extract(ctx, h) }); allocs != tc.allocs {
					t.Errorf("Extract(%q) = %v allocs/op, want %v", h, allocs, tc.allocs)
				}
			}
		})
	}
}

// batchSerialAllocs is what ExtractBatch allocates on its serial path
// (at most one 512-host chunk, or one worker): the result slice.
const batchSerialAllocs = 1

// batchParallelAllocBase is what the parallel path allocates besides
// one goroutine closure per worker: the three escapes the compiler
// reports (the result slice, the claim counter and the WaitGroup) plus
// one more measured at run time.
const batchParallelAllocBase = 4

// TestBoundBatchSerialAllocs: a batch of at most one chunk makes exactly
// batchSerialAllocs allocations, whatever its size.
func TestBoundBatchSerialAllocs(t *testing.T) {
	ncs, hosts := experiments.CorpusWorkload(128, 512)
	c := extract.New(ncs)
	c.Precompile()
	ctx := context.Background()
	for _, n := range []int{1, 100, 512} {
		if allocs := testing.AllocsPerRun(50, func() { c.ExtractBatch(ctx, hosts[:n]) }); allocs != batchSerialAllocs {
			t.Errorf("ExtractBatch of %d hosts = %v allocs/op, want %d", n, allocs, batchSerialAllocs)
		}
	}
}

// TestBoundBatchIntoAllocs: ExtractBatchInto on the serial path
// allocates nothing once the caller's slice is big enough — one chunk
// on any corpus, or many chunks with one worker — and its results equal
// ExtractBatch's even when the reused slice holds another batch's hits.
func TestBoundBatchIntoAllocs(t *testing.T) {
	ncs, hosts := experiments.CorpusWorkload(128, 2000)
	ctx := context.Background()
	for _, tc := range []struct {
		workers int
		sizes   []int
	}{{0, []int{1, 100, 512}}, {1, []int{513, 2000}}} {
		c := extract.New(ncs, extract.WithWorkers(tc.workers))
		c.Precompile()
		dst := make([]extract.Result, 0, len(hosts))
		for _, n := range tc.sizes {
			// Fill dst with the other end of the workload first, so a
			// slot the batch misses must be cleared, not left over.
			dst, _ = c.ExtractBatchInto(ctx, dst, hosts[len(hosts)-n:])
			if allocs := testing.AllocsPerRun(50, func() { dst, _ = c.ExtractBatchInto(ctx, dst, hosts[:n]) }); allocs != 0 {
				t.Errorf("ExtractBatchInto of %d hosts with %d workers = %v allocs/op, want 0", n, tc.workers, allocs)
			}
			want, err := c.ExtractBatch(ctx, hosts[:n])
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(dst, want) {
				t.Fatalf("ExtractBatchInto of %d hosts differs from ExtractBatch", n)
			}
		}
	}
}

// TestBoundBatchParallelAllocs: on the canonical 100k-host workload the
// parallel path allocates at most a constant plus one per worker —
// nothing per chunk, nothing per hostname.
func TestBoundBatchParallelAllocs(t *testing.T) {
	ncs, hosts := experiments.CorpusWorkload(128, 100_000)
	ctx := context.Background()
	for _, workers := range []int{2, 4, 8} {
		c := extract.New(ncs, extract.WithWorkers(workers))
		c.Precompile()
		limit := float64(batchParallelAllocBase + workers)
		if allocs := testing.AllocsPerRun(10, func() { c.ExtractBatch(ctx, hosts) }); allocs > limit {
			t.Errorf("ExtractBatch of %d hosts with %d workers = %v allocs/op, want <= %v",
				len(hosts), workers, allocs, limit)
		}
	}
}

// deltaWorkload is the canonical rollout change: 4 of 128 records
// removed and 4 added. It returns the base, the HBD delta from base to
// the target, and the target's full HBC encoding.
func deltaWorkload(t testing.TB) (base *extract.Corpus, delta, full []byte) {
	t.Helper()
	ncs, _ := experiments.CorpusWorkload(136, 8)
	base = extract.New(ncs[:128])
	base.Precompile()
	target := extract.New(append(slices.Clone(ncs[:124]), ncs[128:132]...))
	var d, f bytes.Buffer
	if err := extract.Diff(base, target, &d); err != nil {
		t.Fatal(err)
	}
	if err := target.SaveBinary(&f); err != nil {
		t.Fatal(err)
	}
	return base, d.Bytes(), f.Bytes()
}

// deltaMaxSizePct caps the canonical 8-of-128 delta as a share of the
// full corpus it reproduces.
const deltaMaxSizePct = 20.0

func TestBoundDeltaSize(t *testing.T) {
	_, delta, full := deltaWorkload(t)
	if pct := 100 * float64(len(delta)) / float64(len(full)); pct > deltaMaxSizePct {
		t.Errorf("delta is %d bytes, %.1f%% of the %d-byte corpus (cap %.0f%%)",
			len(delta), pct, len(full), deltaMaxSizePct)
	}
}

// loadMaxAllocs caps what Load allocates to bring the 128-convention
// corpora below to ready-to-serve: reading and verifying the input,
// decoding the token-form records, indexing them and compiling each
// engine. Load checks each regex with match's token-level syntax gate,
// which allocates nothing, and compiles no stdlib regexp for either
// kind of program. Measured (the same under -race):
//   - det conventions: 1,309. Parsing each regex's text with
//     regexp/syntax, as match.Compile once checked a det program, would
//     add about 2,950. Decoding stored compiled programs instead of
//     compiling (HBC version 1) took 1,824;
//   - non-det conventions (an optional alternation before the capture):
//     1,565, since such a program compiles its stdlib fallback only
//     when a match reaches it. Compiling each at Load made it 15,648.
var loadMaxAllocs = map[string]float64{"det": 1_400, "vm": 1_650}

// vmWorkload is CorpusWorkload's conventions with an optional "(?:p|s)"
// before the capture, which makes each one a non-det VM program.
func vmWorkload(ncs []*core.NC) []*core.NC {
	out := make([]*core.NC, len(ncs))
	for i, nc := range ncs {
		r := rex.MustNew(rex.Alt(true, "p", "s"), rex.Capture(), rex.Lit("-"), rex.Excl("."), rex.Lit("."+nc.Suffix))
		out[i] = &core.NC{Suffix: nc.Suffix, Regexes: []*rex.Regex{r}, Class: nc.Class}
	}
	return out
}

// TestBoundLoadCompilesNoRegex: Load neither compiles nor parses regex
// text, for a corpus of det conventions, whose matchers compile from
// the token form alone, and for one of non-det conventions, whose
// stdlib fallback compiles only on first use (DESIGN.md §8).
func TestBoundLoadCompilesNoRegex(t *testing.T) {
	det, _ := experiments.CorpusWorkload(128, 8)
	for _, tc := range []struct {
		name string
		ncs  []*core.NC
	}{{"det", det}, {"vm", vmWorkload(det)}} {
		var hbc bytes.Buffer
		if err := extract.New(tc.ncs).SaveBinary(&hbc); err != nil {
			t.Fatal(err)
		}
		data := hbc.Bytes()
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := extract.Load(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("Load of %d %s conventions (%d bytes): %v allocs", len(tc.ncs), tc.name, len(data), allocs)
		if allocs > loadMaxAllocs[tc.name] {
			t.Errorf("Load of %s conventions = %v allocs/op, want <= %v: is it compiling or parsing regex text?",
				tc.name, allocs, loadMaxAllocs[tc.name])
		}
	}
}

// loadRefuseMaxAllocs caps what Load allocates to refuse a corpus in
// its JSON form: reading the input (the read buffer's doublings) and
// building the error, no parse. Measured 35 (38 under -race) on the
// ~960 KB input below; parsing it as a corpus cost ~557k.
const loadRefuseMaxAllocs = 64

// TestBoundLoadRefusesJSONAllocs: Load refuses the JSON form of a
// 4096-convention corpus, naming the loadable form, without parsing it.
func TestBoundLoadRefusesJSONAllocs(t *testing.T) {
	ncs, _ := experiments.CorpusWorkload(4096, 0)
	var jsonBuf bytes.Buffer
	if err := extract.New(ncs).Save(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	data := jsonBuf.Bytes()
	var err error
	allocs := testing.AllocsPerRun(5, func() { _, err = extract.Load(bytes.NewReader(data)) })
	if err == nil || !strings.Contains(err.Error(), "hoiho -save") {
		t.Fatalf("Load of a JSON corpus: err %v, want a refusal naming `hoiho -save`", err)
	}
	t.Logf("Load refused a %d-byte JSON corpus in %v allocs", len(data), allocs)
	if allocs > loadRefuseMaxAllocs {
		t.Errorf("Load refused JSON in %v allocs/op, want <= %d", allocs, loadRefuseMaxAllocs)
	}
}

// deltaApplyMinSpeedup is how much faster applying the canonical delta
// must be than a full HBC reload of the same target: the delta reuses
// the base's compiled engines and PSL answers for every copied record.
const deltaApplyMinSpeedup = 1.2

func TestBoundDeltaApplySpeedup(t *testing.T) {
	skipTiming(t)
	base, delta, full := deltaWorkload(t)
	reload := func() {
		if _, err := extract.Load(bytes.NewReader(full)); err != nil {
			t.Fatal(err)
		}
	}
	apply := func() {
		if _, _, err := extract.ApplyDelta(base, delta); err != nil {
			t.Fatal(err)
		}
	}
	reloadOp, applyOp := medianTimes(reload, apply)
	speedup := float64(reloadOp) / float64(applyOp)
	t.Logf("full reload %v, delta apply %v (%.2fx)", reloadOp, applyOp, speedup)
	if speedup < deltaApplyMinSpeedup {
		t.Errorf("delta apply %v vs full reload %v: %.2fx faster, want >= %.1fx", applyOp, reloadOp, speedup, deltaApplyMinSpeedup)
	}
}

// rolloutCorpora is the rollout benchmark's shape: n conventions, and
// a copy in which changed of them, evenly spaced, match nothing.
func rolloutCorpora(n, changed int) (base, target []*core.NC) {
	base, _ = experiments.CorpusWorkload(n, 0)
	target = slices.Clone(base)
	for i := 0; i < changed; i++ {
		j := i * (n / changed)
		nc := *target[j]
		nc.Regexes = []*rex.Regex{rex.MustNew(rex.Lit("xs"), rex.Capture(), rex.Lit("-"), rex.Excl("."), rex.Lit("."+nc.Suffix))}
		target[j] = &nc
	}
	return base, target
}

// chainedDeltas returns a node's corpus as it boots, loaded from the
// HBC of rolloutCorpora(4096, 32)'s base, and the deltas that patch it
// to the target and back.
func chainedDeltas(t testing.TB) (a *extract.Corpus, ab, ba []byte) {
	t.Helper()
	baseNCs, targetNCs := rolloutCorpora(4096, 32)
	var hbc, d1, d2 bytes.Buffer
	if err := extract.New(baseNCs).SaveBinary(&hbc); err != nil {
		t.Fatal(err)
	}
	a, err := extract.Load(&hbc)
	if err != nil {
		t.Fatal(err)
	}
	b := extract.New(targetNCs)
	if err := extract.Diff(a, b, &d1); err != nil {
		t.Fatal(err)
	}
	if err := extract.Diff(b, a, &d2); err != nil {
		t.Fatal(err)
	}
	return a, d1.Bytes(), d2.Bytes()
}

// applyChained is two rollout epochs on a node: ab applied to c, then
// ba applied to the corpus the first apply built.
func applyChained(t testing.TB, c *extract.Corpus, ab, ba []byte) *extract.Corpus {
	t.Helper()
	for _, d := range [][]byte{ab, ba} {
		var err error
		if c, _, err = extract.ApplyDelta(c, d); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// chainedApplyMaxAllocs caps two chained applies of the 32-of-4096
// rollout delta, each to the corpus the previous apply built. Measured
// 9,007 (9,010 under -race), nearly all of it the 4,096 index entries
// each corpus holds. With each record's compiled programs decoded and
// re-encoded (HBC version 1) it was 9,269; before applies adopted the
// verified fingerprint, and records that carried those programs, it
// was 25,715: every base re-serialized all its engines.
const chainedApplyMaxAllocs = 9_500

// TestBoundChainedApplyAllocs: a delta applied to a corpus ApplyDelta
// itself built costs no more than one applied to a freshly loaded
// corpus — nothing verified by the previous apply is rebuilt.
func TestBoundChainedApplyAllocs(t *testing.T) {
	c, ab, ba := chainedDeltas(t)
	allocs := testing.AllocsPerRun(5, func() { c = applyChained(t, c, ab, ba) })
	t.Logf("two chained applies: %v allocs", allocs)
	if allocs > chainedApplyMaxAllocs {
		t.Errorf("two chained applies = %v allocs/op, want <= %d", allocs, chainedApplyMaxAllocs)
	}
}

// BenchmarkApplyDeltaChained times two chained rollout epochs on a
// node: the 32-of-4096 delta applied to the corpus the previous apply
// built, and back.
func BenchmarkApplyDeltaChained(b *testing.B) {
	c, ab, ba := chainedDeltas(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c = applyChained(b, c, ab, ba)
	}
}

// skipTiming skips a speed-ratio test where timings mean nothing: under
// -short, and under the race detector, which slows the two sides by
// different factors.
func skipTiming(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("timing bound skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing bound skipped under the race detector")
	}
}

// medianTimes times a and b in interleaved rounds, so drift in machine
// speed hits both sides alike, and returns each side's median per-op
// time.
func medianTimes(a, b func()) (time.Duration, time.Duration) {
	const rounds, reps = 15, 10
	a()
	b()
	perOp := func(f func()) time.Duration {
		start := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		return time.Since(start) / reps
	}
	as := make([]time.Duration, rounds)
	bs := make([]time.Duration, rounds)
	for i := range as {
		as[i] = perOp(a)
		bs[i] = perOp(b)
	}
	slices.Sort(as)
	slices.Sort(bs)
	return as[rounds/2], bs[rounds/2]
}
