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
	"testing"
	"time"

	"hoiho/internal/experiments"
	"hoiho/internal/extract"
)

// TestBoundExtractAllocs: after Precompile, Corpus.Extract allocates
// nothing — on a match, a suffix hit with a regex miss, and an unknown
// suffix.
func TestBoundExtractAllocs(t *testing.T) {
	ncs, hosts := experiments.CorpusWorkload(128, 8)
	c := extract.New(ncs)
	c.Precompile()
	ctx := context.Background()
	for _, h := range hosts[:4] {
		if allocs := testing.AllocsPerRun(200, func() { c.Extract(ctx, h) }); allocs != 0 {
			t.Errorf("Extract(%q) = %v allocs/op, want 0", h, allocs)
		}
	}
}

// batchSerialAllocs is what ExtractBatch allocates on its serial path
// (at most one 512-host chunk): the result slice and the chunk closure.
const batchSerialAllocs = 2

// batchParallelAllocBase is what the parallel path allocates besides
// one goroutine closure per worker: the four escapes the compiler
// reports (the result slice, the chunk closure, the claim counter and
// the WaitGroup) plus one more measured at run time.
const batchParallelAllocBase = 5

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

// coldStartMinSpeedup is how much faster a corpus must load from HBC
// (pre-compiled programs, no JSON or regex parsing) than from JSON.
const coldStartMinSpeedup = 5.0

func TestBoundColdStartSpeedup(t *testing.T) {
	skipTiming(t)
	ncs, _ := experiments.CorpusWorkload(128, 8)
	c := extract.New(ncs)
	var jsonBuf, hbcBuf bytes.Buffer
	if err := c.Save(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	if err := c.SaveBinary(&hbcBuf); err != nil {
		t.Fatal(err)
	}
	load := func(data []byte) func() {
		return func() {
			if _, err := extract.Load(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		}
	}
	jsonOp, hbcOp := medianTimes(load(jsonBuf.Bytes()), load(hbcBuf.Bytes()))
	speedup := float64(jsonOp) / float64(hbcOp)
	t.Logf("cold start: JSON %v, HBC %v (%.1fx)", jsonOp, hbcOp, speedup)
	if speedup < coldStartMinSpeedup {
		t.Errorf("HBC cold start %v vs JSON %v: %.1fx faster, want >= %.0fx", hbcOp, jsonOp, speedup, coldStartMinSpeedup)
	}
}

// deltaApplyMinSpeedup is how much faster applying the canonical delta
// must be than a full HBC reload of the same target: the delta reuses
// the base's compiled engines for every copied record.
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
