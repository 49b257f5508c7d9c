package core_test

import (
	"context"
	"testing"

	"hoiho/internal/core"
	"hoiho/internal/experiments"
)

// learnAllocCeiling bounds the allocations of one full learning run on
// the 200-item large-suffix workload: 946 (the same under -race), held
// down by the struct-of-arrays item and match-matrix arenas, building
// only the phase-1 candidates not yet seen, matching on the compiled
// programs, which allocate nothing per item, and compiling no regex
// text: the syntax gate reads the tokens, and a non-det program
// compiles its stdlib fallback only when a match reaches it. Parsing
// each det candidate's text and compiling each non-det one's cost
// 1,894; a stdlib compile for every candidate cost 3,168; matching
// through the stdlib regexp and building every candidate before
// deduping cost 14,256 (20,845 under -race).
const learnAllocCeiling = 1_000

// TestBoundLearnAllocs: learning the large-suffix workload stays under
// learnAllocCeiling allocations. Alloc counts do not depend on the
// machine, so CI runs this beside the extraction bounds
// (`go test -count 1 -run '^TestBound'`).
func TestBoundLearnAllocs(t *testing.T) {
	items := experiments.LargeSuffixItems(200)
	allocs := testing.AllocsPerRun(3, func() {
		set, err := core.NewSet("bigcarrier.net", items, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if nc, err := set.Learn(context.Background()); err != nil || nc == nil {
			t.Fatalf("Learn = %v, %v", nc, err)
		}
	})
	t.Logf("learning 200 items: %v allocs", allocs)
	if allocs > learnAllocCeiling {
		t.Errorf("learning 200 items = %v allocs/op, want <= %d", allocs, learnAllocCeiling)
	}
}

// evalAllocCeiling bounds one naive Evaluate of the learned regexes over
// the 200-item large-suffix workload. Each regex compiles once behind
// its rex cache, so the cost is the per-call unique-extraction maps and
// the extracted strings: 198 allocs (404 under -race). A compile per
// item costs tens of thousands.
const evalAllocCeiling = 1_000

// TestBoundEvaluateAllocs: re-evaluating an already-compiled regex set
// stays under evalAllocCeiling allocations, so Set.Evaluate never
// recompiles per item.
func TestBoundEvaluateAllocs(t *testing.T) {
	items := experiments.LargeSuffixItems(200)
	set, err := core.NewSet("bigcarrier.net", items, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nc, err := set.Learn(context.Background())
	if err != nil || nc == nil {
		t.Fatalf("Learn = %v, %v", nc, err)
	}
	set.Evaluate(nc.Regexes...) // warm the compile-once caches
	allocs := testing.AllocsPerRun(5, func() {
		set.Evaluate(nc.Regexes...)
	})
	if allocs > evalAllocCeiling {
		t.Errorf("evaluating %d regexes over 200 items = %v allocs/op, want <= %d", len(nc.Regexes), allocs, evalAllocCeiling)
	}
}

// TestCandidateSpansLargeSuffix runs core.CheckCandidateSpans over the
// large-suffix workload TestBoundLearnAllocs learns.
func TestCandidateSpansLargeSuffix(t *testing.T) {
	set, err := core.NewSet("bigcarrier.net", experiments.LargeSuffixItems(200), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cands, leftOpen, dotStart := core.CheckCandidateSpans(t, set)
	if leftOpen == 0 || dotStart == 0 {
		t.Fatalf("%d candidates: %d left-open, %d starting with .+; want both kinds covered", cands, leftOpen, dotStart)
	}
	t.Logf("%d candidates: %d left-open, %d starting with .+", cands, leftOpen, dotStart)
}
