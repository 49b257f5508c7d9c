package core_test

import (
	"context"
	"testing"

	"hoiho/internal/core"
	"hoiho/internal/experiments"
)

// learnAllocCeiling bounds the allocations of one full learning run on
// the 200-item large-suffix workload, held down by the struct-of-arrays
// item and match-matrix arenas.
const learnAllocCeiling = 22_000

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
	if allocs > learnAllocCeiling {
		t.Errorf("learning 200 items = %v allocs/op, want <= %d", allocs, learnAllocCeiling)
	}
}
