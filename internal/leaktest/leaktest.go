// Package leaktest is the shared goroutine-leak check used by the chaos
// suites (internal/core, internal/extract, internal/serve). Each suite
// snapshots the goroutine count before spinning up a pipeline and, after
// tearing it down, polls until the count returns to the baseline — any
// worker, chunker, or reorderer that outlived its cancellation shows up
// as a timeout with a full stack dump for the post-mortem.
//
// The check is count-based rather than stack-diff-based: it tolerates
// runtime-internal goroutines that were already running at snapshot time
// but catches everything the code under test spawned and failed to reap.
package leaktest

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// timeout bounds how long Wait polls before declaring a leak. Drains in
// the pipelines are bounded by contexts, so a healthy teardown finishes
// in milliseconds; ten seconds absorbs CI scheduling noise.
const timeout = 10 * time.Second

// Check snapshots the current goroutine count and returns a function
// that fails t if the count has not returned to that baseline within the
// package timeout. Use it around the code under test:
//
//	defer leaktest.Check(t)()
//	... spawn and tear down the pipeline ...
func Check(t testing.TB) func() {
	t.Helper()
	base := runtime.NumGoroutine()
	return func() { Wait(t, base) }
}

// Wait polls until the process goroutine count drops back to base,
// dumping all goroutine stacks on timeout — the leak report.
func Wait(t testing.TB, base int) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines did not drain: %d > baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Spawned returns how many live goroutines were started by creator, a
// function name as stack traces print it after "created by", e.g.
// "hoiho/internal/cluster.(*Router).Start". A goroutine that has been
// created but not yet scheduled counts too. Unlike Wait it does not
// poll: a test calls it the instant a shutdown call returns, to check
// that the call waited for every goroutine it started.
func Spawned(creator string) int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "created by "+creator); ok && (rest == "" || rest[0] == ' ') {
			count++
		}
	}
	return count
}
