// Package annotfix exercises the annotation grammar edge cases: verbs
// stacked in one comment group, markers inside generated files (gen.go),
// malformed markers, and stale suppressions.
package annotfix

import "fmt"

// stacked: both verbs in the comment group apply to the line the group
// annotates — the first is not shadowed by the second.
func stacked(m map[string]int) {
	for k := range m {
		//hoiho:nondet-ok stacked: debug dump read by humans, not by the pipeline
		//hoiho:errwrap-ok stacked: the error is printed, never returned, so it needs no origin
		fmt.Println(k, fmt.Errorf("bad key %s", k))
	}
}

// trailingWhitespace: a verb followed only by whitespace (here a tab)
// has no reason and is reported, not silently accepted.
func trailingWhitespace(ok bool) {
	if !ok {
		/* want `needs a reason` */ //hoiho:nondet-ok	
		_ = ok
	}
}

// leadingWhitespace: whitespace where the verb should be yields an
// empty verb, reported as unknown rather than reinterpreted.
func leadingWhitespace(ok bool) {
	if ok {
		/* want `unknown annotation verb ""` */ //hoiho: nondet-ok oops
		_ = ok
	}
}

// staleWaiver: a suppression matching no diagnostic is itself a
// finding, so fixed code sheds its waivers.
func staleWaiver() int {
	//hoiho:goro-ok the send below used to block without a ctx arm // want `stale //hoiho:goro-ok suppression: no diagnostic matches it`
	return 0
}
