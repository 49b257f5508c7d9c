package core

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// checkCandidateSpans learns set, then checks every candidate the match
// matrix scored against every training host: the token spans the §3.4
// class phase reads from the candidate's compiled program must equal
// rex.Regex.AppendTokenSpans, the stdlib oracle, and the program must
// answer for every host the candidate matches, with no fallback. It
// returns the number of candidates, of left-open ones, and of ones
// starting with ".+" — a greedy run that can swallow the delimiter after
// it, so its program is not det and runs the backtracking walk.
func checkCandidateSpans(t *testing.T, set *Set) (cands, leftOpen, dotStart int) {
	t.Helper()
	if _, err := set.Learn(context.Background()); err != nil {
		t.Fatal(err)
	}
	for r, c := range set.mx.cols {
		if c == nil || c.bad {
			continue
		}
		cands++
		if r.LeftOpen() {
			leftOpen++
		}
		if strings.HasPrefix(r.String(), "^.+") {
			dotStart++
		}
		for i, host := range set.ar.full {
			want, wok := r.AppendTokenSpans(nil, host)
			if wok != c.matched.get(i) {
				t.Fatalf("%s on %q: oracle match %v, column %v", r, host, wok, c.matched.get(i))
			}
			got, ok := c.eng.AppendTokenSpans(nil, 0, host)
			if ok != wok || !slices.Equal(got, want) {
				t.Fatalf("%s on %q: compiled spans %v (ok=%v), oracle %v (ok=%v)", r, host, got, ok, want, wok)
			}
		}
	}
	return cands, leftOpen, dotStart
}

// TestCandidateSpansMatchOracle runs checkCandidateSpans over the
// paper's worked examples and randomized sets mixing typos, embedded IP
// addresses and noise.
func TestCandidateSpansMatchOracle(t *testing.T) {
	sets := map[string][]Item{
		"equinix.com": figure4Items(),
		"nts.ch":      figure2Items(),
	}
	rng := rand.New(rand.NewSource(7))
	var cands, leftOpen, dotStart int
	for suffix, items := range sets {
		set, err := NewSet(suffix, items, Options{})
		if err != nil {
			t.Fatal(err)
		}
		c, l, d := checkCandidateSpans(t, set)
		cands, leftOpen, dotStart = cands+c, leftOpen+l, dotStart+d
	}
	for trial := 0; trial < 4; trial++ {
		set, err := NewSet("rand.net", randomItems(rng, 60), Options{})
		if err != nil {
			t.Fatal(err)
		}
		c, l, d := checkCandidateSpans(t, set)
		cands, leftOpen, dotStart = cands+c, leftOpen+l, dotStart+d
	}
	if leftOpen == 0 || dotStart == 0 {
		t.Fatalf("%d candidates: %d left-open, %d starting with .+; want both kinds covered", cands, leftOpen, dotStart)
	}
}
