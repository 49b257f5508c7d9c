package match

import (
	"regexp/syntax"
	"strings"
	"sync"
	"testing"

	"hoiho/internal/rex"
)

// TestBoundSyntaxGateAllocs: the gate decides on the tokens without
// rendering or parsing, so it allocates nothing, valid or not.
func TestBoundSyntaxGateAllocs(t *testing.T) {
	regexes := append(tableRegexes(t),
		rex.MustNew(rex.Excl("\xc3-\xa9"), rex.Capture(), rex.Lit(".net")),
		rex.MustNew(rex.Excl("\xc3.\xa9"), rex.Capture(), rex.Lit(".net")),
		rex.MustNew(rex.Alt(true, "é", "b\xff"), rex.Capture(), rex.Lit(".net")),
		rex.MustNew(rex.Lit("a\xff"), rex.Capture(), rex.Excl("[:digit:"), rex.Lit(".net")),
		budgetRegex())
	allocs := testing.AllocsPerRun(100, func() {
		for _, r := range regexes {
			syntaxOK(r)
		}
	})
	if allocs != 0 {
		t.Fatalf("syntaxOK allocates %.1f per pass over %d regexes, want 0", allocs, len(regexes))
	}
}

// TestSyntaxGateLongRegex: a regex whose text could pass the gate's
// length bound is decided by syntax.Parse itself, and agrees with it.
func TestSyntaxGateLongRegex(t *testing.T) {
	for _, r := range []*rex.Regex{
		rex.MustNew(rex.Lit(strings.Repeat("a.", gateParseBytes/4)), rex.Capture()),
		rex.MustNew(rex.Lit(strings.Repeat("é", gateParseBytes/4)), rex.Capture(), rex.Excl("-.")),
		rex.MustNew(rex.Lit(strings.Repeat("a", gateParseBytes)+"\xff"), rex.Capture()),
	} {
		_, err := syntax.Parse(r.String(), syntax.Perl)
		if got := syntaxOK(r); got != (err == nil) {
			t.Fatalf("%d-byte regex: syntaxOK = %v, syntax.Parse error %v", len(r.String()), got, err)
		}
	}
}

func TestValidWithout(t *testing.T) {
	for _, tc := range []struct {
		s    string
		want bool
	}{
		{"", true}, {"-", true}, {".-_", true}, {"é", true}, {"\xc3-\xa9", true},
		{"\xc3--\xa9-", true}, {"\xe2-\x82-\xac", true}, {"\xc3.\xa9", false},
		{"\xff", false}, {"\xc3", false}, {"-\xc3", false}, {"\xed\xa0\x80", false},
		{"a-\xf0\x9f-\x98\x80", true}, {"\xf0\x9f\x98", false},
	} {
		if got := validWithout(tc.s, '-'); got != tc.want {
			t.Errorf("validWithout(%q) = %v, want %v", tc.s, got, tc.want)
		}
	}
}

// TestLazyStdlibCompileRace: goroutines sharing one engine fall back to
// the stdlib at the same time. Each answer must equal NewRegexpSet's, and
// each program must compile its stdlib regexp exactly once. Run it
// under -race: the compile must not race the matches that wait on it.
// The race detector sees an unsynchronized compile in only some
// schedules, so the test repeats on fresh engines.
func TestLazyStdlibCompileRace(t *testing.T) {
	set := []*rex.Regex{budgetRegex(), rex.MustNew(rex.Lit("as"), rex.Capture(), rex.Lit(".net"))}
	hosts := []string{budgetHost, "1abcdefghijkl!", "123" + strings.Repeat("ab", 20) + "x!", "as9.net"}
	ora := NewRegexpSet(set)
	want := make([]Hit, len(hosts))
	wantOK := make([]bool, len(hosts))
	for i, h := range hosts {
		want[i], wantOK[i] = ora.MatchString(h)
	}
	const repeats, workers, rounds = 10, 8, 2
	for r := 0; r < repeats; r++ {
		engines := []*Engine{Compile(set)}
		var wg sync.WaitGroup
		errs := make(chan string, len(engines)*workers)
		start := make(chan struct{}) // released at once, so the fallbacks overlap
		for _, e := range engines {
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for n := 0; n < rounds; n++ {
						for i, h := range hosts {
							if got, ok := e.MatchString(h); ok != wantOK[i] || got != want[i] {
								errs <- h
								return
							}
						}
					}
				}()
			}
		}
		close(start)
		wg.Wait()
		close(errs)
		for h := range errs {
			t.Fatalf("host %q: answer differs from NewRegexpSet's", h)
		}
		for _, e := range engines {
			if got := e.programs[0].std.compiles; got != 1 {
				t.Fatalf("budget program compiled its stdlib regexp %d times, want 1", got)
			}
		}
	}
}
