package match

import (
	"testing"

	"hoiho/internal/rex"
)

// FuzzCompiledMatchParity is the compiled-vs-stdlib oracle fuzz: spec
// bytes deterministically assemble a rex AST (specAST), host is an
// arbitrary byte string, and the compiled engine must agree with the
// stdlib regexp path on match/no-match, winning index, capture span,
// the extracted digits rex.Extract reports for the same regex, and
// every token's span (checkSpans).
func FuzzCompiledMatchParity(f *testing.F) {
	f.Add([]byte{0, 3, 2, 1, 4, 0}, "as64512.example.net")
	f.Add([]byte{1, 0, 2, 9, 0, 200, 4, 4}, "xas15576.nts.ch")
	f.Add([]byte{5, 8, 2, 1, 0, 0}, "p9.net")
	f.Add([]byte{4, 0, 0, 7, 2, 3, 6, 1}, "AS64512.EXAMPLE.NET")
	f.Add([]byte{2, 2, 2, 2, 2, 2, 2, 2, 2, 2}, "a-a-a-a-a-a-a-a")
	f.Add([]byte{3, 1, 0, 4, 1, 0}, "\xff\xfe9as.net")
	f.Add([]byte{6, 0, 0, 1}, "as12é.net")
	f.Fuzz(func(t *testing.T, spec []byte, host string) {
		if len(spec) > 64 || len(host) > 256 {
			return
		}
		r := specAST(spec)
		if r == nil {
			return
		}
		eng := Compile([]*rex.Regex{r})
		ora := NewRegexpSet([]*rex.Regex{r})
		if eng.Len() != ora.Len() {
			t.Fatalf("regex %q: engine kept %d programs, oracle %d", r, eng.Len(), ora.Len())
		}
		gh, gok := eng.MatchString(host)
		wh, wok := ora.MatchString(host)
		if gok != wok || gh != wh {
			t.Fatalf("parity broken: regex %q host %q:\n  compiled %+v ok=%v\n  stdlib   %+v ok=%v",
				r, host, gh, gok, wh, wok)
		}
		if eng.Len() == 1 {
			checkSpans(t, eng, r, host)
		}
		if !gok {
			return
		}
		digits, s, e, ok := r.Extract(host)
		if !ok || s != gh.Start || e != gh.End || digits != host[s:e] {
			t.Fatalf("capture disagrees with rex.Extract: regex %q host %q: hit %+v, Extract (%q,%d,%d,%v)",
				r, host, gh, digits, s, e, ok)
		}
	})
}
