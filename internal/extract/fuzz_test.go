package extract

import (
	"context"
	"strings"
	"testing"

	"hoiho/internal/core"
	"hoiho/internal/rex"
)

// fuzzCorpus builds a small mixed corpus: a PSL-direct NC, a deep
// suffix, and a multi-regex NC, covering both lookup paths.
func fuzzCorpus(f *testing.F) *Corpus {
	f.Helper()
	mk := func(suffix string, srcs ...string) *core.NC {
		regexes := make([]*rex.Regex, 0, len(srcs))
		for _, s := range srcs {
			r, err := rex.Parse(s)
			if err != nil {
				f.Fatalf("Parse(%q): %v", s, err)
			}
			regexes = append(regexes, r)
		}
		return &core.NC{Suffix: suffix, Regexes: regexes, Class: core.Good}
	}
	return New([]*core.NC{
		mk("example.net", `^as(\d+)\.example\.net$`),
		mk("nts.ch", `as(\d+)\.nts\.ch$`),
		mk("deep.example.org", `^(?:p|s)?(\d+)\.deep\.example\.org$`, `^r-(\d+)\.deep\.example\.org$`),
	})
}

// FuzzExtract throws arbitrary hostnames at the serving path. Extract
// fronts million-hostname OpenINTEL sweeps, so it must never panic,
// and every reported Match must be internally consistent: digits
// non-empty, the parsed ASN matching them, and the hostname echoed.
func FuzzExtract(f *testing.F) {
	c := fuzzCorpus(f)
	for _, seed := range []string{
		"as64512.example.net",
		"as1.example.net",
		"01.r.cba.ch.bl.cust.as15576.nts.ch",
		"s24115.deep.example.org",
		"r-174.deep.example.org",
		"",
		".",
		"..",
		"net",
		"example.net",
		"as4294967295.example.net",
		"as99999999999999999999.example.net",
		"as-1.example.net",
		"AS64512.EXAMPLE.NET",
		strings.Repeat("a.", 200) + "example.net",
		"as\x0064512.example.net",
		"\xff\xfe.example.net",
		"as64512.example.net.",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, host string) {
		m, ok := c.Extract(context.Background(), host)
		if !ok {
			if m != (Result{}) {
				t.Fatalf("miss returned non-zero Result: %+v", m)
			}
			return
		}
		if m.Hostname != host {
			t.Fatalf("Result.Hostname = %q, want %q", m.Hostname, host)
		}
		if m.Digits == "" {
			t.Fatalf("hit with empty digits: %+v", m)
		}
		if m.Suffix == "" || !strings.Contains(host, m.Suffix) {
			t.Fatalf("suffix %q not in hostname %q", m.Suffix, host)
		}
		// The batch path must agree with the single path item-by-item.
		rs, err := c.ExtractBatch(context.Background(), []string{host, host})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range rs {
			if !r.OK || r != m {
				t.Fatalf("ExtractBatch[%d] = %+v, want %+v", i, r, m)
			}
		}
	})
}
