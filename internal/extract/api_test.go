package extract

import (
	"context"
	"math/rand"
	"testing"

	"hoiho/internal/match"
)

// regexpOracle is Extract with the stdlib matcher: the same suffix
// resolution and ASN parse, with the governing convention's regexes run
// through match.RegexpSet instead of the compiled engine.
type regexpOracle struct {
	c    *Corpus
	sets map[string]*match.RegexpSet
}

func newRegexpOracle(c *Corpus) *regexpOracle {
	return &regexpOracle{c: c, sets: make(map[string]*match.RegexpSet)}
}

func (o *regexpOracle) Extract(host string) (Result, bool) {
	e := o.c.lookup(host)
	if e == nil {
		return Result{}, false
	}
	rs := o.sets[e.nc.Suffix]
	if rs == nil {
		rs = match.NewRegexpSet(e.nc.Regexes)
		o.sets[e.nc.Suffix] = rs
	}
	hit, ok := rs.MatchString(host)
	if !ok {
		return Result{}, false
	}
	digits := host[hit.Start:hit.End]
	a, ok := parseASN(digits)
	if !ok {
		return Result{}, false
	}
	return Result{Hostname: host, Suffix: e.nc.Suffix, Digits: digits, ASN: a, Class: e.nc.Class, OK: true}, true
}

// TestMatcherRegexpParity: the compiled engine must produce results
// byte-identical to the stdlib regexp oracle.
func TestMatcherRegexpParity(t *testing.T) {
	ncs := syntheticNCs(t, 100)
	compiled := New(ncs)
	oracle := newRegexpOracle(compiled)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 20000; i++ {
		host := randomHost(rng, ncs)
		gm, gok := compiled.Extract(ctx, host)
		wm, wok := oracle.Extract(host)
		if gok != wok || gm != wm {
			t.Fatalf("host %q: compiled (%+v, %v), regexp (%+v, %v)", host, gm, gok, wm, wok)
		}
	}
}

// TestExtractDirtyHosts pins the normalization-sensitive paths: inputs
// that are not clean lowercase ASCII take the historical slow path, and
// the compiled engine agrees with the stdlib oracle on them.
func TestExtractDirtyHosts(t *testing.T) {
	ncs := syntheticNCs(t, 20)
	compiled := New(ncs)
	oracle := newRegexpOracle(compiled)
	ctx := context.Background()
	hosts := []string{
		"AS64512.EXAMPLE0003.NET",     // uppercase
		"as64512.example0003.net.",    // trailing dot
		" as64512.example0003.net",    // leading space
		"as64512.example0003.net ",    // trailing space
		"as64512.éxample0003.net",     // non-ASCII
		"as64512.example0003.net\xff", // invalid UTF-8
		"as64512.example0003.net",     // clean control
	}
	for _, h := range hosts {
		gm, gok := compiled.Extract(ctx, h)
		wm, wok := oracle.Extract(h)
		if gok != wok || gm != wm {
			t.Fatalf("host %q: compiled (%+v, %v), regexp (%+v, %v)", h, gm, gok, wm, wok)
		}
	}
}
