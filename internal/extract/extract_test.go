package extract

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hoiho/internal/asn"
	"hoiho/internal/core"
	"hoiho/internal/psl"
	"hoiho/internal/rex"
)

// ncFromJSON builds an NC through the stable JSON form, so its regexes
// arrive uncompiled exactly as a loaded corpus's would.
func ncFromJSON(t testing.TB, suffix, src string, class core.Classification) *core.NC {
	t.Helper()
	ncs, err := core.UnmarshalNCs([]byte(
		`[{"suffix":"` + suffix + `","regexes":["` + src + `"],"class":"` + class.String() + `"}]`))
	if err != nil {
		t.Fatal(err)
	}
	return ncs[0]
}

// syntheticNCs builds n conventions over distinct registered domains,
// cycling through the shapes of table 1 (start/end/bare/simple).
func syntheticNCs(t testing.TB, n int) []*core.NC {
	t.Helper()
	ncs := make([]*core.NC, 0, n)
	for i := 0; i < n; i++ {
		suffix := fmt.Sprintf("example%04d.net", i)
		var src string
		switch i % 4 {
		case 0: // start: as<ASN>-city.suffix
			src = `^as(\\d+)-[^\\.]+\\.` + jsonEscapeDots(suffix) + `$`
		case 1: // end, left-open: ...as<ASN>.suffix
			src = `as(\\d+)\\.` + jsonEscapeDots(suffix) + `$`
		case 2: // bare: <ASN>.label.suffix
			src = `^(\\d+)\\.[a-z]+\\.` + jsonEscapeDots(suffix) + `$`
		default: // simple: as<ASN>.suffix
			src = `^as(\\d+)\\.` + jsonEscapeDots(suffix) + `$`
		}
		class := core.Good
		if i%7 == 3 {
			class = core.Promising
		} else if i%11 == 5 {
			class = core.Poor
		}
		ncs = append(ncs, ncFromJSON(t, suffix, src, class))
	}
	return ncs
}

// jsonEscapeDots renders "\." sequences for embedding in a JSON string.
func jsonEscapeDots(s string) string {
	var out []byte
	for i := 0; i < len(s); i++ {
		if s[i] == '.' {
			out = append(out, '\\', '\\')
		}
		out = append(out, s[i])
	}
	return string(out)
}

// randomHost generates hostnames that sometimes match a convention,
// sometimes miss (wrong shape, unknown suffix, bare TLD, junk).
func randomHost(rng *rand.Rand, ncs []*core.NC) string {
	suffix := fmt.Sprintf("example%04d.net", rng.Intn(len(ncs)+64)) // some unknown
	switch rng.Intn(8) {
	case 0:
		return fmt.Sprintf("as%d-city%d.%s", rng.Intn(70000)+1, rng.Intn(99), suffix)
	case 1:
		return fmt.Sprintf("pe1.core.as%d.%s", rng.Intn(70000)+1, suffix)
	case 2:
		return fmt.Sprintf("%d.pop%c.%s", rng.Intn(70000)+1, 'a'+rune(rng.Intn(26)), suffix)
	case 3:
		return fmt.Sprintf("as%d.%s", rng.Intn(70000)+1, suffix)
	case 4:
		return fmt.Sprintf("lo0.rt%d.%s", rng.Intn(99), suffix)
	case 5:
		return "net" // bare TLD
	case 6:
		return fmt.Sprintf("as0.%s", suffix) // captures the reserved zero ASN
	default:
		return fmt.Sprintf("as%d-x.unrelated%d.org", rng.Intn(70000)+1, rng.Intn(50))
	}
}

// naiveScan is the replaced consumer pattern: try every NC against the
// hostname until one matches.
func naiveScan(ncs []*core.NC, host string) (Result, bool) {
	for _, nc := range ncs {
		digits, ok := nc.Extract(host)
		if !ok {
			continue
		}
		a, err := asn.Parse(digits)
		if err != nil {
			return Result{}, false
		}
		return Result{
			Hostname: host, Suffix: nc.Suffix, Class: nc.Class,
			Digits: digits, ASN: a, OK: true,
		}, true
	}
	return Result{}, false
}

// TestExtractAgreesWithLinearScan is the property test: over randomized
// hostnames and non-nested suffixes, the indexed Corpus and the naive
// all-NCs scan must agree exactly.
func TestExtractAgreesWithLinearScan(t *testing.T) {
	ncs := syntheticNCs(t, 150)
	c := New(ncs)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20000; i++ {
		host := randomHost(rng, ncs)
		got, gotOK := c.Extract(ctx, host)
		want, wantOK := naiveScan(ncs, host)
		if gotOK != wantOK || got != want {
			t.Fatalf("host %q: corpus = (%+v, %v), linear scan = (%+v, %v)",
				host, got, gotOK, want, wantOK)
		}
	}
}

// TestExtractDeepestSuffixWins pins the walk semantics shared with the
// replaced bdrmapit index: the deepest matching suffix governs, and a
// governing NC that fails to match does NOT fall through to a shallower
// suffix.
func TestExtractDeepestSuffixWins(t *testing.T) {
	deep := ncFromJSON(t, "cust.xnet.net", `as(\\d+)\\.cust\\.xnet\\.net$`, core.Good)
	shallow := ncFromJSON(t, "xnet.net", `^r(\\d+)-[^\\.]+\\.xnet\\.net$`, core.Good)
	c := New([]*core.NC{shallow, deep})
	ctx := context.Background()

	if m, ok := c.Extract(ctx, "a.as77.cust.xnet.net"); !ok || m.Suffix != "cust.xnet.net" || m.ASN != 77 {
		t.Fatalf("deep suffix: %+v %v", m, ok)
	}
	if m, ok := c.Extract(ctx, "r12-lax.xnet.net"); !ok || m.Suffix != "xnet.net" || m.ASN != 12 {
		t.Fatalf("shallow suffix: %+v %v", m, ok)
	}
	// r99-style hostname under the deep suffix: the deep NC governs and
	// misses; the shallow NC must not be consulted.
	if m, ok := c.Extract(ctx, "r12-lax.cust.xnet.net"); ok {
		t.Fatalf("fell through to shallower suffix: %+v", m)
	}
}

// TestExtractEdgeCases covers empty corpora and degenerate hostnames.
func TestExtractEdgeCases(t *testing.T) {
	ctx := context.Background()
	empty := New(nil)
	if _, ok := empty.Extract(ctx, "as1.example.net"); ok {
		t.Fatal("empty corpus matched")
	}
	c := New([]*core.NC{ncFromJSON(t, "example.net", `^as(\\d+)\\.example\\.net$`, core.Good)})
	for _, host := range []string{"", "net", ".", "example.net", "as0.example.net"} {
		if m, ok := c.Extract(ctx, host); ok {
			t.Fatalf("host %q unexpectedly matched: %+v", host, m)
		}
	}
	if m, ok := c.Extract(ctx, "as64512.example.net"); !ok || m.ASN != 64512 || m.Digits != "64512" {
		t.Fatalf("fast path: %+v %v", m, ok)
	}
}

// TestExtractCancelledContext: a cancelled context is a miss on entry,
// not a partial extraction.
func TestExtractCancelledContext(t *testing.T) {
	c := New([]*core.NC{ncFromJSON(t, "example.net", `^as(\\d+)\\.example\\.net$`, core.Good)})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if m, ok := c.Extract(ctx, "as64512.example.net"); ok {
		t.Fatalf("cancelled context extracted: %+v", m)
	}
	// nil context means "no cancellation".
	if _, ok := c.Extract(nil, "as64512.example.net"); !ok { //nolint:staticcheck
		t.Fatal("nil context refused")
	}
}

// TestConventions exercises suffix resolution without application
// through the read-only view.
func TestConventions(t *testing.T) {
	nc := ncFromJSON(t, "example.net", `^as(\\d+)\\.example\\.net$`, core.Promising)
	c := New([]*core.NC{nc})
	cv, ok := c.Conventions("foo.bar.example.net")
	if !ok || cv.Suffix() != "example.net" || cv.Class() != core.Promising {
		t.Fatalf("Conventions = %+v, %v", cv, ok)
	}
	if cv.NumRegexes() != 1 || len(cv.Regexes()) != 1 || len(cv.Strings()) != 1 {
		t.Fatalf("regex accessors: %d %d %d", cv.NumRegexes(), len(cv.Regexes()), len(cv.Strings()))
	}
	// The regexes slice is a copy: mutating it must not reach the corpus.
	rs := cv.Regexes()
	rs[0] = nil
	cv2, _ := c.Conventions("example.net")
	if cv2.Regexes()[0] == nil {
		t.Fatal("Regexes() aliases corpus state")
	}
	if _, ok := c.Conventions("example.org"); ok {
		t.Fatal("unrelated suffix resolved")
	}
}

// TestSuffixes: sorted, one per retained NC.
func TestSuffixes(t *testing.T) {
	ncs := syntheticNCs(t, 10)
	c := New(ncs)
	suf := c.Suffixes()
	if len(suf) != 10 {
		t.Fatalf("len = %d", len(suf))
	}
	for i := 1; i < len(suf); i++ {
		if suf[i-1] >= suf[i] {
			t.Fatalf("unsorted at %d: %q >= %q", i, suf[i-1], suf[i])
		}
	}
	for _, s := range suf {
		if _, ok := c.Conventions(s); !ok {
			t.Fatalf("suffix %q not resolvable", s)
		}
	}
}

// TestMinClassFilter checks corpus-level class restriction.
func TestMinClassFilter(t *testing.T) {
	ctx := context.Background()
	ncs := []*core.NC{
		ncFromJSON(t, "good.net", `^as(\\d+)\\.good\\.net$`, core.Good),
		ncFromJSON(t, "prom.net", `^as(\\d+)\\.prom\\.net$`, core.Promising),
		ncFromJSON(t, "poor.net", `^as(\\d+)\\.poor\\.net$`, core.Poor),
	}
	all := New(ncs)
	usable := New(ncs, UsableOnly())
	goodOnly := New(ncs, MinClass(core.Good))
	if all.Len() != 3 || usable.Len() != 2 || goodOnly.Len() != 1 {
		t.Fatalf("lens = %d %d %d", all.Len(), usable.Len(), goodOnly.Len())
	}
	if _, ok := usable.Extract(ctx, "as1.poor.net"); ok {
		t.Fatal("poor NC applied through UsableOnly corpus")
	}
	if _, ok := usable.Extract(ctx, "as1.prom.net"); !ok {
		t.Fatal("promising NC missing from UsableOnly corpus")
	}
}

// TestDuplicateSuffixLastWins pins the overwrite behavior inherited from
// the replaced per-consumer maps.
func TestDuplicateSuffixLastWins(t *testing.T) {
	ctx := context.Background()
	first := ncFromJSON(t, "dup.net", `^a(\\d+)\\.dup\\.net$`, core.Good)
	second := ncFromJSON(t, "dup.net", `^b(\\d+)\\.dup\\.net$`, core.Good)
	c := New([]*core.NC{first, second})
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
	if _, ok := c.Extract(ctx, "a5.dup.net"); ok {
		t.Fatal("first NC survived")
	}
	if m, ok := c.Extract(ctx, "b5.dup.net"); !ok || m.ASN != 5 {
		t.Fatalf("second NC missing: %+v %v", m, ok)
	}
}

// TestConcurrentExtractCompilesOnce hammers a freshly built (uncompiled)
// corpus from many goroutines; under -race this verifies the sync.Once
// compile cache leaves no unsynchronized writes in the hot path.
func TestConcurrentExtractCompilesOnce(t *testing.T) {
	ncs := syntheticNCs(t, 64)
	c := New(ncs)
	ctx := context.Background()
	hosts := make([]string, 512)
	rng := rand.New(rand.NewSource(7))
	for i := range hosts {
		hosts[i] = randomHost(rng, ncs)
	}
	want := make([]Result, len(hosts))
	for i, h := range hosts {
		want[i], _ = naiveScan(ncs, h)
	}

	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				i := (g*31 + rep*17) % len(hosts)
				m, ok := c.Extract(ctx, hosts[i])
				if ok != want[i].OK || m != want[i] {
					select {
					case errs <- fmt.Sprintf("goroutine %d: host %q: got (%+v, %v) want %+v",
						g, hosts[i], m, ok, want[i]):
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestExtractBatchMatchesSerial checks the worker pool returns exactly
// the serial results, in input order.
func TestExtractBatchMatchesSerial(t *testing.T) {
	ncs := syntheticNCs(t, 100)
	c := New(ncs, WithWorkers(8))
	ctx := context.Background()
	rng := rand.New(rand.NewSource(99))
	hosts := make([]string, 10_000)
	for i := range hosts {
		hosts[i] = randomHost(rng, ncs)
	}
	got, err := c.ExtractBatch(ctx, hosts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(hosts) {
		t.Fatalf("len = %d, want %d", len(got), len(hosts))
	}
	for i, h := range hosts {
		m, ok := c.Extract(ctx, h)
		if got[i].OK != ok || got[i] != m {
			t.Fatalf("index %d (%q): batch %+v, serial (%+v, %v)", i, h, got[i], m, ok)
		}
	}
	// Serial corpus (workers=1) must agree too.
	serial, err := New(ncs, WithWorkers(1)).ExtractBatch(ctx, hosts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != got[i] {
			t.Fatalf("index %d: serial %+v != parallel %+v", i, serial[i], got[i])
		}
	}
}

// TestExtractStreamOrdered checks the streaming path emits every result
// in input order across chunk boundaries.
func TestExtractStreamOrdered(t *testing.T) {
	ncs := syntheticNCs(t, 50)
	c := New(ncs, WithWorkers(6))
	rng := rand.New(rand.NewSource(5))
	n := 4*streamChunk + 37 // force several chunks plus a ragged tail
	hosts := make([]string, n)
	for i := range hosts {
		hosts[i] = randomHost(rng, ncs)
	}

	in := make(chan string)
	go func() {
		defer close(in)
		for _, h := range hosts {
			in <- h
		}
	}()
	var got []Result
	for r := range c.ExtractStream(context.Background(), in) {
		got = append(got, r)
	}
	want, err := c.ExtractBatch(context.Background(), hosts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("stream emitted %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("index %d: stream %+v != batch %+v", i, got[i], want[i])
		}
	}
}

// TestExtractStreamEmpty: a closed-empty input yields a closed-empty
// output, no deadlock.
func TestExtractStreamEmpty(t *testing.T) {
	c := New(syntheticNCs(t, 4))
	in := make(chan string)
	close(in)
	if _, ok := <-c.ExtractStream(context.Background(), in); ok {
		t.Fatal("result from empty stream")
	}
}

// TestSaveLoadRoundTrip: a corpus survives its saved (HBC) form with
// identical extraction behavior.
func TestSaveLoadRoundTrip(t *testing.T) {
	ncs := syntheticNCs(t, 20)
	c := New(ncs)
	ctx := context.Background()
	var buf bytes.Buffer
	if err := c.SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != c.Len() {
		t.Fatalf("loaded %d NCs, want %d", loaded.Len(), c.Len())
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		host := randomHost(rng, ncs)
		gm, gok := loaded.Extract(ctx, host)
		wm, wok := c.Extract(ctx, host)
		if gok != wok || gm != wm {
			t.Fatalf("host %q: loaded (%+v, %v), original (%+v, %v)", host, gm, gok, wm, wok)
		}
	}
	// Load-time filtering.
	usable, err := Load(bytes.NewReader(buf.Bytes()), UsableOnly())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range usable.Suffixes() {
		cv, ok := usable.Conventions(s)
		if !ok || !cv.Class().Usable() {
			t.Fatalf("unusable NC %s survived UsableOnly load", s)
		}
	}
}

// TestLoadRejectsGarbage: input that is not a corpus is an error, not a
// panic.
func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("{not json"))); err == nil {
		t.Fatal("garbage loaded")
	}
}

// TestNonRegisteredSuffixWalk: corpora whose suffixes are not registered
// domains (bare TLDs, deep suffixes) fall back to the label walk and
// still resolve.
func TestNonRegisteredSuffixWalk(t *testing.T) {
	// "net" is itself a public suffix: the PSL direct path cannot index it.
	nc := ncFromJSON(t, "net", `as(\\d+)\\.net$`, core.Good)
	c := New([]*core.NC{nc})
	if c.pslDirect {
		t.Fatal("bare-TLD suffix should disable the PSL direct path")
	}
	if m, ok := c.Extract(context.Background(), "x.as701.net"); !ok || m.ASN != 701 {
		t.Fatalf("walk missed: %+v %v", m, ok)
	}
}

// TestWithPSL: a custom list changes what counts as a registered domain.
func TestWithPSL(t *testing.T) {
	list, err := psl.FromRules("net", "example.net")
	if err != nil {
		t.Fatal(err)
	}
	// Under this list, example.net is a public suffix, so an NC keyed by
	// a.example.net is the registered domain.
	nc := ncFromJSON(t, "a.example.net", `^as(\\d+)\\.a\\.example\\.net$`, core.Good)
	c := New([]*core.NC{nc}, WithPSL(list))
	if !c.pslDirect {
		t.Fatal("expected PSL direct path")
	}
	if m, ok := c.Extract(context.Background(), "as9.a.example.net"); !ok || m.ASN != 9 {
		t.Fatalf("extract: %+v %v", m, ok)
	}
}

// TestCompileSkipsBadRegex: an NC whose regex set contains an
// uncompilable pattern still applies its good regexes, mirroring
// NC.Extract's skip-on-error behavior.
func TestCompileSkipsBadRegex(t *testing.T) {
	nc := &core.NC{Suffix: "example.net", Class: core.Good}
	good := rex.MustNew(rex.Lit("as"), rex.Capture(), rex.Lit(".example.net"))
	nc.Regexes = []*rex.Regex{good}
	c := New([]*core.NC{nc})
	if m, ok := c.Extract(context.Background(), "as5.example.net"); !ok || m.ASN != 5 {
		t.Fatalf("extract: %+v %v", m, ok)
	}
}
