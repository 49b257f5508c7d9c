package corpusbin

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"hoiho/internal/core"
	"hoiho/internal/match"
	"hoiho/internal/rex"
)

// testNCs builds a corpus exercising every serialized shape: multiple
// regexes per NC, literals, captures, classes, exclusions, dot-plus,
// alternations (optional and required), left-open regexes, every
// classification, the single flag, and non-zero eval counters.
func testNCs(t testing.TB) []*core.NC {
	t.Helper()
	mk := func(suffix, class string, single bool, srcs ...string) *core.NC {
		nc := &core.NC{Suffix: suffix, Single: single}
		switch class {
		case "good":
			nc.Class = core.Good
		case "promising":
			nc.Class = core.Promising
		default:
			nc.Class = core.Poor
		}
		for _, src := range srcs {
			r, err := rex.Parse(src)
			if err != nil {
				t.Fatalf("parse %q: %v", src, err)
			}
			nc.Regexes = append(nc.Regexes, r)
		}
		nc.Eval = core.Eval{TP: 12, FP: 3, FN: 1, Matches: 15, UniqueTP: 4, UniqueExtract: 5}
		return nc
	}
	return []*core.NC{
		mk("alpha.net", "good", false,
			`^as(\d+)-[^\.]+\.alpha\.net$`,
			`^[^-]+-as(\d+)\.alpha\.net$`),
		mk("beta.org", "promising", true,
			`as(\d+)\.beta\.org$`, // left-open
			`^.+\.(?:pop|core)\.as(\d+)\.beta\.org$`),
		mk("gamma.ch", "good", false,
			`^(?:p|s)?(\d+)\.[a-z]+\.gamma\.ch$`,
			`^[a-z\d]+\.(\d+)\.gamma\.ch$`),
		mk("delta.io", "poor", false,
			`^x(\d+)-[^-]+-[^\.]+\.delta\.io$`),
	}
}

func encodeCorpus(t testing.TB, ncs []*core.NC) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, ncs); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTripJSONByteIdentity(t *testing.T) {
	ncs := testNCs(t)
	before, err := core.MarshalNCs(ncs)
	if err != nil {
		t.Fatal(err)
	}
	data := encodeCorpus(t, ncs)
	dec, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	after, err := core.MarshalNCs(dec.NCs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("JSON round trip not byte-identical:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	if got, want := dec.Fingerprint, core.FingerprintNCs(ncs); got != want {
		t.Fatalf("fingerprint %016x, want %016x", got, want)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	ncs := testNCs(t)
	a := encodeCorpus(t, ncs)
	b := encodeCorpus(t, ncs)
	if !bytes.Equal(a, b) {
		t.Fatal("two encodes of the same corpus differ")
	}
}

// TestEngineParityAfterDecode proves an engine compiled from decoded
// regexes answers exactly like one compiled from the originals — same
// winner, same capture span — across hits, misses, and dirty inputs.
func TestEngineParityAfterDecode(t *testing.T) {
	ncs := testNCs(t)
	data := encodeCorpus(t, ncs)
	dec, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	hosts := []string{
		"as3356-lon1.alpha.net", "core2-as174.alpha.net", "lo0.alpha.net",
		"gw.pop.as6939.beta.org", "x.y.core.as1299.beta.org", "as99.beta.org",
		"p714.sgw.gamma.ch", "s24115.mel.gamma.ch", "8069.tyo.gamma.ch",
		"abc.123.gamma.ch", "x42-a-b.delta.io", "x42.delta.io",
		"", "no-match-at-all", strings.Repeat("a", 300) + ".alpha.net",
		"as\xff99-x.alpha.net",
	}
	for i, nc := range ncs {
		fresh := match.Compile(nc.Regexes)
		loaded := match.Compile(dec.NCs[i].Regexes)
		if fresh.Len() != loaded.Len() {
			t.Fatalf("%s: engine len %d vs %d", nc.Suffix, loaded.Len(), fresh.Len())
		}
		for _, h := range hosts {
			fh, fok := fresh.MatchString(h)
			lh, lok := loaded.MatchString(h)
			if fok != lok || fh != lh {
				t.Errorf("%s on %q: loaded (%v,%v) vs fresh (%v,%v)", nc.Suffix, h, lh, lok, fh, fok)
			}
		}
	}
}

// TestCorruptionFailsClosed flips every bit and truncates at every
// length: decode must return an error (never panic, never succeed) on
// each, and errors must carry the package's path-qualified prefix.
func TestCorruptionFailsClosed(t *testing.T) {
	data := encodeCorpus(t, testNCs(t))
	if _, err := Decode(data); err != nil {
		t.Fatalf("pristine corpus failed: %v", err)
	}
	for n := 0; n < len(data); n++ {
		if _, err := Decode(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		}
	}
	mut := make([]byte, len(data))
	for i := 0; i < len(data); i++ {
		for b := 0; b < 8; b++ {
			copy(mut, data)
			mut[i] ^= 1 << b
			dec, err := Decode(mut)
			if err == nil {
				t.Fatalf("bit flip at byte %d bit %d decoded successfully", i, b)
			}
			if dec != nil {
				t.Fatalf("bit flip at byte %d bit %d: non-nil result with error", i, b)
			}
			if !strings.Contains(err.Error(), "corpusbin") && !strings.Contains(err.Error(), "nc ") {
				t.Fatalf("bit flip at byte %d bit %d: unqualified error %q", i, b, err)
			}
		}
	}
}

// TestHostileCountsCapped feeds headers whose length prefixes claim
// enormous sections: decode must reject them without attempting the
// allocation.
func TestHostileCountsCapped(t *testing.T) {
	// A syntactically valid header wrapping a payload that claims 2^40
	// strings.
	payload := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01} // uvarint 2^63
	data := make([]byte, headerLen, headerLen+len(payload))
	copy(data, Magic[:])
	data = append(data, payload...)
	// Stamp a correct checksum so the count check is what rejects it.
	binary.LittleEndian.PutUint32(data[12:], checksum(payload))
	_, err := Decode(data)
	if err == nil {
		t.Fatal("hostile string count decoded successfully")
	}
	if !strings.Contains(err.Error(), "count") && !strings.Contains(err.Error(), "varint") {
		t.Fatalf("unexpected error for hostile count: %v", err)
	}
}

func TestDecodeRejectsOversizedInput(t *testing.T) {
	huge := make([]byte, maxSectionBytes+headerLen+1)
	copy(huge, Magic[:])
	if _, err := Decode(huge); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("oversized input: %v", err)
	}
}

func TestDecodeRejectsWrongVersion(t *testing.T) {
	data := encodeCorpus(t, testNCs(t))
	data[3] = 0x7f
	if _, err := Decode(data); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("wrong version: %v", err)
	}
}

// readV1 reads a file a version 1 encoder wrote: testNCs as HBC
// (v1.hbc), or the delta from testNCs to mutatedNCs (v1.hbd).
func readV1(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRefusesV1: version 1 bytes, with their program tables and FNV-1a
// sums, are refused by every reader with an error that names the
// version and the command that writes a current corpus, even though
// their header fields are intact.
func TestRefusesV1(t *testing.T) {
	wantV1 := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: accepted version 1 bytes", what)
		}
		for _, want := range []string{"version 1", "reads 2", "hoiho -save x.hbc"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not name %q", what, err, want)
			}
		}
	}
	hbc, hbd := readV1(t, "v1.hbc"), readV1(t, "v1.hbd")
	if binary.LittleEndian.Uint64(hbc[4:]) != core.FingerprintNCs(testNCs(t)) {
		t.Fatal("v1.hbc is not testNCs: its header carries another fingerprint")
	}
	_, err := Decode(hbc)
	wantV1("Decode", err)
	_, err = PeekFingerprint(hbc)
	wantV1("PeekFingerprint", err)
	_, err = ApplyDelta(testNCs(t), hbd)
	wantV1("ApplyDelta", err)
	_, err = ApplyDeltaRecordsFP(testNCs(t), core.FingerprintNCs(testNCs(t)), hbd)
	wantV1("ApplyDeltaRecordsFP", err)
}

// FuzzHBCRoundTrip builds an arbitrary (but valid) corpus from the fuzz
// input, encodes it, decodes it, and requires deep equality — the JSON
// forms byte-identical and the fingerprint stable.
func FuzzHBCRoundTrip(f *testing.F) {
	f.Add(uint16(3), uint16(0x1234), "pop")
	f.Add(uint16(1), uint16(0xffff), "x")
	f.Add(uint16(8), uint16(7), "core")
	f.Fuzz(func(t *testing.T, nNCs uint16, pick uint16, word string) {
		n := int(nNCs%8) + 1
		// Only lowercase alphanumerics may appear in rex literals.
		w := strings.Map(func(r rune) rune {
			if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') {
				return r
			}
			return 'a'
		}, word)
		if len(w) > 12 {
			w = w[:12]
		}
		if w == "" {
			w = "p"
		}
		shapes := []func(suffix string) string{
			func(s string) string { return `^as(\d+)\.` + s + `$` },
			func(s string) string { return `^` + w + `(\d+)-[^\.]+\.` + s + `$` },
			func(s string) string { return `as(\d+)\.` + s + `$` },
			func(s string) string { return `^(?:` + w + `|x` + w + `)?(\d+)\.[a-z]+\.` + s + `$` },
			func(s string) string { return `^.+\.(\d+)-[^-]+\.` + s + `$` },
			func(s string) string { return `^[a-z\d]+-(\d+)\.` + s + `$` },
		}
		ncs := make([]*core.NC, 0, n)
		for i := 0; i < n; i++ {
			suffix := fmt.Sprintf("dom%d-%s.net", i, w)
			nc := &core.NC{
				Suffix: suffix,
				Class:  core.Classification(int(pick>>uint(i%14)) % 3),
				Single: pick&(1<<uint(i%16)) != 0,
				Eval:   core.Eval{TP: int(pick % 97), FP: i, Matches: int(pick%97) + i, UniqueTP: i % 5, UniqueExtract: i%5 + 1},
			}
			for s := 0; s <= int(pick>>uint(i))%3; s++ {
				src := shapes[(i+s+int(pick))%len(shapes)](strings.ReplaceAll(suffix, ".", `\.`))
				r, err := rex.Parse(src)
				if err != nil {
					t.Fatalf("shape %q failed to parse: %v", src, err)
				}
				nc.Regexes = append(nc.Regexes, r)
			}
			ncs = append(ncs, nc)
		}
		before, err := core.MarshalNCs(ncs)
		if err != nil {
			t.Fatal(err)
		}
		fpBefore := core.FingerprintNCs(ncs)
		data := encodeCorpus(t, ncs)
		dec, err := Decode(data)
		if err != nil {
			t.Fatalf("decode of freshly encoded corpus failed: %v", err)
		}
		after, err := core.MarshalNCs(dec.NCs)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("round trip not byte-identical:\n%s\nvs\n%s", before, after)
		}
		if dec.Fingerprint != fpBefore || core.FingerprintNCs(dec.NCs) != fpBefore {
			t.Fatalf("fingerprint drifted: %016x vs %016x", dec.Fingerprint, fpBefore)
		}
		if len(dec.NCs) != len(ncs) {
			t.Fatalf("%d ncs decoded of %d", len(dec.NCs), len(ncs))
		}
	})
}

// FuzzHBCDecode throws raw bytes at Decode: it must never panic, and on
// success the decoded corpus must re-encode decodably (self-consistency).
func FuzzHBCDecode(f *testing.F) {
	f.Add([]byte("HBC\x02junk"))
	f.Add([]byte{})
	f.Add(encodeCorpus(f, testNCs(f)))
	f.Add(readV1(f, "v1.hbc"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := Decode(data)
		if err != nil {
			return
		}
		// A successful decode must be internally consistent.
		if got := core.FingerprintNCs(dec.NCs); got != dec.Fingerprint {
			t.Fatalf("accepted corpus with fingerprint mismatch: %016x vs %016x", got, dec.Fingerprint)
		}
	})
}

// TestDecodeErrorsQualifiedAndChained pins the error contract hoiholint's
// errwrap analyzer enforces (and whose violation it caught in the per-NC
// and per-regex decode wraps): every decode failure is path-qualified
// with the "corpusbin: decode:" prefix, and the record-level wraps use
// %w so errors.Unwrap still reaches the underlying cause once the error
// has crossed the daemon boundary. Corruption is injected after the
// header with the checksum re-stamped, so the flips reach the record
// decoders instead of dying at the checksum gate.
func TestDecodeErrorsQualifiedAndChained(t *testing.T) {
	data := encodeCorpus(t, testNCs(t))
	wrapRE := regexp.MustCompile(`^corpusbin: decode: nc \d+: `)
	mut := make([]byte, len(data))
	sawChain := false
	for i := headerLen; i < len(data); i++ {
		for b := 0; b < 8; b++ {
			copy(mut, data)
			mut[i] ^= 1 << b
			binary.LittleEndian.PutUint32(mut[12:], checksum(mut[headerLen:]))
			_, err := Decode(mut)
			if err == nil {
				continue // flip landed somewhere semantically inert
			}
			if !strings.HasPrefix(err.Error(), "corpusbin: decode: ") {
				t.Fatalf("flip at byte %d bit %d: unqualified error %q", i, b, err)
			}
			if wrapRE.MatchString(err.Error()) {
				if errors.Unwrap(err) == nil {
					t.Fatalf("flip at byte %d bit %d: record wrap lost the chain: %q", i, b, err)
				}
				sawChain = true
			}
		}
	}
	if !sawChain {
		t.Fatal("no corruption exercised the per-NC wrap; the regression has lost its teeth")
	}
}
