package corpusbin

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"hoiho/internal/core"
	"hoiho/internal/rex"
)

// mutatedNCs derives a target corpus from testNCs with one removal
// (delta.io), one in-place replacement (alpha.net's eval counters
// change — invisible to the NC fingerprint's structural inputs, visible
// to the canonical record), and one addition (epsilon.de).
func mutatedNCs(t testing.TB) []*core.NC {
	t.Helper()
	ncs := testNCs(t)
	out := make([]*core.NC, 0, len(ncs))
	for _, nc := range ncs {
		if nc.Suffix == "delta.io" {
			continue
		}
		if nc.Suffix == "alpha.net" {
			cp := *nc
			cp.Eval.TP += 100
			cp.Eval.Matches += 100
			nc = &cp
		}
		out = append(out, nc)
	}
	r, err := rex.Parse(`^(?:gw|br)(\d+)\.epsilon\.de$`)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, &core.NC{
		Suffix:  "epsilon.de",
		Class:   core.Good,
		Regexes: []*rex.Regex{r},
		Eval:    core.Eval{TP: 7, Matches: 7, UniqueTP: 2, UniqueExtract: 2},
	})
	return out
}

// deltaChain is the fingerprint pair a delta patches between.
type deltaChain struct{ Base, Target uint64 }

// chainOf reads the chain from an HBD header: the base fingerprint at
// byte 4, the target's at byte 12.
func chainOf(delta []byte) deltaChain {
	return deltaChain{Base: binary.LittleEndian.Uint64(delta[4:]), Target: binary.LittleEndian.Uint64(delta[12:])}
}

func encodeDelta(t testing.TB, base, target []*core.NC) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeDelta(&buf, base, target); err != nil {
		t.Fatalf("encode delta: %v", err)
	}
	return buf.Bytes()
}

// TestDeltaRoundTripByteIdentity is the core contract:
// ApplyDelta(base, Diff(base, target)) must reproduce a full Encode of
// the target byte for byte, across add/remove/replace ops at once.
func TestDeltaRoundTripByteIdentity(t *testing.T) {
	base := testNCs(t)
	targetNCs := mutatedNCs(t)
	delta := encodeDelta(t, base, targetNCs)

	got, err := ApplyDelta(base, delta)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	want := encodeCorpus(t, targetNCs)
	if !bytes.Equal(got, want) {
		t.Fatalf("patched corpus differs from a full encode: %d vs %d bytes", len(got), len(want))
	}
	// The chain must name both endpoints.
	chain := chainOf(delta)
	if chain.Base != core.FingerprintNCs(testNCs(t)) || chain.Target != core.FingerprintNCs(targetNCs) {
		t.Fatalf("chain %016x → %016x does not match the endpoint fingerprints", chain.Base, chain.Target)
	}
	// The patched bytes are a first-class HBC corpus.
	dec, err := Decode(got)
	if err != nil {
		t.Fatalf("decode of patched corpus: %v", err)
	}
	if dec.Fingerprint != chain.Target {
		t.Fatalf("patched corpus fingerprint %016x, chain target %016x", dec.Fingerprint, chain.Target)
	}
}

func TestDeltaEncodeDeterministic(t *testing.T) {
	base := testNCs(t)
	target := mutatedNCs(t)
	if !bytes.Equal(encodeDelta(t, base, target), encodeDelta(t, base, target)) {
		t.Fatal("two encodes of the same delta differ")
	}
}

// TestDeltaSmallerThanFull pins the point of the format: a single-record
// change to a many-record corpus must ship far fewer bytes than the
// full corpus (the CI bench gate tracks the exact ratio).
func TestDeltaSmallerThanFull(t *testing.T) {
	ncs := make([]*core.NC, 0, 48)
	for i := 0; i < 48; i++ {
		suffix := fmt.Sprintf("node%02d.example.net", i)
		r, err := rex.Parse(`^as(\d+)-[^\.]+\.` + strings.ReplaceAll(suffix, ".", `\.`) + `$`)
		if err != nil {
			t.Fatal(err)
		}
		ncs = append(ncs, &core.NC{
			Suffix: suffix, Class: core.Good,
			Regexes: []*rex.Regex{r},
			Eval:    core.Eval{TP: i + 1, Matches: i + 1, UniqueTP: 1, UniqueExtract: 1},
		})
	}
	targetNCs := append([]*core.NC(nil), ncs...)
	cp := *ncs[7]
	cp.Eval.TP += 9
	targetNCs[7] = &cp

	delta := encodeDelta(t, ncs, targetNCs)
	full := encodeCorpus(t, targetNCs)
	if len(delta)*4 > len(full) {
		t.Fatalf("one-record delta is %d bytes vs %d full — not worth shipping", len(delta), len(full))
	}
	got, err := ApplyDelta(ncs, delta)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, full) {
		t.Fatal("patched corpus differs from full encode")
	}
}

// TestDeltaIdenticalCorpora: a no-op diff is a legal all-copy patch.
func TestDeltaIdenticalCorpora(t *testing.T) {
	base := testNCs(t)
	delta := encodeDelta(t, base, base)
	got, err := ApplyDelta(base, delta)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, encodeCorpus(t, testNCs(t))) {
		t.Fatal("identity patch did not reproduce the corpus")
	}
}

// TestDeltaBaseMismatch: a patch refuses to run against any corpus but
// the one it was diffed from, with the typed sentinel the serve layer
// keys its rollout nack on.
func TestDeltaBaseMismatch(t *testing.T) {
	base := testNCs(t)
	target := mutatedNCs(t)
	delta := encodeDelta(t, base, target)

	// Applying against the target (already rolled forward) must refuse.
	_, err := ApplyDelta(target, delta)
	if !errors.Is(err, ErrDeltaBaseMismatch) {
		t.Fatalf("apply against wrong base = %v, want ErrDeltaBaseMismatch", err)
	}
	if !strings.Contains(err.Error(), "corpusbin") {
		t.Fatalf("unqualified error %q", err)
	}
	// Applying against a truncated base (right fingerprint impossible).
	_, err = ApplyDelta(base[:2], delta)
	if !errors.Is(err, ErrDeltaBaseMismatch) {
		t.Fatalf("apply against truncated base = %v, want ErrDeltaBaseMismatch", err)
	}
}

// TestDeltaResultMismatch: header fields past the payload checksum's
// reach (the chain target and the file sum) are still load-bearing —
// tampering with either must surface the typed result-mismatch error.
func TestDeltaResultMismatch(t *testing.T) {
	base := testNCs(t)
	target := mutatedNCs(t)
	delta := encodeDelta(t, base, target)

	bad := append([]byte(nil), delta...)
	bad[12] ^= 0x01 // target fingerprint
	if _, err := ApplyDelta(base, bad); !errors.Is(err, ErrDeltaResultMismatch) {
		t.Fatalf("tampered target fp = %v, want ErrDeltaResultMismatch", err)
	}
	bad = append([]byte(nil), delta...)
	bad[20] ^= 0x01 // target file sum
	if _, err := ApplyDelta(base, bad); !errors.Is(err, ErrDeltaResultMismatch) {
		t.Fatalf("tampered file sum = %v, want ErrDeltaResultMismatch", err)
	}
}

// TestDeltaCorruptionFailsClosed mirrors the HBC test: every truncation
// and every single-bit flip of a valid delta must be rejected with a
// qualified error — never applied, never a panic. (A flip in the base
// fingerprint reads as a base mismatch; one in the target fields as a
// result mismatch; everywhere else the checksum or a structural check
// catches it.)
func TestDeltaCorruptionFailsClosed(t *testing.T) {
	base := testNCs(t)
	target := mutatedNCs(t)
	delta := encodeDelta(t, base, target)
	if _, err := ApplyDelta(base, delta); err != nil {
		t.Fatalf("pristine delta failed: %v", err)
	}
	for n := 0; n < len(delta); n++ {
		if _, err := ApplyDelta(base, delta[:n]); err == nil {
			t.Fatalf("truncation to %d bytes applied successfully", n)
		}
	}
	mut := make([]byte, len(delta))
	for i := 0; i < len(delta); i++ {
		for b := 0; b < 8; b++ {
			copy(mut, delta)
			mut[i] ^= 1 << b
			out, err := ApplyDelta(base, mut)
			if err == nil {
				t.Fatalf("bit flip at byte %d bit %d applied successfully", i, b)
			}
			if out != nil {
				t.Fatalf("bit flip at byte %d bit %d: non-nil result with error", i, b)
			}
			if !strings.Contains(err.Error(), "corpusbin") && !strings.Contains(err.Error(), "nc ") {
				t.Fatalf("bit flip at byte %d bit %d: unqualified error %q", i, b, err)
			}
		}
	}
}

// TestDeltaHostileCountsCapped: a delta whose payload claims enormous
// sections is rejected before any allocation is attempted.
func TestDeltaHostileCountsCapped(t *testing.T) {
	payload := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01} // uvarint 2^63
	base := testNCs(t)
	data := make([]byte, deltaHeaderLen, deltaHeaderLen+len(payload))
	copy(data, DeltaMagic[:])
	binary.LittleEndian.PutUint64(data[4:], core.FingerprintNCs(testNCs(t)))
	data = append(data, payload...)
	binary.LittleEndian.PutUint32(data[24:], checksum(payload))
	_, err := ApplyDelta(base, data)
	if err == nil {
		t.Fatal("hostile string count applied successfully")
	}
	if !strings.Contains(err.Error(), "count") && !strings.Contains(err.Error(), "varint") {
		t.Fatalf("unexpected error for hostile count: %v", err)
	}
}

func TestDeltaRejectsWrongVersionAndOversized(t *testing.T) {
	base := testNCs(t)
	delta := encodeDelta(t, base, base)
	bad := append([]byte(nil), delta...)
	bad[3] = 0x7f
	if _, err := ApplyDelta(base, bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("wrong version: %v", err)
	}
	huge := make([]byte, maxSectionBytes+deltaHeaderLen+1)
	copy(huge, DeltaMagic[:])
	if _, err := ApplyDelta(base, huge); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("oversized input: %v", err)
	}
}

// FuzzHBDRoundTrip derives base/target corpus pairs from the fuzz input
// (shared records, perturbed records, fresh records) and requires the
// diff→apply cycle to be byte-identical with a full encode of the
// target, whatever the overlap shape.
func FuzzHBDRoundTrip(f *testing.F) {
	f.Add(uint16(3), uint16(0x1234), uint16(0x00ff))
	f.Add(uint16(8), uint16(7), uint16(0xaaaa))
	f.Add(uint16(1), uint16(0xffff), uint16(0))
	f.Fuzz(func(t *testing.T, nNCs, pick, keep uint16) {
		n := int(nNCs%10) + 1
		baseNCs := make([]*core.NC, 0, n)
		for i := 0; i < n; i++ {
			suffix := fmt.Sprintf("fz%d-%d.net", i, pick%13)
			r, err := rex.Parse(`^as(\d+)-[^\.]+\.` + strings.ReplaceAll(suffix, ".", `\.`) + `$`)
			if err != nil {
				t.Fatal(err)
			}
			baseNCs = append(baseNCs, &core.NC{
				Suffix:  suffix,
				Class:   core.Classification(int(pick>>uint(i%14)) % 3),
				Single:  pick&(1<<uint(i%16)) != 0,
				Regexes: []*rex.Regex{r},
				Eval:    core.Eval{TP: int(pick % 97), Matches: int(pick%97) + i, UniqueTP: i % 5, UniqueExtract: i%5 + 1},
			})
		}
		targetNCs := make([]*core.NC, 0, n+1)
		for i, nc := range baseNCs {
			switch {
			case keep&(1<<uint(i%16)) != 0:
				targetNCs = append(targetNCs, nc) // shared
			case i%3 == 0:
				continue // removed
			default: // replaced in place
				cp := *nc
				cp.Eval.TP++
				targetNCs = append(targetNCs, &cp)
			}
		}
		r, err := rex.Parse(`^gw(\d+)\.fresh\.net$`)
		if err != nil {
			t.Fatal(err)
		}
		targetNCs = append(targetNCs, &core.NC{
			Suffix: "fresh.net", Class: core.Good,
			Regexes: []*rex.Regex{r},
			Eval:    core.Eval{TP: 1, Matches: 1, UniqueTP: 1, UniqueExtract: 1},
		})

		delta := encodeDelta(t, baseNCs, targetNCs)
		got, err := ApplyDelta(baseNCs, delta)
		if err != nil {
			t.Fatalf("apply of freshly encoded delta failed: %v", err)
		}
		if !bytes.Equal(got, encodeCorpus(t, targetNCs)) {
			t.Fatal("diff→apply cycle not byte-identical with a full encode")
		}
	})
}

// FuzzHBDDecode throws raw bytes at ApplyDelta: it must never panic,
// and anything it accepts must be a self-consistent corpus matching the
// delta's declared chain target.
func FuzzHBDDecode(f *testing.F) {
	f.Add([]byte("HBD\x02junk"))
	f.Add([]byte{})
	f.Add(readV1(f, "v1.hbd"))
	f.Add(encodeDelta(f, testNCs(f), mutatedNCs(f)))
	f.Fuzz(func(t *testing.T, data []byte) {
		base := testNCs(t)
		out, err := ApplyDelta(base, data)
		if err != nil {
			return
		}
		chain := chainOf(data)
		dec, err := Decode(out)
		if err != nil {
			t.Fatalf("accepted delta produced an undecodable corpus: %v", err)
		}
		if dec.Fingerprint != chain.Target {
			t.Fatalf("accepted corpus fingerprint %016x does not match chain target %016x", dec.Fingerprint, chain.Target)
		}
	})
}
