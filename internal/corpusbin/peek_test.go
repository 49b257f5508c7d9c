package corpusbin

// PeekFingerprint is the cluster rollout's cheap identity check: the
// coordinator reads a shipped HBC corpus's fingerprint (verifying the
// payload checksum) without paying for a full decode. These tests pin
// that the peek agrees with Decode and fails closed on anything
// corrupt, truncated, or mislabeled.

import (
	"strings"
	"testing"
)

func TestPeekFingerprintMatchesDecode(t *testing.T) {
	data := encodeCorpus(t, testNCs(t))
	fp, err := PeekFingerprint(data)
	if err != nil {
		t.Fatalf("peek: %v", err)
	}
	dec, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if fp != dec.Fingerprint {
		t.Errorf("peek = %016x, decode = %016x", fp, dec.Fingerprint)
	}
}

func TestPeekFingerprintFailsClosed(t *testing.T) {
	data := encodeCorpus(t, testNCs(t))

	// Not HBC at all.
	if _, err := PeekFingerprint([]byte("[]")); err == nil {
		t.Error("peek of JSON must fail")
	}
	// Truncated below the header.
	if _, err := PeekFingerprint(data[:10]); err == nil {
		t.Error("peek of a truncated header must fail")
	}
	// Wrong version byte.
	bad := append([]byte(nil), data...)
	bad[3] = 0x7f
	if _, err := PeekFingerprint(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("peek of wrong version = %v, want a version error", err)
	}
	// Flipped payload byte: the checksum must catch it even though the
	// header (and its fingerprint field) are intact.
	bad = append([]byte(nil), data...)
	bad[len(bad)-1] ^= 0x01
	if _, err := PeekFingerprint(bad); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("peek of corrupt payload = %v, want a checksum error", err)
	}
	// A tampered fingerprint field is not covered by the payload
	// checksum, but the full Decode recomputes and rejects it; peek's
	// contract is only as strong as the header, so pin that Decode
	// remains the backstop.
	bad = append([]byte(nil), data...)
	bad[4] ^= 0x01
	if _, err := Decode(bad); err == nil {
		t.Error("Decode must reject a tampered fingerprint field")
	}
}

// TestPeekFingerprintHeaderEdgeCases pins the degenerate inputs the
// journal-recovery path can hand the peek after a crash: zero-length
// data and every truncation below the header must return a qualified
// error — never a panic, never a bogus fingerprint.
func TestPeekFingerprintHeaderEdgeCases(t *testing.T) {
	if _, err := PeekFingerprint(nil); err == nil || !strings.Contains(err.Error(), "corpusbin") {
		t.Errorf("peek of nil = %v, want a qualified error", err)
	}
	if _, err := PeekFingerprint([]byte{}); err == nil || !strings.Contains(err.Error(), "corpusbin") {
		t.Errorf("peek of zero-length data = %v, want a qualified error", err)
	}
	data := encodeCorpus(t, testNCs(t))
	for n := 0; n < headerLen; n++ {
		if _, err := PeekFingerprint(data[:n]); err == nil {
			t.Fatalf("peek of %d-byte header prefix succeeded", n)
		}
	}
}
