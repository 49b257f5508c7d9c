package extract

import (
	"bytes"
	"testing"

	"hoiho/internal/core"
)

// TestFingerprintStable: equal content fingerprints identically
// regardless of construction order, different content differs, and a
// Save/Load round trip — the daemon's reload path — preserves the
// fingerprint, so X-Hoiho-Corpus is a true content identity.
func TestFingerprintStable(t *testing.T) {
	ncs := syntheticNCs(t, 12)
	c1 := New(ncs)

	reversed := make([]*core.NC, len(ncs))
	for i, nc := range ncs {
		reversed[len(ncs)-1-i] = nc
	}
	c2 := New(reversed)
	if c1.Fingerprint() != c2.Fingerprint() {
		t.Errorf("construction order changed the fingerprint: %016x vs %016x",
			c1.Fingerprint(), c2.Fingerprint())
	}

	c3 := New(ncs[:11])
	if c1.Fingerprint() == c3.Fingerprint() {
		t.Error("dropping an NC did not change the fingerprint")
	}

	var buf bytes.Buffer
	if err := c1.SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Fingerprint() != c1.Fingerprint() {
		t.Errorf("save/load changed the fingerprint: %016x vs %016x",
			c1.Fingerprint(), loaded.Fingerprint())
	}
	if got := c1.FingerprintString(); len(got) != 16 {
		t.Errorf("FingerprintString = %q, want 16 hex digits", got)
	}

	// MinClass filtering keeps only some NCs, so the fingerprint must
	// reflect the retained set, matching what a filtered reload serves.
	filtered := New(ncs, UsableOnly())
	if filtered.Len() != c1.Len() && filtered.Fingerprint() == c1.Fingerprint() {
		t.Error("class filtering changed the NC set but not the fingerprint")
	}
}
