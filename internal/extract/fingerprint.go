package extract

import (
	"fmt"

	"hoiho/internal/core"
)

// fingerprint hashes the corpus content: every retained NC's suffix,
// class, and regex sources, in suffix order. Computed once at
// construction (before the corpus is shared), so reading it later is
// race-free even though rex's String caches are lazily primed. The
// algorithm lives in core.FingerprintNCs so the binary corpus format
// stamps and verifies the identical value.
func (c *Corpus) fingerprint() uint64 {
	return core.FingerprintNCs(c.ncs)
}

// Fingerprint is a stable 64-bit identity for the corpus content —
// equal corpora (same suffixes, classes, and regex sources, regardless
// of construction order) fingerprint identically. The serving daemon
// stamps it on every response so a consumer (and the chaos tests) can
// tell exactly which corpus produced an extraction across hot reloads.
func (c *Corpus) Fingerprint() uint64 { return c.fp }

// FingerprintString renders Fingerprint in the fixed-width hex form used
// by the daemon's X-Hoiho-Corpus header and /statusz.
func (c *Corpus) FingerprintString() string { return FormatFingerprint(c.fp) }

// FormatFingerprint renders a corpus fingerprint in the fixed-width hex
// form shared by the X-Hoiho-Corpus header, /statusz, and the cluster
// rollout protocol — the one string every layer compares.
func FormatFingerprint(fp uint64) string { return fmt.Sprintf("%016x", fp) }
