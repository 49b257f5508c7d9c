package extract

import (
	"fmt"
	"io"
	"time"

	"hoiho/internal/corpusbin"
)

// Diff writes the HBD delta that patches old's retained corpus into
// new's (see internal/corpusbin): per-record add/remove/replace ops
// chained between the two corpus fingerprints. ApplyDelta on a corpus
// whose fingerprint matches old's reproduces new's SaveBinary bytes
// exactly.
func Diff(old, new *Corpus, w io.Writer) error {
	if err := corpusbin.EncodeDelta(w, old.ncs, new.ncs); err != nil {
		return fmt.Errorf("extract: diff: %w", err)
	}
	return nil
}

// ApplyDelta patches base with an HBD delta and returns the resulting
// corpus (indexed with opts, exactly as Load would build it) along with
// the full target HBC bytes — byte-identical to a SaveBinary of the
// corpus the delta was diffed from — so callers can persist or forward
// the complete corpus, never the patch. It refuses to apply when base's
// fingerprint does not match the delta's chain
// (corpusbin.ErrDeltaBaseMismatch) and fails closed on any corruption;
// base is never modified.
//
// The result is assembled from provenance, not re-decoded: records the
// delta copies keep base's NC, compiled engine and PSL answers, so only
// the records the delta actually changed pay decoding, engine
// compilation and PSL checks. Applying a small delta is therefore
// cheaper than reloading the full target corpus, even though the full
// bytes are produced (and checksum-verified against the chain) either
// way. The target fingerprint the chain verified is adopted as it is
// (see fromVerified), so a corpus built here is as cheap a base for the
// next delta as base was for this one.
func ApplyDelta(base *Corpus, delta []byte, opts ...Option) (*Corpus, []byte, error) {
	c, full, _, err := ApplyDeltaStats(base, delta, opts...)
	return c, full, err
}

// DeltaStats describes one delta apply: how the patched corpus was
// assembled, and where its time went.
type DeltaStats struct {
	// Copied and Inserted count the target's records taken from base
	// and decoded from the delta.
	Copied, Inserted int
	// Apply is everything up to the verified records: corpusbin's
	// checksum, chain check, decoding of the inserted records, and
	// re-encoding and checking of the target. Index is building the
	// corpus from them, inserted records' engines included.
	Apply, Index time.Duration
}

// ApplyDeltaStats is ApplyDelta reporting DeltaStats as well.
func ApplyDeltaStats(base *Corpus, delta []byte, opts ...Option) (*Corpus, []byte, DeltaStats, error) {
	var st DeltaStats
	start := time.Now()
	// base.fp is core.FingerprintNCs over base.ncs, memoized at corpus
	// build; attesting it skips one full hash pass over the base
	// without weakening the chain check.
	p, err := corpusbin.ApplyDeltaRecordsFP(base.ncs, base.fp, delta)
	if err != nil {
		return nil, nil, st, fmt.Errorf("extract: apply delta: %w", err)
	}
	if len(p.NCs) == 0 {
		return nil, nil, st, fmt.Errorf("extract: apply delta: corpus contains no conventions")
	}
	st.Copied, st.Inserted = p.Copied, len(p.NCs)-p.Copied
	st.Apply = time.Since(start)
	start = time.Now()
	c := fromVerified(p.NCs, p.Fingerprint, base, opts)
	st.Index = time.Since(start)
	return c, p.Full, st, nil
}
