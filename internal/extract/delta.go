package extract

import (
	"fmt"
	"io"
	"time"

	"hoiho/internal/core"
	"hoiho/internal/corpusbin"
	"hoiho/internal/match"
)

// binaryRecords builds the corpus's retained NCs in corpusbin record
// form — the same preparation SaveBinary performs, reusing compiled
// engines where the entries already hold them. The result is memoized
// (the corpus is immutable after build, and serializing every engine's
// wire programs is the expensive part), so repeated diffs and delta
// applies against the same live corpus pay it once. Callers must treat
// the returned slice as read-only.
func (c *Corpus) binaryRecords() []corpusbin.NCRecord {
	c.binOnce.Do(func() {
		recs := make([]corpusbin.NCRecord, len(c.ncs))
		for i, nc := range c.ncs {
			recs[i] = corpusbin.NCRecord{NC: nc, Programs: c.compiledEngine(nc).Wire()}
		}
		c.binRecs = recs
	})
	return c.binRecs
}

// Diff writes the HBD delta that patches old's retained corpus into
// new's (see internal/corpusbin): per-record add/remove/replace ops
// chained between the two corpus fingerprints. ApplyDelta on a corpus
// whose fingerprint matches old's reproduces new's SaveBinary bytes
// exactly.
func Diff(old, new *Corpus, w io.Writer) error {
	if err := corpusbin.EncodeDelta(w, old.binaryRecords(), new.binaryRecords()); err != nil {
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
// delta copies keep base's NC and compiled engine, so only the
// records the delta actually changed pay program deserialization and
// engine construction. Applying a small delta is therefore cheaper than
// reloading the full target corpus, even though the full bytes are
// produced (and checksum-verified against the chain) either way. The
// patched records, and the target fingerprint the chain verified, are
// adopted as they are (see fromVerified), so a corpus built here is as
// cheap a base for the next delta as base was for this one.
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
	// Apply is everything up to the verified records: base's record
	// form if it was not yet memoized, then corpusbin's checksums,
	// chain check, decoding of the inserted records, and re-encoding and
	// checking of the target. Index is building the corpus from them.
	Apply, Index time.Duration
}

// ApplyDeltaStats is ApplyDelta reporting DeltaStats as well.
func ApplyDeltaStats(base *Corpus, delta []byte, opts ...Option) (*Corpus, []byte, DeltaStats, error) {
	var st DeltaStats
	start := time.Now()
	// base.fp is core.FingerprintNCs over the same NCs binaryRecords
	// carries, memoized at corpus build; attesting it skips one full
	// hash pass over the base without weakening the chain check.
	p, err := corpusbin.ApplyDeltaRecordsFP(base.binaryRecords(), base.fp, delta)
	if err != nil {
		return nil, nil, st, fmt.Errorf("extract: apply delta: %w", err)
	}
	if len(p.Records) == 0 {
		return nil, nil, st, fmt.Errorf("extract: apply delta: corpus contains no conventions")
	}
	for _, eng := range p.Engines {
		if eng == nil {
			st.Copied++
		}
	}
	st.Inserted = len(p.Records) - st.Copied
	st.Apply = time.Since(start)
	start = time.Now()
	ncs := make([]*core.NC, len(p.Records))
	for i, rec := range p.Records {
		ncs[i] = rec.NC
	}
	c := fromVerified(ncs, p.Records, p.Fingerprint, func(i int) *match.Engine {
		if eng := p.Engines[i]; eng != nil {
			return eng
		}
		// A copied record: base's compiled engine is the engine for
		// these exact programs.
		return base.compiledEngine(ncs[i])
	}, opts)
	st.Index = time.Since(start)
	return c, p.Full, st, nil
}
