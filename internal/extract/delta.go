package extract

import (
	"fmt"
	"io"

	"hoiho/internal/core"
	"hoiho/internal/corpusbin"
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
// produced (and checksum-verified against the chain) either way.
//
//hoiho:ctxflow bounded one-shot pass over the patched corpus's records re-arming engines, milliseconds even for full-scale corpora; not a streaming pipeline
func ApplyDelta(base *Corpus, delta []byte, opts ...Option) (*Corpus, []byte, error) {
	// base.fp is core.FingerprintNCs over the same NCs binaryRecords
	// carries, memoized at corpus build; attesting it skips one full
	// hash pass over the base without weakening the chain check.
	full, recs, engines, err := corpusbin.ApplyDeltaRecordsFP(base.binaryRecords(), base.fp, delta)
	if err != nil {
		return nil, nil, fmt.Errorf("extract: apply delta: %w", err)
	}
	ncs := make([]*core.NC, len(recs))
	for i, rec := range recs {
		ncs[i] = rec.NC
	}
	if len(ncs) == 0 {
		return nil, nil, fmt.Errorf("extract: apply delta: corpus contains no conventions")
	}
	c := New(ncs, opts...)
	for i, nc := range ncs {
		e, ok := c.entries[nc.Suffix]
		if !ok || e.nc != nc {
			continue // filtered out, or superseded by a later duplicate
		}
		eng := engines[i]
		if eng == nil {
			// A copied record: base's compiled engine is the engine
			// for these exact programs.
			eng = base.compiledEngine(nc)
		}
		// Single-threaded: the corpus is not shared until we return.
		e.eng = eng
	}
	c.Precompile()
	return c, full, nil
}
