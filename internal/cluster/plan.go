package cluster

// Epoch planning on decoded records. The coordinator never runs a
// lookup, so it plans every epoch at the corpusbin record level: the
// posted target is decoded (every check a node's Load makes on the
// bytes — checksum, fingerprint, token validation), reduced to the
// canonical record list extract.New would index, and encoded once into
// both the full HBC bytes and the HBD patch against the committed base.
// The base lives in memory across epochs as its file bytes plus its
// canonical records indexed by canonical key; when an epoch commits,
// the target's index from that epoch's single encoder pass becomes the
// next base, so a steady stream of epochs never re-reads a base.

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"time"

	"hoiho/internal/core"
	"hoiho/internal/corpusbin"
)

// committedBase is the coordinator's in-memory copy of the journal's
// committed corpus: the file's bytes, which every epoch compares
// against committed.corpus before trusting the cache, and the key index
// of its canonical records, all a full target's diff reads. It holds no
// records or extract.Corpus: decoded records are most of a corpus's
// heap, and the one planning path that needs them, applying a posted
// HBD patch, decodes them from the bytes (records).
type committedBase struct {
	data []byte
	*corpusbin.DeltaBase
}

// records decodes the base's canonical records from its bytes.
func (b *committedBase) records() ([]*core.NC, error) {
	recs, _, err := corpusRecords(b.data)
	return recs, err
}

// targetPlan is the payload half of an epoch plan: what a posted corpus
// becomes once normalized against the committed base.
type targetPlan struct {
	full  []byte // canonical HBC bytes of the target
	delta []byte // HBD patch from the base; nil when none applies
	fp    uint64 // fingerprint of the target's canonical records
	// next is the target as a committed base, installed when the epoch
	// commits.
	next *committedBase
	// decode and encode time the two planning steps: reducing the
	// posted bytes to canonical records, and the encoder pass.
	decode, encode time.Duration
}

// canonicalRecords reduces recs to the list extract.New indexes: the
// last record for a suffix wins and the survivors are sorted by suffix.
// An already strictly sorted list, the form every encoder in this
// repository writes, is returned as is, and asIs reports it.
func canonicalRecords(recs []*core.NC) (out []*core.NC, asIs bool) {
	sorted := true
	for i := 1; i < len(recs) && sorted; i++ {
		sorted = recs[i-1].Suffix < recs[i].Suffix
	}
	if sorted {
		return recs, true
	}
	last := make(map[string]int, len(recs))
	for i, nc := range recs {
		last[nc.Suffix] = i
	}
	out = make([]*core.NC, 0, len(last))
	for i, nc := range recs {
		if last[nc.Suffix] == i {
			out = append(out, nc)
		}
	}
	slices.SortFunc(out, func(a, b *core.NC) int { return strings.Compare(a.Suffix, b.Suffix) })
	return out, false
}

// corpusRecords decodes a full HBC corpus into canonical records and
// their fingerprint: the one Decode verified when the records are left
// as decoded, computed over the reduced list otherwise.
func corpusRecords(data []byte) ([]*core.NC, uint64, error) {
	dec, err := corpusbin.Decode(data)
	if err != nil {
		return nil, 0, err
	}
	if len(dec.NCs) == 0 {
		return nil, 0, fmt.Errorf("cluster: corpus contains no conventions")
	}
	recs, asIs := canonicalRecords(dec.NCs)
	if asIs {
		return recs, dec.Fingerprint, nil
	}
	return recs, core.FingerprintNCs(recs), nil
}

// loadBase decodes and indexes a committed corpus.
func loadBase(data []byte) (*committedBase, error) {
	recs, _, err := corpusRecords(data)
	if err != nil {
		return nil, err
	}
	idx, err := corpusbin.IndexBase(recs)
	if err != nil {
		return nil, err
	}
	return &committedBase{data: data, DeltaBase: idx}, nil
}

// committedBaseFor returns the committed base for the journal's
// committed.corpus bytes: the cached one when its bytes are the file's,
// otherwise decoded and indexed from the file, lazily after boot or
// Resume, and cached. nil data means no corpus was ever committed.
// Callers hold adminMu, which guards the cache.
func (rt *Router) committedBaseFor(data []byte) (*committedBase, error) {
	if data == nil {
		rt.base = nil
		return nil, nil
	}
	if b := rt.base; b != nil && bytes.Equal(b.data, data) {
		return b, nil
	}
	b, err := loadBase(data)
	rt.base = b
	return b, err
}

// planTarget normalizes a posted corpus against base (nil without a
// journal, or when the journal holds no committed corpus). An HBD patch
// is applied to the base's records and shipped as posted; a full HBC
// corpus is decoded and diffed against the base in one encoder pass,
// the patch kept only when the target's fingerprint differs from the
// base's. Every target is fully decoded and validated here, before
// anything is journaled or shipped; anything else (JSON, an empty or
// corrupt body) is refused.
func planTarget(base *committedBase, data []byte) (*targetPlan, error) {
	p := &targetPlan{}
	start := time.Now()
	if corpusbin.IsHBD(data) {
		if base == nil {
			return nil, fmt.Errorf("cluster: rollout: HBD delta posted but there is no committed corpus to patch; start the coordinator with -journal and roll out a full corpus first")
		}
		baseRecs, err := base.records()
		if err != nil {
			return nil, fmt.Errorf("cluster: rollout: committed corpus: %w", err)
		}
		patched, err := corpusbin.ApplyDeltaRecordsFP(baseRecs, base.Fingerprint, data)
		if err != nil {
			return nil, fmt.Errorf("cluster: rollout: %w", err)
		}
		if len(patched.NCs) == 0 {
			return nil, fmt.Errorf("cluster: rollout: HBD delta yields a corpus with no conventions")
		}
		p.decode = time.Since(start)
		start = time.Now()
		recs, _ := canonicalRecords(patched.NCs)
		idx, err := corpusbin.IndexBase(recs)
		if err != nil {
			return nil, fmt.Errorf("cluster: rollout: %w", err)
		}
		p.full, p.delta, p.fp = patched.Full, data, idx.Fingerprint
		p.next = &committedBase{data: patched.Full, DeltaBase: idx}
		p.encode = time.Since(start)
		return p, nil
	}

	recs, fp, err := corpusRecords(data)
	if err != nil {
		return nil, fmt.Errorf("cluster: rollout: target is not a loadable corpus (an HBC corpus from `hoiho -save x.hbc`, or with -journal an HBD patch from `hoiho -diff`): %w", err)
	}
	p.decode = time.Since(start)
	start = time.Now()
	var diffBase *corpusbin.DeltaBase
	if base != nil {
		diffBase = base.DeltaBase
	}
	enc, err := corpusbin.EncodeTarget(diffBase, recs, fp)
	if err != nil {
		return nil, fmt.Errorf("cluster: rollout: %w", err)
	}
	p.full, p.fp = enc.Full, enc.Target.Fingerprint
	if base != nil && base.Fingerprint != p.fp {
		p.delta = enc.Delta
	}
	p.next = &committedBase{data: enc.Full, DeltaBase: enc.Target}
	p.encode = time.Since(start)
	return p, nil
}
