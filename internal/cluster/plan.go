package cluster

// Epoch planning on decoded records. The coordinator never runs a
// lookup, so it plans every epoch at the corpusbin record level: the
// posted target is decoded (every check kept — checksum, fingerprint,
// token validation, EngineFromWire on each record), reduced to the
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

	"hoiho/internal/corpusbin"
	"hoiho/internal/extract"
)

// committedBase is the coordinator's in-memory copy of the journal's
// committed corpus: the file's bytes, which every epoch compares
// against committed.corpus before trusting the cache, and the key index
// of its canonical records, all a full target's diff reads. It holds no
// records, match engines or extract.Corpus: decoded records are most of
// a corpus's heap, and the one planning path that needs them, applying
// a posted HBD patch, decodes them from the bytes (records).
type committedBase struct {
	data []byte
	*corpusbin.DeltaBase
}

// records decodes the base's canonical records from its bytes.
func (b *committedBase) records() ([]corpusbin.NCRecord, error) {
	return corpusRecords(b.data)
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
// repository writes, is returned as is.
func canonicalRecords(recs []corpusbin.NCRecord) []corpusbin.NCRecord {
	sorted := true
	for i := 1; i < len(recs) && sorted; i++ {
		sorted = recs[i-1].NC.Suffix < recs[i].NC.Suffix
	}
	if sorted {
		return recs
	}
	last := make(map[string]int, len(recs))
	for i, rec := range recs {
		last[rec.NC.Suffix] = i
	}
	out := make([]corpusbin.NCRecord, 0, len(last))
	for i, rec := range recs {
		if last[rec.NC.Suffix] == i {
			out = append(out, rec)
		}
	}
	slices.SortFunc(out, func(a, b corpusbin.NCRecord) int { return strings.Compare(a.NC.Suffix, b.NC.Suffix) })
	return out
}

// corpusRecords decodes a full corpus, HBC or JSON, into canonical
// records. HBC decodes directly; JSON pays extract.Load and SaveBinary
// to gain the compiled programs HBC carries, then decodes that.
func corpusRecords(data []byte) ([]corpusbin.NCRecord, error) {
	if !corpusbin.IsHBC(data) {
		c, err := extract.Load(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := c.SaveBinary(&buf); err != nil {
			return nil, err
		}
		data = buf.Bytes()
	}
	dec, err := corpusbin.Decode(data)
	if err != nil {
		return nil, err
	}
	if len(dec.NCs) == 0 {
		return nil, fmt.Errorf("cluster: corpus contains no conventions")
	}
	return canonicalRecords(dec.Records()), nil
}

// loadBase decodes and indexes a committed corpus.
func loadBase(data []byte) (*committedBase, error) {
	recs, err := corpusRecords(data)
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

// planTarget normalizes a posted corpus against base (nil when the
// journal holds no committed corpus). An HBD patch is applied to the
// base's records and shipped as posted; a full corpus is decoded and
// diffed against the base in one encoder pass, the patch kept only when
// the target's fingerprint differs from the base's. Every target is
// fully decoded and validated here, before anything is journaled or
// shipped.
func planTarget(base *committedBase, data []byte) (*targetPlan, error) {
	p := &targetPlan{}
	start := time.Now()
	if corpusbin.IsHBD(data) {
		if base == nil {
			return nil, fmt.Errorf("cluster: rollout: HBD delta posted but the journal holds no committed corpus to patch")
		}
		baseRecs, err := base.records()
		if err != nil {
			return nil, fmt.Errorf("cluster: rollout: committed corpus: %w", err)
		}
		full, recs, _, err := corpusbin.ApplyDeltaRecordsFP(baseRecs, base.Fingerprint, data)
		if err != nil {
			return nil, fmt.Errorf("cluster: rollout: %w", err)
		}
		if len(recs) == 0 {
			return nil, fmt.Errorf("cluster: rollout: HBD delta yields a corpus with no conventions")
		}
		p.decode = time.Since(start)
		start = time.Now()
		idx, err := corpusbin.IndexBase(canonicalRecords(recs))
		if err != nil {
			return nil, fmt.Errorf("cluster: rollout: %w", err)
		}
		p.full, p.delta, p.fp = full, data, idx.Fingerprint
		p.next = &committedBase{data: full, DeltaBase: idx}
		p.encode = time.Since(start)
		return p, nil
	}

	recs, err := corpusRecords(data)
	if err != nil {
		return nil, fmt.Errorf("cluster: rollout: target corpus does not load: %w", err)
	}
	p.decode = time.Since(start)
	start = time.Now()
	var diffBase *corpusbin.DeltaBase
	if base != nil {
		diffBase = base.DeltaBase
	}
	enc, err := corpusbin.EncodeTarget(diffBase, recs)
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
