package extract

import (
	"fmt"
	"io"
	"os"

	"hoiho/internal/atomicfile"
	"hoiho/internal/core"
	"hoiho/internal/corpusbin"
)

// maxLoadBytes caps how much corpus Load will read. The full-scale
// corpora in the paper are a few megabytes; anything near this cap is a
// corrupt or hostile input, and failing loudly beats exhausting memory.
const maxLoadBytes = 64 << 20

// Load reads an HBC binary corpus (see internal/corpusbin; the output
// of `hoiho -save` and SaveFile) and indexes it. The records decode to
// token-form regexes with no regex text parsed, and Load compiles a
// match engine for each convention it keeps (match.Compile, which
// parses and compiles no regex text either), so the corpus is ready to
// serve. Options apply as in New, so a loaded corpus can be filtered
// at load time, e.g. Load(r, UsableOnly()). A corpus that keeps every
// decoded record, in order, adopts the fingerprint Decode verified
// instead of hashing its regexes again (fromVerified).
//
// HBC is the one loadable format. The JSON form (`hoiho -json`, Save)
// is for people to read and is refused here, as is any other input
// without the HBC magic, before any parse. Load is strict: inputs over
// 64 MiB, corrupt or unsupported-version HBC, and corpora with zero
// conventions all return descriptive errors rather than a silently
// empty corpus that would extract nothing. HBC of an older format
// version is refused with an error naming `hoiho -save`.
func Load(r io.Reader, opts ...Option) (*Corpus, error) {
	data, err := io.ReadAll(io.LimitReader(r, maxLoadBytes+1))
	if err != nil {
		return nil, fmt.Errorf("extract: load: %w", err)
	}
	if len(data) > maxLoadBytes {
		return nil, fmt.Errorf("extract: load: input exceeds %d-byte cap", maxLoadBytes)
	}
	if !corpusbin.IsHBC(data) {
		return nil, fmt.Errorf("extract: load: not an HBC corpus (JSON corpora are for reading, not loading); write one with `hoiho -save x.hbc`")
	}
	dec, err := corpusbin.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("extract: load: %w", err)
	}
	if len(dec.NCs) == 0 {
		return nil, fmt.Errorf("extract: load: corpus contains no conventions")
	}
	return fromVerified(dec.NCs, dec.Fingerprint, nil, opts), nil
}

// LoadFile loads an HBC corpus from disk.
func LoadFile(path string, opts ...Option) (*Corpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c, err := Load(f, opts...)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// Save writes the corpus's retained NCs as indented JSON, the form
// people read (the same as `hoiho -json`). Load does not read it back:
// SaveBinary and SaveFile write the loadable form. Note that a corpus
// built with MinClass/UsableOnly saves only the NCs it kept.
func (c *Corpus) Save(w io.Writer) error {
	data, err := core.MarshalNCs(c.ncs)
	if err != nil {
		return fmt.Errorf("extract: save: %w", err)
	}
	if _, err := w.Write(data); err != nil {
		return err
	}
	_, err = w.Write([]byte("\n"))
	return err
}

// SaveBinary writes the corpus in the HBC binary form (see
// internal/corpusbin): the same retained NCs as Save, each regex in
// token form. It compiles nothing; Load compiles the engines.
func (c *Corpus) SaveBinary(w io.Writer) error {
	if err := corpusbin.Encode(w, c.ncs); err != nil {
		return fmt.Errorf("extract: save: %w", err)
	}
	return nil
}

// SaveFile writes the corpus to disk atomically in the HBC binary form,
// whatever the path's extension: the bytes are written to a temp file
// in the destination directory, synced, and renamed over path, so an
// interrupted save never leaves a truncated corpus where a good one
// stood.
func (c *Corpus) SaveFile(path string) error {
	return atomicfile.WriteFile(path, c.SaveBinary)
}
