package extract

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"hoiho/internal/atomicfile"
	"hoiho/internal/core"
	"hoiho/internal/corpusbin"
	"hoiho/internal/match"
)

// maxLoadBytes caps how much corpus JSON Load will read. The full-scale
// corpora in the paper are a few megabytes; anything near this cap is a
// corrupt or hostile input, and failing loudly beats exhausting memory.
const maxLoadBytes = 64 << 20

// corpusEnvelope is the optional versioned wrapper form. Corpus.Save
// writes the bare NC array (the stable form every existing consumer
// reads); Load additionally accepts this envelope so future writers can
// version the format without breaking today's readers.
type corpusEnvelope struct {
	Version int             `json:"version"`
	NCs     json.RawMessage `json:"ncs"`
}

// corpusVersion is the only envelope version this build reads.
const corpusVersion = 1

// Load reads a corpus and indexes it, sniffing the format by leading
// bytes: an HBC binary corpus (the "HBC" magic, see internal/corpusbin)
// decodes straight to ready-to-serve state with no JSON parsing or
// matcher recompilation; anything else is the stable NC JSON form (the
// output of `hoiho -json` / `hoiho -save` / Corpus.Save). Options apply
// as in New, so a loaded corpus can be filtered at load time, e.g.
// Load(r, UsableOnly()).
//
// Load is strict: inputs over 64 MiB, non-corpus JSON, corrupt or
// unsupported-version HBC, and corpora with zero conventions all return
// descriptive errors rather than a silently empty corpus that would
// extract nothing.
func Load(r io.Reader, opts ...Option) (*Corpus, error) {
	data, err := io.ReadAll(io.LimitReader(r, maxLoadBytes+1))
	if err != nil {
		return nil, fmt.Errorf("extract: load: %w", err)
	}
	if len(data) > maxLoadBytes {
		return nil, fmt.Errorf("extract: load: input exceeds %d-byte cap", maxLoadBytes)
	}
	if corpusbin.IsHBC(data) {
		return loadHBC(data, opts...)
	}
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("extract: load: empty input")
	}
	if trimmed[0] == '{' {
		var env corpusEnvelope
		if err := json.Unmarshal(trimmed, &env); err != nil {
			return nil, fmt.Errorf("extract: load: not a corpus file: %w", err)
		}
		if env.Version != corpusVersion {
			return nil, fmt.Errorf("extract: load: unsupported corpus version %d (this build reads %d)",
				env.Version, corpusVersion)
		}
		if len(env.NCs) == 0 {
			return nil, fmt.Errorf("extract: load: corpus envelope has no %q field", "ncs")
		}
		trimmed = env.NCs
	}
	ncs, err := core.UnmarshalNCs(trimmed)
	if err != nil {
		return nil, fmt.Errorf("extract: load: %w", err)
	}
	if len(ncs) == 0 {
		return nil, fmt.Errorf("extract: load: corpus contains no conventions")
	}
	for i, nc := range ncs {
		if nc == nil || nc.Suffix == "" {
			return nil, fmt.Errorf("extract: load: convention %d has no suffix", i)
		}
	}
	c := New(ncs, opts...)
	// A loaded corpus is about to serve: pay matcher compilation here,
	// once, instead of on the first request per suffix.
	c.Precompile()
	return c, nil
}

// loadHBC indexes a decoded binary corpus, pre-arming each entry with
// its deserialized engine so Precompile has nothing left to compile.
// MinClass filtering simply drops the filtered entries' engines along
// with their NCs.
func loadHBC(data []byte, opts ...Option) (*Corpus, error) {
	dec, err := corpusbin.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("extract: load: %w", err)
	}
	if len(dec.NCs) == 0 {
		return nil, fmt.Errorf("extract: load: corpus contains no conventions")
	}
	c := New(dec.NCs, opts...)
	for i, nc := range dec.NCs {
		e, ok := c.entries[nc.Suffix]
		if !ok || e.nc != nc || dec.Engines[i] == nil {
			continue // filtered out, or superseded by a later duplicate
		}
		// Single-threaded: the corpus is not shared until Load returns.
		e.eng = dec.Engines[i]
	}
	c.Precompile()
	return c, nil
}

// LoadFile loads a corpus (JSON or HBC, sniffed by content) from disk.
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

// Save writes the corpus's retained NCs as indented JSON, the stable form
// any consumer (or a later Load) can re-index. Note that a corpus built
// with MinClass/UsableOnly saves only the NCs it kept.
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
// internal/corpusbin): the same retained NCs as Save, plus each one's
// compiled match programs, so a later Load reaches ready-to-serve state
// without recompiling. Already-compiled engines are reused; suffixes
// whose engine was never built compile here, once.
func (c *Corpus) SaveBinary(w io.Writer) error {
	if err := corpusbin.Encode(w, c.binaryRecords()); err != nil {
		return fmt.Errorf("extract: save: %w", err)
	}
	return nil
}

// compiledEngine returns nc's compiled engine, reusing the entry's when
// it has been built.
func (c *Corpus) compiledEngine(nc *core.NC) *match.Engine {
	if e, ok := c.entries[nc.Suffix]; ok && e.nc == nc && e.eng != nil {
		return e.eng
	}
	return match.Compile(nc.Regexes)
}

// SaveFile writes the corpus to disk atomically: the bytes are written
// to a temp file in the destination directory, synced, and renamed over
// path, so an interrupted save never leaves a truncated corpus where a
// good one stood. A path ending in ".hbc" selects the HBC binary form;
// anything else writes the stable JSON form.
func (c *Corpus) SaveFile(path string) error {
	if strings.HasSuffix(path, ".hbc") {
		return atomicfile.WriteFile(path, c.SaveBinary)
	}
	return atomicfile.WriteFile(path, c.Save)
}

// SaveFileBinary writes the corpus to disk atomically in the HBC binary
// form regardless of extension.
func (c *Corpus) SaveFileBinary(path string) error {
	return atomicfile.WriteFile(path, c.SaveBinary)
}

// SaveFileJSON writes the corpus to disk atomically in the stable JSON
// form regardless of extension.
func (c *Corpus) SaveFileJSON(path string) error {
	return atomicfile.WriteFile(path, c.Save)
}
