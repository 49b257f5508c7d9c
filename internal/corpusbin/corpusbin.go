// Package corpusbin implements HBC, Hoiho's versioned binary corpus
// format and the one format every corpus reader loads. A learned naming
// convention is its regexes, so HBC stores each one once, as rex
// tokens: an interned string table, then varint-packed NC records.
// Decoding rebuilds every regex through the rex constructors, which
// re-validate the token sequence, with no regex-syntax parsing at all;
// a loader compiles matchers from the decoded tokens (match.Compile),
// which parses and compiles no regex text either.
//
// JSON remains the form people read and the correctness oracle:
// encoding a corpus to HBC and decoding it back yields NCs whose JSON
// serialization is byte-identical to the original (regex sources render
// deterministically from their token form).
//
// Layout (all multi-byte scalars little-endian, varints are
// encoding/binary uvarints):
//
//	magic       "HBC" + version byte (0x02)
//	fingerprint u64 — core.FingerprintNCs over the encoded NC list
//	checksum    u32 — CRC-32C (Castagnoli) over the payload bytes that
//	            follow
//	payload:
//	  string table   count, then per string: length + bytes
//	  NC records     count, then per NC:
//	    suffix ref, class byte, single byte, 6 eval uvarints,
//	    regex count + token-form regexes (flags byte, token count,
//	      per token: kind head byte + kind-specific payload)
//
// Version 1 also stored each NC's compiled match programs and an FNV-1a
// checksum; this build refuses it with an error naming `hoiho -save`,
// which writes the current version.
//
// The fingerprint is the same corpus identity extract.Corpus serves in
// its X-Hoiho-Corpus header; Decode recomputes it from the decoded NCs
// and fails on mismatch. The checksum covers the whole payload —
// including the eval counters the fingerprint does not — so any single
// corrupted bit fails the load before anything is parsed. The string
// table is written in first-use order of a deterministic record walk,
// so equal corpora encode byte-identically and fingerprints are
// reproducible.
package corpusbin

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"hoiho/internal/core"
	"hoiho/internal/rex"
)

// Magic prefixes every HBC file: "HBC" plus a format version byte.
// Format sniffers (extract.Load) match on the three-byte prefix so an
// unsupported future version reports a version error, not "not HBC".
var Magic = [4]byte{'H', 'B', 'C', 0x02}

// headerLen is magic + fingerprint + checksum.
const headerLen = 4 + 8 + 4

// maxSectionBytes caps what any single decoded section may allocate,
// independently of the input's own length prefixes: a hostile count or
// length can never force an allocation larger than this before the
// surrounding data proves it honest. It matches extract.Load's input
// cap so a maximal legitimate corpus still decodes.
const maxSectionBytes = 64 << 20

// IsHBC reports whether data begins with the HBC magic prefix (any
// version).
func IsHBC(data []byte) bool {
	return len(data) >= 3 && data[0] == 'H' && data[1] == 'B' && data[2] == 'C'
}

// PeekFingerprint reads the corpus fingerprint from an HBC header
// without decoding the records. The payload checksum is still verified
// (one CRC-32C pass, no allocation), so a truncated or bit-flipped corpus
// is rejected here exactly as Decode would reject it; what Peek skips
// is only the parse itself. The cluster rollout coordinator uses this
// to learn the identity of a corpus it is about to ship N times without
// paying N+1 full decodes.
func PeekFingerprint(data []byte) (uint64, error) {
	if !IsHBC(data) || len(data) < headerLen {
		return 0, fmt.Errorf("corpusbin: peek: not an HBC corpus (missing magic)")
	}
	if data[3] != Magic[3] {
		return 0, versionError("peek", Magic, data[3])
	}
	wantSum := binary.LittleEndian.Uint32(data[12:])
	if got := checksum(data[headerLen:]); got != wantSum {
		return 0, fmt.Errorf("corpusbin: peek: payload checksum mismatch (corrupt corpus): got %08x want %08x", got, wantSum)
	}
	return binary.LittleEndian.Uint64(data[4:]), nil
}

// versionError refuses bytes of a format version this build does not
// read (magic's own is the one it reads), naming the commands that
// write the current one.
func versionError(op string, magic [4]byte, got byte) error {
	hint := "write a current corpus with `hoiho -save x.hbc`"
	if magic == DeltaMagic {
		hint = "diff corpora written by `hoiho -save x.hbc` with `hoiho -diff`"
	}
	return fmt.Errorf("corpusbin: %s: unsupported %s version %d (this build reads %d); %s", op, magic[:3], got, magic[3], hint)
}

// Decoded is the result of a successful Decode: the conventions in
// encoded order and the fingerprint verified over them.
type Decoded struct {
	NCs         []*core.NC
	Fingerprint uint64
}

// stringTable interns strings in first-use order during encoding.
type stringTable struct {
	ids  map[string]uint64
	strs []string
}

func (t *stringTable) ref(s string) uint64 {
	if id, ok := t.ids[s]; ok {
		return id
	}
	id := uint64(len(t.strs))
	t.ids[s] = id
	t.strs = append(t.strs, s)
	return id
}

// Encode writes the corpus in HBC form. The record order is preserved
// (callers pass suffix-sorted lists, matching the JSON form), and every
// walk below is deterministic, so equal corpora encode byte-identically.
func Encode(w io.Writer, ncs []*core.NC) error {
	data, err := marshal(ncs, 0, false)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("corpusbin: encode: %w", err)
	}
	return nil
}

// marshal returns the complete HBC file for ncs: header, string table,
// records. Encode, the delta encoder's target pass and ApplyDelta all
// produce their full corpus bytes here. The header's fingerprint is fp
// when attested is set — a core.FingerprintNCs over ncs the caller has
// verified — and computed over them otherwise. The header's checksum
// is the one hash of the file an encode pays: the delta encoder and
// ApplyDelta read it back as the target's file sum.
func marshal(ncs []*core.NC, fp uint64, attested bool) ([]byte, error) {
	// Presized for the common shape (a few strings and ~60 encoded
	// bytes per record): map rehashes and body regrowth were measurable
	// on the delta-apply path, which re-encodes the full target file.
	tab := &stringTable{ids: make(map[string]uint64, 4*len(ncs))}
	body := make([]byte, 0, 4096+64*len(ncs))
	body = binary.AppendUvarint(body, uint64(len(ncs)))
	for i, nc := range ncs {
		var err error
		body, err = appendRecord(body, tab, i, nc)
		if err != nil {
			return nil, err
		}
	}
	if !attested {
		fp = core.FingerprintNCs(ncs)
	}

	out := make([]byte, headerLen, headerLen+strTableLen(tab.strs)+len(body))
	copy(out, Magic[:])
	out = appendStrTable(out, tab.strs)
	out = append(out, body...)
	binary.LittleEndian.PutUint64(out[4:], fp)
	binary.LittleEndian.PutUint32(out[12:], checksum(out[headerLen:]))
	return out, nil
}

// appendStrTable appends the interned string table that opens every HBC
// and HBD payload: count, then per string its length and bytes.
func appendStrTable(dst []byte, strs []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(strs)))
	for _, s := range strs {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	return dst
}

// strTableLen is the encoded size of appendStrTable's output.
func strTableLen(strs []string) int {
	var scratch [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(scratch[:], uint64(len(strs)))
	for _, s := range strs {
		n += binary.PutUvarint(scratch[:], uint64(len(s))) + len(s)
	}
	return n
}

// appendRecord serializes one NC record — suffix ref, class, single
// flag, eval counters, token-form regexes — into body, interning
// strings through tab. It is the single record layout shared by the
// full corpus encoder and the HBD delta encoder, so a record inserted
// by a delta is byte-compatible with the full-corpus form.
func appendRecord(body []byte, tab *stringTable, i int, nc *core.NC) ([]byte, error) {
	if nc == nil || nc.Suffix == "" {
		return nil, fmt.Errorf("corpusbin: encode: record %d has no suffix", i)
	}
	body = binary.AppendUvarint(body, tab.ref(nc.Suffix))
	body = append(body, byte(nc.Class))
	single := byte(0)
	if nc.Single {
		single = 1
	}
	body = append(body, single)
	for _, v := range [6]int{nc.Eval.TP, nc.Eval.FP, nc.Eval.FN, nc.Eval.Matches, nc.Eval.UniqueTP, nc.Eval.UniqueExtract} {
		if v < 0 {
			return nil, fmt.Errorf("corpusbin: encode: nc %s: negative eval counter", nc.Suffix)
		}
		body = binary.AppendUvarint(body, uint64(v))
	}
	body = binary.AppendUvarint(body, uint64(len(nc.Regexes)))
	for j, r := range nc.Regexes {
		var err error
		body, err = appendRegex(body, tab, nc.Suffix, j, r)
		if err != nil {
			return nil, err
		}
	}
	return body, nil
}

// regex flags.
const rexFlagLeftOpen = 1 << 0

// token head byte: the rex.Kind in the low 3 bits, the Alt opt marker
// above it.
const (
	tokKindMask = 0x7
	tokFlagOpt  = 1 << 3
)

// appendRegex serializes one regex in token form.
func appendRegex(body []byte, tab *stringTable, suffix string, j int, r *rex.Regex) ([]byte, error) {
	if r == nil {
		return nil, fmt.Errorf("corpusbin: encode: nc %s: regex %d is nil", suffix, j)
	}
	flags := byte(0)
	if r.LeftOpen() {
		flags |= rexFlagLeftOpen
	}
	body = append(body, flags)
	n := r.NumTokens()
	body = binary.AppendUvarint(body, uint64(n))
	for k := 0; k < n; k++ {
		t := r.Token(k)
		if t.Kind > rex.KindCaptureAlpha {
			return nil, fmt.Errorf("corpusbin: encode: nc %s: regex %d: unknown token kind %d", suffix, j, t.Kind)
		}
		head := byte(t.Kind)
		if t.Opt {
			head |= tokFlagOpt
		}
		body = append(body, head)
		switch t.Kind {
		case rex.KindLit:
			body = binary.AppendUvarint(body, tab.ref(t.Lit))
		case rex.KindExcl:
			body = binary.AppendUvarint(body, tab.ref(t.Excl))
		case rex.KindClass:
			body = append(body, byte(t.Class))
		case rex.KindAlt:
			body = binary.AppendUvarint(body, uint64(len(t.Alts)))
			for _, a := range t.Alts {
				body = binary.AppendUvarint(body, tab.ref(a))
			}
		}
	}
	return body, nil
}

// castagnoli is the CRC-32C table; hash/crc32 computes it with the
// SSE4.2 instruction where the CPU has one.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum is the HBC and HBD payload checksum, CRC-32C. It detects
// every single-bit error, and every burst of up to 32 bits, by
// construction.
func checksum(payload []byte) uint32 {
	return crc32.Checksum(payload, castagnoli)
}

// decoder is a bounds-checked cursor over the payload. Every read
// method fails closed with an error naming the section and offset —
// decode never panics on any input, however corrupt.
type decoder struct {
	data []byte
	off  int
	// toks is decodeRegex's scratch token list, reused for every regex:
	// the rex constructors copy the tokens they keep.
	toks []rex.Token
}

func (d *decoder) remaining() int { return len(d.data) - d.off }

func (d *decoder) errf(format string, args ...any) error {
	return fmt.Errorf("corpusbin: decode: offset %d: %s", d.off, fmt.Sprintf(format, args...))
}

func (d *decoder) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		return 0, d.errf("%s: truncated or overlong varint", what)
	}
	d.off += n
	return v, nil
}

// count reads a length-prefix and validates it against both the bytes
// actually remaining (each counted item costs at least minItemBytes of
// input) and the per-section allocation cap, so a hostile prefix can
// never force a giant allocation.
func (d *decoder) count(what string, minItemBytes, itemSize int) (int, error) {
	v, err := d.uvarint(what)
	if err != nil {
		return 0, err
	}
	if v > uint64(d.remaining()/minItemBytes) {
		return 0, d.errf("%s: count %d exceeds remaining input", what, v)
	}
	if v > uint64(maxSectionBytes/itemSize) {
		return 0, d.errf("%s: count %d exceeds section cap", what, v)
	}
	return int(v), nil
}

func (d *decoder) byteVal(what string) (byte, error) {
	if d.remaining() < 1 {
		return 0, d.errf("%s: truncated", what)
	}
	b := d.data[d.off]
	d.off++
	return b, nil
}

func (d *decoder) str(table []string, what string) (string, error) {
	ref, err := d.uvarint(what)
	if err != nil {
		return "", err
	}
	if ref >= uint64(len(table)) {
		return "", d.errf("%s: string ref %d out of range (table has %d)", what, ref, len(table))
	}
	return table[ref], nil
}

// Decode parses an HBC corpus, verifying the checksum before parsing
// and the fingerprint after. It builds no match engines: a loader
// compiles those for the conventions it keeps. Errors are fail-closed
// and descriptive; no input can make Decode panic (FuzzHBCDecode
// enforces this).
func Decode(data []byte) (*Decoded, error) {
	if len(data) > maxSectionBytes+headerLen {
		return nil, fmt.Errorf("corpusbin: decode: input exceeds %d-byte cap", maxSectionBytes)
	}
	if !IsHBC(data) || len(data) < headerLen {
		return nil, fmt.Errorf("corpusbin: decode: not an HBC corpus (missing magic)")
	}
	if data[3] != Magic[3] {
		return nil, versionError("decode", Magic, data[3])
	}
	wantFP := binary.LittleEndian.Uint64(data[4:])
	wantSum := binary.LittleEndian.Uint32(data[12:])
	payload := data[headerLen:]
	if got := checksum(payload); got != wantSum {
		return nil, fmt.Errorf("corpusbin: decode: payload checksum mismatch (corrupt corpus): got %08x want %08x", got, wantSum)
	}

	d := &decoder{data: payload}
	table, err := d.strTable()
	if err != nil {
		return nil, err
	}

	// NC records.
	nNCs, err := d.count("nc table", 10, 256)
	if err != nil {
		return nil, err
	}
	out := &Decoded{NCs: make([]*core.NC, 0, nNCs), Fingerprint: wantFP}
	for i := 0; i < nNCs; i++ {
		nc, err := d.decodeNC(table)
		if err != nil {
			return nil, fmt.Errorf("corpusbin: decode: nc %d: %w", i, err)
		}
		out.NCs = append(out.NCs, nc)
	}
	if d.remaining() != 0 {
		return nil, d.errf("%d trailing bytes after last record", d.remaining())
	}
	if got := core.FingerprintNCs(out.NCs); got != wantFP {
		return nil, fmt.Errorf("corpusbin: decode: fingerprint mismatch: decoded %016x, header %016x", got, wantFP)
	}
	return out, nil
}

// strTable reads the interned string table that opens every HBC and
// HBD payload. Each entry costs at least one byte of input (its length
// prefix); string headers are 16 bytes. One copy of the table's bytes
// backs every entry, so a table costs two allocations however many
// strings it holds.
func (d *decoder) strTable() ([]string, error) {
	nStrs, err := d.count("string table", 1, 16)
	if err != nil {
		return nil, err
	}
	start := d.off
	for i := 0; i < nStrs; i++ {
		n, err := d.uvarint("string length")
		if err != nil {
			return nil, err
		}
		if n > uint64(d.remaining()) || n > maxSectionBytes {
			return nil, d.errf("string %d: length %d exceeds remaining input", i, n)
		}
		d.off += int(n)
	}
	arena := string(d.data[start:d.off])
	table := make([]string, nStrs)
	off := 0
	for i := range table {
		n, w := binary.Uvarint(d.data[start+off:]) // validated above
		off += w
		table[i] = arena[off : off+int(n)]
		off += int(n)
	}
	return table, nil
}

func (d *decoder) decodeNC(table []string) (*core.NC, error) {
	nc := &core.NC{}
	var err error
	if nc.Suffix, err = d.str(table, "suffix"); err != nil {
		return nil, err
	}
	if nc.Suffix == "" {
		return nil, d.errf("empty suffix")
	}
	class, err := d.byteVal("class")
	if err != nil {
		return nil, err
	}
	if class > byte(core.Good) {
		return nil, d.errf("unknown class %d", class)
	}
	nc.Class = core.Classification(class)
	single, err := d.byteVal("single flag")
	if err != nil {
		return nil, err
	}
	if single > 1 {
		return nil, d.errf("invalid single flag %d", single)
	}
	nc.Single = single == 1
	evals := [6]*int{&nc.Eval.TP, &nc.Eval.FP, &nc.Eval.FN, &nc.Eval.Matches, &nc.Eval.UniqueTP, &nc.Eval.UniqueExtract}
	for _, dst := range evals {
		v, err := d.uvarint("eval counter")
		if err != nil {
			return nil, err
		}
		if v > 1<<31-1 {
			return nil, d.errf("eval counter %d out of range", v)
		}
		*dst = int(v)
	}

	nRx, err := d.count("regex list", 1, 8)
	if err != nil {
		return nil, err
	}
	nc.Regexes = make([]*rex.Regex, 0, nRx)
	for j := 0; j < nRx; j++ {
		r, err := d.decodeRegex(table)
		if err != nil {
			return nil, fmt.Errorf("corpusbin: decode: regex %d: %w", j, err)
		}
		nc.Regexes = append(nc.Regexes, r)
	}
	return nc, nil
}

// decodeRegex reads one token-form regex and rebuilds it through the
// rex constructors, which re-validate the token sequence (exactly one
// capture, at most one ".+"), so a corrupt or hostile record cannot
// smuggle in a regex the learner could never have produced.
func (d *decoder) decodeRegex(table []string) (*rex.Regex, error) {
	flags, err := d.byteVal("regex flags")
	if err != nil {
		return nil, err
	}
	if flags&^byte(rexFlagLeftOpen) != 0 {
		return nil, d.errf("unknown regex flags %#x", flags)
	}
	nToks, err := d.count("token list", 1, 80)
	if err != nil {
		return nil, err
	}
	toks := d.toks[:0]
	for i := 0; i < nToks; i++ {
		head, err := d.byteVal("token head")
		if err != nil {
			return nil, err
		}
		if head&^byte(tokKindMask|tokFlagOpt) != 0 {
			return nil, d.errf("unknown token flags %#x", head)
		}
		kind := rex.Kind(head & tokKindMask)
		if kind > rex.KindCaptureAlpha {
			return nil, d.errf("unknown token kind %d", kind)
		}
		opt := head&tokFlagOpt != 0
		if opt && kind != rex.KindAlt {
			return nil, d.errf("opt flag on non-alternation token kind %d", kind)
		}
		t := rex.Token{Kind: kind, Opt: opt}
		switch kind {
		case rex.KindLit:
			if t.Lit, err = d.str(table, "token literal"); err != nil {
				return nil, err
			}
		case rex.KindExcl:
			if t.Excl, err = d.str(table, "token exclusion"); err != nil {
				return nil, err
			}
			if t.Excl == "" {
				return nil, d.errf("empty exclusion class")
			}
		case rex.KindClass:
			class, err := d.byteVal("token class")
			if err != nil {
				return nil, err
			}
			if class > byte(rex.ClassAlnum) {
				return nil, d.errf("unknown character class %d", class)
			}
			t.Class = rex.Class(class)
		case rex.KindAlt:
			nAlts, err := d.count("token alt list", 1, 16)
			if err != nil {
				return nil, err
			}
			t.Alts = make([]string, 0, nAlts)
			for a := 0; a < nAlts; a++ {
				s, err := d.str(table, "token alt")
				if err != nil {
					return nil, err
				}
				t.Alts = append(t.Alts, s)
			}
		}
		toks = append(toks, t)
	}
	d.toks = toks
	var r *rex.Regex
	if flags&rexFlagLeftOpen != 0 {
		r, err = rex.NewOpen(toks...)
	} else {
		r, err = rex.New(toks...)
	}
	if err != nil {
		return nil, d.errf("invalid token sequence: %v", err)
	}
	return r, nil
}
