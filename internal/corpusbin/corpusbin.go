// Package corpusbin implements HBC, Hoiho's versioned binary corpus
// format. A corpus of learned naming conventions is served far more
// often than it is written: every hoihod boot and hot reload must
// re-index, re-parse, and — most expensively — recompile every regex
// from the JSON interchange form. HBC persists what that work produces:
// an interned string table, varint-packed NC records, and the
// internal/match compiled programs in wire form, so decoding reaches
// ready-to-serve state without JSON parsing or matcher recompilation.
//
// JSON remains the interchange format and the correctness oracle:
// encoding a corpus to HBC and decoding it back yields NCs whose JSON
// serialization is byte-identical to the original (regex sources render
// deterministically from their token form, which is what the programs
// serialize alongside).
//
// Layout (all multi-byte scalars little-endian, varints are
// encoding/binary uvarints):
//
//	magic       "HBC" + version byte (0x01)
//	fingerprint u64 — core.FingerprintNCs over the encoded NC list
//	checksum    u64 — FNV-1a over the payload bytes that follow
//	payload:
//	  string table   count, then per string: length + bytes
//	  NC records     count, then per NC:
//	    suffix ref, class byte, single byte, 6 eval uvarints,
//	    regex count + token-form regexes (flags byte, token count,
//	      per token: kind head byte + kind-specific payload),
//	    program count + wire programs (see internal/match WireProgram)
//
// Regexes serialize as rex tokens, not source strings: decoding
// reconstructs them through the rex constructors (which re-validate the
// token sequence) with no regex-syntax parsing at all. Their JSON
// source form renders lazily and deterministically from the tokens, so
// the byte-identity guarantee below is unaffected.
//
// The fingerprint is the same corpus identity extract.Corpus serves in
// its X-Hoiho-Corpus header; Decode recomputes it from the decoded NCs
// and fails on mismatch. The checksum covers the whole payload —
// including the program table and eval counters the fingerprint does
// not — so any single corrupted bit fails the load before anything is
// parsed. The string table is written in first-use order of a
// deterministic record walk, so equal corpora encode byte-identically
// and fingerprints are reproducible.
package corpusbin

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"os"

	"hoiho/internal/core"
	"hoiho/internal/match"
	"hoiho/internal/rex"
)

// Magic prefixes every HBC file: "HBC" plus a format version byte.
// Format sniffers (extract.Load) match on the three-byte prefix so an
// unsupported future version reports a version error, not "not JSON".
var Magic = [4]byte{'H', 'B', 'C', 0x01}

// headerLen is magic + fingerprint + checksum.
const headerLen = 4 + 8 + 8

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
// (one FNV pass, no allocation), so a truncated or bit-flipped corpus
// is rejected here exactly as Decode would reject it; what Peek skips
// is only the parse itself. The cluster rollout coordinator uses this
// to learn the identity of a corpus it is about to ship N times without
// paying N+1 full decodes.
func PeekFingerprint(data []byte) (uint64, error) {
	if !IsHBC(data) || len(data) < headerLen {
		return 0, fmt.Errorf("corpusbin: peek: not an HBC corpus (missing magic)")
	}
	if data[3] != Magic[3] {
		return 0, fmt.Errorf("corpusbin: peek: unsupported HBC version %d (this build reads %d)", data[3], Magic[3])
	}
	wantSum := binary.LittleEndian.Uint64(data[12:])
	if got := checksum(data[headerLen:]); got != wantSum {
		return 0, fmt.Errorf("corpusbin: peek: payload checksum mismatch (corrupt corpus): got %016x want %016x", got, wantSum)
	}
	return binary.LittleEndian.Uint64(data[4:]), nil
}

// PeekFingerprintFile reads path and peeks its fingerprint. Every
// failure — an unreadable file, an empty file, a header truncated below
// headerLen, a corrupt payload — comes back as an error naming the
// path, never as a panic; the rollout journal uses this to identify the
// corpora it has on disk after a coordinator restart.
func PeekFingerprintFile(path string) (uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("corpusbin: peek %s: %w", path, err)
	}
	fp, err := PeekFingerprint(data)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	return fp, nil
}

// NCRecord pairs a convention with the wire form of its compiled
// matcher for encoding.
type NCRecord struct {
	NC       *core.NC
	Programs []match.WireProgram
}

// Decoded is the result of a successful Decode: the conventions in
// encoded order and, aligned with them, each one's wire programs and
// reconstructed match engine, ready to serve without recompilation.
// The programs let a caller re-encode or diff the corpus (Records)
// without building an index over it.
type Decoded struct {
	NCs         []*core.NC
	Programs    [][]match.WireProgram
	Engines     []*match.Engine
	Fingerprint uint64
}

// Records pairs each decoded convention with its wire programs, in
// encoded order: the input Encode and EncodeTarget take.
func (d *Decoded) Records() []NCRecord {
	recs := make([]NCRecord, len(d.NCs))
	for i, nc := range d.NCs {
		recs[i] = NCRecord{NC: nc, Programs: d.Programs[i]}
	}
	return recs
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
func Encode(w io.Writer, recs []NCRecord) error {
	data, err := marshal(recs)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("corpusbin: encode: %w", err)
	}
	return nil
}

// marshal returns the complete HBC file for recs: header, string table,
// records. Encode, the delta encoder's target pass and ApplyDelta all
// produce their full corpus bytes here.
func marshal(recs []NCRecord) ([]byte, error) {
	// Presized for the common shape (a few strings and ~100 encoded
	// bytes per record): map rehashes and body regrowth were measurable
	// on the delta-apply path, which re-encodes the full target file.
	tab := &stringTable{ids: make(map[string]uint64, 4*len(recs))}
	body := make([]byte, 0, 4096+128*len(recs))
	body = binary.AppendUvarint(body, uint64(len(recs)))
	ncs := make([]*core.NC, len(recs))
	for i, rec := range recs {
		var err error
		body, err = appendRecord(body, tab, i, rec)
		if err != nil {
			return nil, err
		}
		ncs[i] = rec.NC
	}

	out := make([]byte, headerLen, headerLen+strTableLen(tab.strs)+len(body))
	copy(out, Magic[:])
	out = appendStrTable(out, tab.strs)
	out = append(out, body...)
	binary.LittleEndian.PutUint64(out[4:], core.FingerprintNCs(ncs))
	binary.LittleEndian.PutUint64(out[12:], checksum(out[headerLen:]))
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
// flag, eval counters, token-form regexes, wire programs — into body,
// interning strings through tab. It is the single record layout shared
// by the full corpus encoder and the HBD delta encoder, so a record
// inserted by a delta is byte-compatible with the full-corpus form.
func appendRecord(body []byte, tab *stringTable, i int, rec NCRecord) ([]byte, error) {
	nc := rec.NC
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
	body = binary.AppendUvarint(body, uint64(len(rec.Programs)))
	for _, p := range rec.Programs {
		var err error
		body, err = appendProgram(body, tab, nc.Suffix, p, len(nc.Regexes))
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

// opFlag bits packed next to the op kind in its head byte.
const (
	opFlagOpt     = 1 << 2
	opFlagCapture = 1 << 3
	opKindMask    = 0x3
)

// program flags.
const (
	progFlagLeftOpen = 1 << 0
	progFlagOracle   = 1 << 1
)

// wire op kinds, mirroring internal/match's opKind order.
const (
	wireOpLit  = 0
	wireOpSet  = 1
	wireOpExcl = 2
	wireOpAlt  = 3
)

func appendProgram(body []byte, tab *stringTable, suffix string, p match.WireProgram, numRegexes int) ([]byte, error) {
	if p.Index < 0 || p.Index >= numRegexes {
		return nil, fmt.Errorf("corpusbin: encode: nc %s: program index %d out of range", suffix, p.Index)
	}
	body = binary.AppendUvarint(body, uint64(p.Index))
	flags := byte(0)
	if p.LeftOpen {
		flags |= progFlagLeftOpen
	}
	if p.Oracle {
		flags |= progFlagOracle
	}
	body = append(body, flags)
	body = binary.AppendUvarint(body, uint64(len(p.Ops)))
	for _, o := range p.Ops {
		if o.Kind > wireOpAlt {
			return nil, fmt.Errorf("corpusbin: encode: nc %s: unknown op kind %d", suffix, o.Kind)
		}
		head := o.Kind
		if o.Opt {
			head |= opFlagOpt
		}
		if o.Capture {
			head |= opFlagCapture
		}
		body = append(body, head)
		switch o.Kind {
		case wireOpLit:
			body = binary.AppendUvarint(body, tab.ref(o.Lit))
		case wireOpSet, wireOpExcl:
			body = binary.AppendUvarint(body, o.Set[0])
			body = binary.AppendUvarint(body, o.Set[1])
		case wireOpAlt:
			body = binary.AppendUvarint(body, uint64(len(o.Alts)))
			for _, a := range o.Alts {
				body = binary.AppendUvarint(body, tab.ref(a))
			}
		}
	}
	return body, nil
}

func checksum(payload []byte) uint64 {
	h := fnv.New64a()
	h.Write(payload)
	return h.Sum64()
}

// decoder is a bounds-checked cursor over the payload. Every read
// method fails closed with an error naming the section and offset —
// decode never panics on any input, however corrupt.
type decoder struct {
	data []byte
	off  int
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

func (d *decoder) bytes(n int, what string) ([]byte, error) {
	if n < 0 || n > d.remaining() {
		return nil, d.errf("%s: %d bytes wanted, %d remain", what, n, d.remaining())
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b, nil
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
// and the fingerprint after, and reconstructs each NC's match engine
// from its serialized programs. Errors are fail-closed and descriptive;
// no input can make Decode panic (FuzzHBCDecode enforces this).
func Decode(data []byte) (*Decoded, error) {
	if len(data) > maxSectionBytes+headerLen {
		return nil, fmt.Errorf("corpusbin: decode: input exceeds %d-byte cap", maxSectionBytes)
	}
	if !IsHBC(data) || len(data) < headerLen {
		return nil, fmt.Errorf("corpusbin: decode: not an HBC corpus (missing magic)")
	}
	if data[3] != Magic[3] {
		return nil, fmt.Errorf("corpusbin: decode: unsupported HBC version %d (this build reads %d)", data[3], Magic[3])
	}
	wantFP := binary.LittleEndian.Uint64(data[4:])
	wantSum := binary.LittleEndian.Uint64(data[12:])
	payload := data[headerLen:]
	if got := checksum(payload); got != wantSum {
		return nil, fmt.Errorf("corpusbin: decode: payload checksum mismatch (corrupt corpus): got %016x want %016x", got, wantSum)
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
	out := &Decoded{
		NCs:         make([]*core.NC, 0, nNCs),
		Programs:    make([][]match.WireProgram, 0, nNCs),
		Engines:     make([]*match.Engine, 0, nNCs),
		Fingerprint: wantFP,
	}
	for i := 0; i < nNCs; i++ {
		rec, eng, err := d.decodeNC(table)
		if err != nil {
			return nil, fmt.Errorf("corpusbin: decode: nc %d: %w", i, err)
		}
		out.NCs = append(out.NCs, rec.NC)
		out.Programs = append(out.Programs, rec.Programs)
		out.Engines = append(out.Engines, eng)
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
// prefix); string headers are 16 bytes.
func (d *decoder) strTable() ([]string, error) {
	nStrs, err := d.count("string table", 1, 16)
	if err != nil {
		return nil, err
	}
	table := make([]string, nStrs)
	for i := range table {
		n, err := d.uvarint("string length")
		if err != nil {
			return nil, err
		}
		if n > uint64(d.remaining()) || n > maxSectionBytes {
			return nil, d.errf("string %d: length %d exceeds remaining input", i, n)
		}
		b, err := d.bytes(int(n), "string bytes")
		if err != nil {
			return nil, err
		}
		table[i] = string(b)
	}
	return table, nil
}

func (d *decoder) decodeNC(table []string) (NCRecord, *match.Engine, error) {
	var rec NCRecord
	nc := &core.NC{}
	var err error
	if nc.Suffix, err = d.str(table, "suffix"); err != nil {
		return rec, nil, err
	}
	if nc.Suffix == "" {
		return rec, nil, d.errf("empty suffix")
	}
	class, err := d.byteVal("class")
	if err != nil {
		return rec, nil, err
	}
	if class > byte(core.Good) {
		return rec, nil, d.errf("unknown class %d", class)
	}
	nc.Class = core.Classification(class)
	single, err := d.byteVal("single flag")
	if err != nil {
		return rec, nil, err
	}
	if single > 1 {
		return rec, nil, d.errf("invalid single flag %d", single)
	}
	nc.Single = single == 1
	evals := [6]*int{&nc.Eval.TP, &nc.Eval.FP, &nc.Eval.FN, &nc.Eval.Matches, &nc.Eval.UniqueTP, &nc.Eval.UniqueExtract}
	for _, dst := range evals {
		v, err := d.uvarint("eval counter")
		if err != nil {
			return rec, nil, err
		}
		if v > 1<<31-1 {
			return rec, nil, d.errf("eval counter %d out of range", v)
		}
		*dst = int(v)
	}

	nRx, err := d.count("regex list", 1, 8)
	if err != nil {
		return rec, nil, err
	}
	nc.Regexes = make([]*rex.Regex, 0, nRx)
	for j := 0; j < nRx; j++ {
		r, err := d.decodeRegex(table)
		if err != nil {
			return rec, nil, fmt.Errorf("corpusbin: decode: regex %d: %w", j, err)
		}
		nc.Regexes = append(nc.Regexes, r)
	}

	nProgs, err := d.count("program list", 3, 64)
	if err != nil {
		return rec, nil, err
	}
	if nProgs > nRx {
		return rec, nil, d.errf("%d programs for %d regexes", nProgs, nRx)
	}
	progs := make([]match.WireProgram, 0, nProgs)
	for j := 0; j < nProgs; j++ {
		p, err := d.decodeProgram(table)
		if err != nil {
			return rec, nil, err
		}
		progs = append(progs, p)
	}
	eng, err := match.EngineFromWire(progs, nc.Regexes)
	if err != nil {
		return rec, nil, d.errf("nc %s: %v", nc.Suffix, err)
	}
	rec.NC = nc
	rec.Programs = progs
	return rec, eng, nil
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
	toks := make([]rex.Token, 0, nToks)
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

func (d *decoder) decodeProgram(table []string) (match.WireProgram, error) {
	var p match.WireProgram
	idx, err := d.uvarint("program index")
	if err != nil {
		return p, err
	}
	if idx > 1<<20 {
		return p, d.errf("program index %d out of range", idx)
	}
	p.Index = int(idx)
	flags, err := d.byteVal("program flags")
	if err != nil {
		return p, err
	}
	if flags&^byte(progFlagLeftOpen|progFlagOracle) != 0 {
		return p, d.errf("unknown program flags %#x", flags)
	}
	p.LeftOpen = flags&progFlagLeftOpen != 0
	p.Oracle = flags&progFlagOracle != 0
	nOps, err := d.count("op list", 2, 64)
	if err != nil {
		return p, err
	}
	p.Ops = make([]match.WireOp, 0, nOps)
	for i := 0; i < nOps; i++ {
		head, err := d.byteVal("op head")
		if err != nil {
			return p, err
		}
		if head&^byte(opKindMask|opFlagOpt|opFlagCapture) != 0 {
			return p, d.errf("unknown op flags %#x", head)
		}
		o := match.WireOp{
			Kind:    head & opKindMask,
			Opt:     head&opFlagOpt != 0,
			Capture: head&opFlagCapture != 0,
		}
		switch o.Kind {
		case wireOpLit:
			if o.Lit, err = d.str(table, "op literal"); err != nil {
				return p, err
			}
		case wireOpSet, wireOpExcl:
			if o.Set[0], err = d.uvarint("op set low"); err != nil {
				return p, err
			}
			if o.Set[1], err = d.uvarint("op set high"); err != nil {
				return p, err
			}
		case wireOpAlt:
			nAlts, err := d.count("alt list", 1, 16)
			if err != nil {
				return p, err
			}
			if nAlts == 0 {
				// EngineFromWire reads an empty alternation as "(?:)";
				// decoding it the same way keeps the decoded programs
				// equal to the engine's Wire(), so re-encoding them
				// yields what a save of the loaded corpus would.
				o.Alts = []string{""}
				break
			}
			o.Alts = make([]string, 0, nAlts)
			for a := 0; a < nAlts; a++ {
				s, err := d.str(table, "alt")
				if err != nil {
					return p, err
				}
				o.Alts = append(o.Alts, s)
			}
		}
		p.Ops = append(p.Ops, o)
	}
	return p, nil
}
