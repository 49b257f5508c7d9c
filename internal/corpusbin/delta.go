// HBD, Hoiho's binary corpus delta format. A production cluster ships
// corpus updates constantly, and era-over-era relearning changes only a
// handful of conventions at a time — yet the PR 9 rollout ships the
// full corpus to every node's side buffer on every epoch. HBD ships
// only what changed: a per-record diff over the interned HBC layout, so
// a node holding the base corpus can reassemble the target corpus
// byte-for-byte from a patch that is usually a small fraction of the
// full file.
//
// Layout (all multi-byte scalars little-endian, varints are
// encoding/binary uvarints):
//
//	magic            "HBD" + version byte (0x01)
//	base fingerprint u64 — core.FingerprintNCs of the corpus the delta
//	                  applies to (the chain's tail)
//	target fp        u64 — fingerprint of the corpus the delta produces
//	target file sum  u64 — FNV-1a over the complete target HBC file
//	                  bytes, pinning byte-identity of the applied result
//	checksum         u64 — FNV-1a over the payload bytes that follow
//	payload:
//	  string table   count, then per string: length + bytes (interned
//	                 from inserted records, first-use order)
//	  base count     uvarint — how many records the base must have
//	  op count       uvarint, then per op a head byte:
//	    0 = copy     uvarint base record index
//	    1 = insert   one inline NC record, exactly the HBC record layout
//
// The op list is the target corpus in order: base records never copied
// are the removals, an inserted record whose suffix exists in the base
// is a replacement, and an inserted record with a new suffix is an
// addition. The chain (base fingerprint → target fingerprint) makes a
// patch self-describing: ApplyDelta refuses to run against any corpus
// other than the one the patch was diffed from, and the target file sum
// catches any divergence — in eval counters or compiled programs — that
// the NC fingerprint alone cannot see. Decode is fail-closed exactly
// like HBC: bit flips and truncations are rejected before anything is
// parsed, and no input can cause a panic (FuzzHBDDecode enforces this).
package corpusbin

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"hoiho/internal/core"
	"hoiho/internal/faultinject"
	"hoiho/internal/match"
)

// DeltaMagic prefixes every HBD file: "HBD" plus a format version byte.
// Sniffers match on the three-byte prefix so an unsupported future
// version reports a version error, not "not a delta".
var DeltaMagic = [4]byte{'H', 'B', 'D', 0x01}

// deltaHeaderLen is magic + base fingerprint + target fingerprint +
// target file sum + payload checksum.
const deltaHeaderLen = 4 + 8 + 8 + 8 + 8

// delta op kinds.
const (
	deltaOpCopy   = 0
	deltaOpInsert = 1
)

// ErrDeltaBaseMismatch is returned (wrapped) by ApplyDelta when the
// base corpus's fingerprint does not match the delta's chain: the patch
// was diffed from a different corpus than the one it is being applied
// to. The serve layer maps this to a rollout nack so the coordinator
// can fall back to a full-corpus resend for just that node.
var ErrDeltaBaseMismatch = errors.New("delta base fingerprint mismatch")

// ErrDeltaResultMismatch is returned (wrapped) by ApplyDelta when the
// patched corpus does not reproduce the chain's target — its
// fingerprint or its full-file checksum diverges from what the delta
// promised. A delta that decodes cleanly but assembles the wrong bytes
// is rejected here, before any caller can observe the wrong corpus.
var ErrDeltaResultMismatch = errors.New("delta result mismatch")

// IsHBD reports whether data begins with the HBD magic prefix (any
// version).
func IsHBD(data []byte) bool {
	return len(data) >= 3 && data[0] == 'H' && data[1] == 'B' && data[2] == 'D'
}

// DeltaChain is the fingerprint pair a delta patches between.
type DeltaChain struct {
	Base   uint64
	Target uint64
}

// PeekDeltaChain reads the chain from an HBD header without decoding
// the ops. The payload checksum is verified (one FNV pass), so a
// truncated or bit-flipped delta is rejected here exactly as ApplyDelta
// would reject it. The rollout coordinator uses this to learn which
// base a patch wants before choosing delta-vs-full per node.
func PeekDeltaChain(data []byte) (DeltaChain, error) {
	if !IsHBD(data) || len(data) < deltaHeaderLen {
		return DeltaChain{}, fmt.Errorf("corpusbin: peek delta: not an HBD delta (missing magic)")
	}
	if data[3] != DeltaMagic[3] {
		return DeltaChain{}, fmt.Errorf("corpusbin: peek delta: unsupported HBD version %d (this build reads %d)", data[3], DeltaMagic[3])
	}
	wantSum := binary.LittleEndian.Uint64(data[28:])
	if got := checksum(data[deltaHeaderLen:]); got != wantSum {
		return DeltaChain{}, fmt.Errorf("corpusbin: peek delta: payload checksum mismatch (corrupt delta): got %016x want %016x", got, wantSum)
	}
	return DeltaChain{
		Base:   binary.LittleEndian.Uint64(data[4:]),
		Target: binary.LittleEndian.Uint64(data[12:]),
	}, nil
}

// DeltaBase is a corpus indexed as the base of HBD deltas: its
// fingerprint, its record count, and each record's canonical key mapped
// to its first position. It keeps no records, so holding one across
// epochs costs the keys alone. Build one with IndexBase, or take an
// earlier EncodeTarget's Target to chain corpora without indexing
// twice. A DeltaBase is read-only once built and safe to share.
type DeltaBase struct {
	Fingerprint uint64
	count       int
	index       map[string]int
}

// keyIndexer collects the canonical keys of a record walk. A record's
// key is the record encoded with a private string table — table then
// body, the same mini-payload layout as a one-record corpus — so two
// records share a key iff they encode identically: any change to a
// record (an eval counter, a program op, a regex token) makes it
// "different" even when the NC fingerprint would not notice. The
// private table and body buffer are reused for every record, and the
// keys go into one arena, so a finished index costs one string and one
// map however many records it holds.
type keyIndexer struct {
	tab   stringTable
	body  []byte
	arena []byte
	ends  []int
}

func newKeyIndexer(n int) *keyIndexer {
	return &keyIndexer{
		tab:   stringTable{ids: make(map[string]uint64)},
		arena: make([]byte, 0, 192*n),
		ends:  make([]int, 0, n),
	}
}

// add appends record i's key and returns it, valid until the next add.
func (x *keyIndexer) add(i int, rec NCRecord) ([]byte, error) {
	clear(x.tab.ids)
	x.tab.strs = x.tab.strs[:0]
	body, err := appendRecord(x.body[:0], &x.tab, i, rec)
	if err != nil {
		return nil, err
	}
	x.body = body
	start := len(x.arena)
	x.arena = append(appendStrTable(x.arena, x.tab.strs), body...)
	x.ends = append(x.ends, len(x.arena))
	return x.arena[start:], nil
}

func (x *keyIndexer) finish(fp uint64) *DeltaBase {
	keys := string(x.arena)
	index := make(map[string]int, len(x.ends))
	start := 0
	for i, end := range x.ends {
		if _, ok := index[keys[start:end]]; !ok {
			index[keys[start:end]] = i
		}
		start = end
	}
	return &DeltaBase{Fingerprint: fp, count: len(x.ends), index: index}
}

// IndexBase indexes recs, in order, as a delta base.
func IndexBase(recs []NCRecord) (*DeltaBase, error) {
	ix := newKeyIndexer(len(recs))
	ncs := make([]*core.NC, len(recs))
	for i, rec := range recs {
		if _, err := ix.add(i, rec); err != nil {
			return nil, fmt.Errorf("corpusbin: index base: %w", err)
		}
		ncs[i] = rec.NC
	}
	return ix.finish(core.FingerprintNCs(ncs)), nil
}

// Encoded is one encoder pass over a target corpus.
type Encoded struct {
	// Full is the complete HBC file of the target, byte-identical to
	// Encode's output.
	Full []byte
	// Delta is the HBD patch from the pass's base to the target; nil
	// when the pass had no base.
	Delta []byte
	// Target is the target indexed as a delta base, ready to diff the
	// next corpus against.
	Target *DeltaBase
}

// EncodeTarget encodes target once and, when base is non-nil, diffs it
// against base in the same pass: each target record's canonical key is
// looked up in the base index, a hit becoming a copy op and a miss an
// inline insert. The full bytes it returns are the bytes whose checksum
// the delta's header pins. Both walks are deterministic, so equal
// (base, target) pairs encode byte-identical results. The degenerate
// cases are well-formed: identical corpora produce an all-copy patch,
// and disjoint corpora produce an all-insert patch (a full corpus with
// extra framing) — the size ratio is the caller's signal for whether a
// delta is worth shipping.
func EncodeTarget(base *DeltaBase, target []NCRecord) (*Encoded, error) {
	full, err := marshal(target)
	if err != nil {
		return nil, err
	}
	targetFP := binary.LittleEndian.Uint64(full[4:])
	ix := newKeyIndexer(len(target))
	var tab *stringTable
	var ops []byte
	if base != nil {
		tab = &stringTable{ids: make(map[string]uint64)}
		ops = make([]byte, 0, 256)
	}
	for i, rec := range target {
		key, err := ix.add(i, rec)
		if err != nil {
			return nil, err
		}
		if base == nil {
			continue
		}
		if bi, ok := base.index[string(key)]; ok {
			ops = append(ops, deltaOpCopy)
			ops = binary.AppendUvarint(ops, uint64(bi))
			continue
		}
		ops = append(ops, deltaOpInsert)
		if ops, err = appendRecord(ops, tab, i, rec); err != nil {
			return nil, err
		}
	}
	out := &Encoded{Full: full, Target: ix.finish(targetFP)}
	if base == nil {
		return out, nil
	}

	payload := make([]byte, 0, len(ops)+strTableLen(tab.strs)+16)
	payload = appendStrTable(payload, tab.strs)
	payload = binary.AppendUvarint(payload, uint64(base.count))
	payload = binary.AppendUvarint(payload, uint64(len(target)))
	payload = append(payload, ops...)

	delta := make([]byte, deltaHeaderLen, deltaHeaderLen+len(payload))
	copy(delta, DeltaMagic[:])
	binary.LittleEndian.PutUint64(delta[4:], base.Fingerprint)
	binary.LittleEndian.PutUint64(delta[12:], targetFP)
	// The target file sum pins the applied result to the bytes a full
	// Encode of the target produces — ApplyDelta re-encodes and checks.
	binary.LittleEndian.PutUint64(delta[20:], checksum(full))
	binary.LittleEndian.PutUint64(delta[28:], checksum(payload))
	out.Delta = append(delta, payload...)
	return out, nil
}

// EncodeDelta diffs target against base and writes the HBD patch that
// rebuilds target from base: IndexBase then EncodeTarget, for callers
// holding two record lists and no index.
func EncodeDelta(w io.Writer, base, target []NCRecord) error {
	b, err := IndexBase(base)
	if err != nil {
		return fmt.Errorf("corpusbin: encode delta: %w", err)
	}
	enc, err := EncodeTarget(b, target)
	if err != nil {
		return fmt.Errorf("corpusbin: encode delta: target: %w", err)
	}
	if _, err := w.Write(enc.Delta); err != nil {
		return fmt.Errorf("corpusbin: encode delta: %w", err)
	}
	return nil
}

// ApplyDelta patches base with an HBD delta and returns the complete
// target corpus in HBC form, byte-identical to a full Encode of the
// corpus the delta was diffed from. It fails closed at every step: the
// payload checksum is verified before parsing, the base fingerprint
// must match the chain (ErrDeltaBaseMismatch otherwise — base is never
// modified), and the assembled result must reproduce both the chain's
// target fingerprint and the promised full-file checksum
// (ErrDeltaResultMismatch otherwise). No input can make ApplyDelta
// panic (FuzzHBDDecode enforces this).
func ApplyDelta(base []NCRecord, delta []byte) ([]byte, error) {
	full, _, _, err := ApplyDeltaRecords(base, delta)
	return full, err
}

// ApplyDeltaRecords is ApplyDelta exposing the patch's provenance: the
// target records in order, and for each an engine deserialized from its
// inline programs when the record was inserted by the delta — nil for
// copies, whose NCRecord (and NC pointer) is base's own, so a caller
// holding compiled state for the base can reuse it instead of decoding
// the full result. This is what makes applying a small delta cheaper
// than a full corpus reload: only the inserted records pay program
// deserialization and engine construction.
func ApplyDeltaRecords(base []NCRecord, delta []byte) ([]byte, []NCRecord, []*match.Engine, error) {
	return applyDelta(base, 0, false, delta)
}

// ApplyDeltaRecordsFP is ApplyDeltaRecords for callers that hold a
// precomputed core.FingerprintNCs over base's NCs (extract memoizes it
// at corpus build). The attested fingerprint is checked against the
// chain exactly as the recomputed one would be — the caller saves one
// full hash pass over the base, not any verification. Passing a
// fingerprint that was not computed over base voids the base-mismatch
// guarantee; the target-side checks (chain fingerprint and full-file
// checksum) still hold regardless.
func ApplyDeltaRecordsFP(base []NCRecord, baseFP uint64, delta []byte) ([]byte, []NCRecord, []*match.Engine, error) {
	return applyDelta(base, baseFP, true, delta)
}

func applyDelta(base []NCRecord, attestedFP uint64, attested bool, delta []byte) ([]byte, []NCRecord, []*match.Engine, error) {
	if len(delta) > maxSectionBytes+deltaHeaderLen {
		return nil, nil, nil, fmt.Errorf("corpusbin: apply delta: input exceeds %d-byte cap", maxSectionBytes)
	}
	if !IsHBD(delta) || len(delta) < deltaHeaderLen {
		return nil, nil, nil, fmt.Errorf("corpusbin: apply delta: not an HBD delta (missing magic)")
	}
	if delta[3] != DeltaMagic[3] {
		return nil, nil, nil, fmt.Errorf("corpusbin: apply delta: unsupported HBD version %d (this build reads %d)", delta[3], DeltaMagic[3])
	}
	baseFP := binary.LittleEndian.Uint64(delta[4:])
	targetFP := binary.LittleEndian.Uint64(delta[12:])
	wantFileSum := binary.LittleEndian.Uint64(delta[20:])
	wantSum := binary.LittleEndian.Uint64(delta[28:])
	payload := delta[deltaHeaderLen:]
	if got := checksum(payload); got != wantSum {
		return nil, nil, nil, fmt.Errorf("corpusbin: apply delta: payload checksum mismatch (corrupt delta): got %016x want %016x", got, wantSum)
	}

	got := attestedFP
	if !attested {
		baseNCs := make([]*core.NC, len(base))
		for i, rec := range base {
			if rec.NC == nil || rec.NC.Suffix == "" {
				return nil, nil, nil, fmt.Errorf("corpusbin: apply delta: base record %d has no suffix", i)
			}
			baseNCs[i] = rec.NC
		}
		got = core.FingerprintNCs(baseNCs)
	}
	if got != baseFP {
		return nil, nil, nil, fmt.Errorf("corpusbin: apply delta: %w: have %016x, delta chains %016x → %016x", ErrDeltaBaseMismatch, got, baseFP, targetFP)
	}
	if err := faultinject.Fire(context.Background(), faultinject.StageCorpusbinDelta, fmt.Sprintf("%016x", targetFP)); err != nil {
		return nil, nil, nil, fmt.Errorf("corpusbin: apply delta %016x: %w", targetFP, err)
	}

	d := &decoder{data: payload}
	table, err := d.strTable()
	if err != nil {
		return nil, nil, nil, err
	}
	baseCount, err := d.uvarint("base count")
	if err != nil {
		return nil, nil, nil, err
	}
	if baseCount != uint64(len(base)) {
		return nil, nil, nil, d.errf("delta expects %d base records, corpus has %d", baseCount, len(base))
	}
	nOps, err := d.count("delta op list", 2, 256)
	if err != nil {
		return nil, nil, nil, err
	}
	out := make([]NCRecord, 0, nOps)
	engines := make([]*match.Engine, 0, nOps)
	for i := 0; i < nOps; i++ {
		head, err := d.byteVal("delta op head")
		if err != nil {
			return nil, nil, nil, err
		}
		switch head {
		case deltaOpCopy:
			idx, err := d.uvarint("copy index")
			if err != nil {
				return nil, nil, nil, err
			}
			if idx >= uint64(len(base)) {
				return nil, nil, nil, d.errf("copy index %d out of range (base has %d)", idx, len(base))
			}
			out = append(out, base[idx])
			engines = append(engines, nil)
		case deltaOpInsert:
			rec, eng, err := d.decodeNC(table)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("corpusbin: apply delta: op %d: %w", i, err)
			}
			out = append(out, rec)
			engines = append(engines, eng)
		default:
			return nil, nil, nil, d.errf("unknown delta op kind %d", head)
		}
	}
	if d.remaining() != 0 {
		return nil, nil, nil, d.errf("%d trailing bytes after last op", d.remaining())
	}

	full, err := marshal(out)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("corpusbin: apply delta: %w", err)
	}
	// marshal stamped the patched corpus's fingerprint into the HBC
	// header; checking it there verifies the chain's target without a
	// second hash over every record.
	if got := binary.LittleEndian.Uint64(full[4:]); got != targetFP {
		return nil, nil, nil, fmt.Errorf("corpusbin: apply delta: %w: patched corpus fingerprint %016x, chain target %016x", ErrDeltaResultMismatch, got, targetFP)
	}
	if got := checksum(full); got != wantFileSum {
		return nil, nil, nil, fmt.Errorf("corpusbin: apply delta: %w: patched corpus bytes diverge from a full encode of the target (sum %016x, want %016x)", ErrDeltaResultMismatch, got, wantFileSum)
	}
	return full, out, engines, nil
}
