// Package extract is the serving side of Hoiho: it applies a corpus of
// learned naming conventions (NCs) to hostnames at scale. The paper's end
// product is exactly such a corpus — §7 applies it to the full OpenINTEL
// PTR sweep and §5 feeds it into bdrmapIT — so hostname→ASN lookup is the
// inner loop of every downstream consumer.
//
// A Corpus indexes NCs by registered-domain suffix and resolves a
// hostname with an allocation-free label-suffix probe (an offset-based
// PSL walk for corpora whose indexed suffixes sit above other PSL
// rules). Each suffix's NC set compiles exactly once into
// internal/match's specialized byte-level engine (stdlib regexp stays
// the property-test oracle), so any number of concurrent extractors
// share one compiled corpus. Extract is the single-hostname path, and
// ExtractBatch / ExtractStream shard million-hostname workloads over a
// worker pool with deterministic, input-ordered results.
package extract

import (
	"context"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"hoiho/internal/asn"
	"hoiho/internal/core"
	"hoiho/internal/match"
	"hoiho/internal/psl"
	"hoiho/internal/rex"
)

// Result is one extraction outcome. Every surface returns it: Extract
// directly, ExtractBatch and ExtractStream one per input in input
// order. OK distinguishes hits from misses so batch positions stay
// aligned with their inputs; a miss is the zero Result.
type Result struct {
	// Hostname echoes the input.
	Hostname string
	// Suffix is the matched NC's registered-domain suffix.
	Suffix string
	// Digits is the raw captured digit string, a slice of the input
	// hostname.
	Digits string
	// ASN is the parsed extraction.
	ASN asn.ASN
	// Class is the matched NC's §4 quality grade. (Scalars trail the
	// strings so a Result packs into 56 bytes — batch output slices are
	// allocated, cleared, and GC-scanned by the hundred thousand.)
	Class core.Classification
	// OK reports whether this Result is a hit.
	OK bool
}

// entry pairs an NC with its compile-once engine. The Once makes
// compilation happen exactly once no matter how many goroutines arrive.
type entry struct {
	nc   *core.NC
	once sync.Once
	eng  *match.Engine
}

// engine returns the entry's engine, compiling it on first use. An
// entry pre-armed by a delta apply (eng already set, before the corpus
// was shared) keeps that engine.
func (e *entry) engine() *match.Engine {
	//hoiho:hotalloc compile-once guard: the literal runs once per entry and does not escape on the armed fast path; TestBoundExtractAllocs pins 0 allocs/op after Precompile
	e.once.Do(func() {
		if e.eng == nil {
			e.eng = match.Compile(e.nc.Regexes)
		}
	})
	return e.eng
}

// Corpus is an immutable, concurrency-safe index of learned NCs, ready to
// be applied to any number of hostnames. Build one with New or Load and
// share it freely between goroutines.
type Corpus struct {
	list    *psl.List
	entries map[string]*entry
	// ncs are the retained NCs, suffix-sorted: the records SaveBinary
	// encodes and a delta diffs and patches.
	ncs      []*core.NC
	workers  int
	minClass core.Classification
	// ready is set by Precompile: every entry's engine is built, so hot
	// paths may read entry.eng directly instead of going through the
	// Once (the Store/Load pair orders those writes before the reads).
	ready atomic.Bool
	// maxLabels bounds the fallback suffix walk: no indexed suffix has
	// more labels than this.
	maxLabels int
	// probeLens holds the distinct indexed suffix byte lengths, longest
	// first: the safeDirect lookup probes host tails of exactly these
	// lengths instead of walking labels.
	probeLens []int
	// maxProbeLen is probeLens[0], the tail window the dirty-host check
	// must inspect.
	maxProbeLen int
	// lenMask has bit min(len,63) set for every indexed suffix byte
	// length below 64: a suffix probe whose length bit is clear cannot
	// hit, so the walk skips the map access entirely. Suffixes of 64+
	// bytes (none in practice) are always probed.
	lenMask uint64
	// table is the open-addressing probe index walk uses; it holds the
	// same suffix→entry mapping as entries, frozen at construction.
	table suffixTable
	// pslDirect is true when every indexed suffix is its own registered
	// domain under list, so a hostname is governed by at most one suffix.
	pslDirect bool
	// safeDirect strengthens pslDirect: no PSL rule lies beneath any
	// indexed suffix, so probing the suffix index at label boundaries is
	// provably equivalent to a registered-domain walk — the fully
	// allocation-free lookup.
	safeDirect bool
	// fp is the content fingerprint, computed once in New.
	fp uint64
}

// Option configures a Corpus at construction time.
type Option func(*Corpus)

// WithPSL supplies the public suffix list backing lookups. The default is
// psl.Default(), the embedded snapshot.
func WithPSL(list *psl.List) Option {
	return func(c *Corpus) { c.list = list }
}

// WithWorkers bounds the goroutines ExtractBatch and ExtractStream use.
// 0 (the default) means GOMAXPROCS; 1 forces serial execution.
func WithWorkers(n int) Option {
	return func(c *Corpus) { c.workers = n }
}

// MinClass keeps only NCs graded at least min. The zero value (Poor)
// keeps everything.
func MinClass(min core.Classification) Option {
	return func(c *Corpus) { c.minClass = min }
}

// UsableOnly keeps only the good and promising NCs — the conventions §4
// calls usable, the set the paper applies in §7.
func UsableOnly() Option { return MinClass(core.Promising) }

// New indexes ncs into a Corpus. When two NCs share a suffix the later
// one wins, matching the map-overwrite behavior of the replaced
// per-consumer indexes. Compilation is lazy: a suffix's engine is built
// on its first lookup, once; Load precompiles eagerly.
func New(ncs []*core.NC, opts ...Option) *Corpus {
	c, _ := index(ncs, opts, nil)
	c.fp = c.fingerprint()
	return c
}

// index builds everything New does but the fingerprint. whole reports
// that the corpus retained every NC of ncs in their order — none nil,
// filtered or superseded, and ncs already strictly suffix-sorted — so
// c.ncs equals ncs element for element and any fact verified over ncs
// holds for the corpus. base, when non-nil, is a corpus whose PSL
// answers hold for every suffix it indexes under the same list: a
// delta's copied records inherit them, so only the suffixes base does
// not index are checked against the list.
func index(ncs []*core.NC, opts []Option, base *Corpus) (c *Corpus, whole bool) {
	c = &Corpus{entries: make(map[string]*entry, len(ncs))}
	for _, o := range opts {
		o(c)
	}
	if c.list == nil {
		c.list = psl.Default()
	}
	// The retained NCs, in input order, each at its suffix's first
	// position until a duplicate moves the winner in below.
	c.ncs = make([]*core.NC, 0, len(ncs))
	dup := false
	for _, nc := range ncs {
		if nc == nil || nc.Class < c.minClass {
			continue
		}
		if e, ok := c.entries[nc.Suffix]; ok {
			e.nc = nc // last NC for a suffix wins
			dup = true
			continue
		}
		c.entries[nc.Suffix] = &entry{nc: nc}
		c.ncs = append(c.ncs, nc)
		if n := strings.Count(nc.Suffix, ".") + 1; n > c.maxLabels {
			c.maxLabels = n
		}
		if n := len(nc.Suffix); n < 64 {
			c.lenMask |= 1 << uint(n)
		}
	}
	if dup {
		for i, nc := range c.ncs {
			c.ncs[i] = c.entries[nc.Suffix].nc
		}
	}
	// Suffixes are unique here, so sorted means strictly sorted; every
	// encoder writes suffix order, so the sort is rarely needed.
	sorted := slices.IsSortedFunc(c.ncs, cmpSuffix)
	if !sorted {
		slices.SortFunc(c.ncs, cmpSuffix)
	}
	// A fact base holds for all its suffixes holds for each of them
	// here, when base read it from the same list.
	inherit := base != nil && base.list == c.list
	c.pslDirect = true
	for _, nc := range c.ncs {
		if inherit && base.pslDirect && base.table.get(nc.Suffix) != nil {
			continue
		}
		if reg, ok := c.list.RegisteredDomain(nc.Suffix); !ok || reg != nc.Suffix {
			c.pslDirect = false
			break
		}
	}
	c.safeDirect = c.pslDirect
	if c.safeDirect {
		for _, nc := range c.ncs {
			if inherit && base.safeDirect && base.table.get(nc.Suffix) != nil {
				continue
			}
			if c.list.HasRuleBeneath(nc.Suffix) {
				c.safeDirect = false
				break
			}
		}
	}
	seenLen := make(map[int]bool)
	for _, nc := range c.ncs {
		if n := len(nc.Suffix); !seenLen[n] {
			seenLen[n] = true
			c.probeLens = append(c.probeLens, n)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(c.probeLens)))
	if len(c.probeLens) > 0 {
		c.maxProbeLen = c.probeLens[0]
	}
	c.table = newSuffixTable(c.entries)
	return c, !dup && sorted && len(c.ncs) == len(ncs)
}

func cmpSuffix(a, b *core.NC) int { return strings.Compare(a.Suffix, b.Suffix) }

// fromVerified builds the corpus Load and ApplyDelta return from
// conventions whose content has just been verified — by
// corpusbin.Decode (payload checksum, header fingerprint, token
// validation) or by a delta apply (chain fingerprints, target file
// sum). fp is the verified core.FingerprintNCs of ncs in their order.
// When opts keep every convention in order, the corpus adopts fp
// instead of hashing what was just checked; otherwise it is computed
// as New would. base, for an apply, is the corpus the delta patched:
// each retained NC that is base's own (a copied record) takes base's
// engine, and its suffix base's PSL answers (see index). Every other
// retained NC compiles here, once, so the corpus is ready to serve.
func fromVerified(ncs []*core.NC, fp uint64, base *Corpus, opts []Option) *Corpus {
	c, whole := index(ncs, opts, base)
	if whole {
		c.fp = fp
	} else {
		c.fp = c.fingerprint()
	}
	if base != nil {
		for _, e := range c.entries {
			// Single-threaded: the corpus is not shared until it is
			// returned.
			if be := base.table.get(e.nc.Suffix); be != nil && be.nc == e.nc {
				e.eng = base.engineFor(be)
			}
		}
	}
	c.Precompile()
	return c
}

// suffixTable is a frozen open-addressing index from suffix to entry,
// specialized for the probe in walk: linear probing over a power-of-two
// slot array at 50% max load, hashing only the suffix length and its
// last eight bytes (indexed suffixes practically always differ there —
// they end in distinct registered domains). It is the same mapping as
// Corpus.entries with roughly half the general map's per-probe cost,
// and it never changes after construction.
type suffixTable struct {
	mask  uint32
	slots []suffixSlot
}

type suffixSlot struct {
	suffix string
	e      *entry
}

func newSuffixTable(entries map[string]*entry) suffixTable {
	n := uint32(8)
	for n < uint32(2*len(entries)+1) {
		n *= 2
	}
	t := suffixTable{mask: n - 1, slots: make([]suffixSlot, n)}
	for s, e := range entries {
		i := hashSuffix(s) & t.mask
		for t.slots[i].e != nil {
			i = (i + 1) & t.mask
		}
		t.slots[i] = suffixSlot{suffix: s, e: e}
	}
	return t
}

// get returns the entry indexed under s, or nil. Never-deleted slots
// mean an empty slot ends every probe chain.
func (t *suffixTable) get(s string) *entry {
	for i := hashSuffix(s) & t.mask; ; i = (i + 1) & t.mask {
		sl := &t.slots[i]
		if sl.e == nil || sl.suffix == s {
			return sl.e
		}
	}
}

// hashSuffix mixes the length and last eight bytes. The long form is a
// single unaligned load plus one multiply; sub-8-byte suffixes fall
// back to FNV-1a.
func hashSuffix(s string) uint32 {
	if len(s) >= 8 {
		x := (le64(s) ^ uint64(len(s))) * 0x9E3779B97F4A7C15
		return uint32(x >> 32)
	}
	h := (2166136261 ^ uint32(len(s))) * 16777619
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// le64 returns the last eight bytes of s (len(s) >= 8) as a
// little-endian integer; the compiler lowers the chain to one load on
// little-endian targets.
func le64(s string) uint64 {
	t := s[len(s)-8:]
	return uint64(t[0]) | uint64(t[1])<<8 | uint64(t[2])<<16 | uint64(t[3])<<24 |
		uint64(t[4])<<32 | uint64(t[5])<<40 | uint64(t[6])<<48 | uint64(t[7])<<56
}

// Precompile builds every suffix's engine now instead of on first
// lookup, so a served corpus pays compilation once at load time, never
// on the request path. Load calls it; New stays lazy for transient
// corpora built mid-learning.
//
//hoiho:ctxflow bounded one-shot compile over the indexed suffixes at load time, milliseconds even for full-scale corpora; not a streaming pipeline
func (c *Corpus) Precompile() {
	for _, e := range c.entries {
		e.engine()
	}
	c.ready.Store(true)
}

// engineFor resolves e's engine: a plain field read once Precompile
// has run, the compile-once slow path before that.
func (c *Corpus) engineFor(e *entry) *match.Engine {
	if c.ready.Load() {
		return e.eng
	}
	return e.engine()
}

// Len returns the number of indexed NCs.
func (c *Corpus) Len() int { return len(c.ncs) }

// Convention is a read-only view of one indexed naming convention: the
// replacement for the removed NCs()/Lookup accessors, which leaked
// mutable learner structs into serving code.
type Convention struct {
	nc *core.NC
}

// Suffix returns the convention's registered-domain suffix.
func (v Convention) Suffix() string { return v.nc.Suffix }

// Class returns the convention's §4 quality grade.
func (v Convention) Class() core.Classification { return v.nc.Class }

// Single reports whether the convention is a §4 "single NC" (every
// extraction names one organization's ASN).
func (v Convention) Single() bool { return v.nc.Single }

// Eval returns the convention's training evaluation.
func (v Convention) Eval() core.Eval { return v.nc.Eval }

// NumRegexes returns how many regexes the convention holds.
func (v Convention) NumRegexes() int { return len(v.nc.Regexes) }

// Regexes returns the convention's regexes in order. The slice is a
// fresh copy; the regexes themselves are immutable.
func (v Convention) Regexes() []*rex.Regex {
	return append([]*rex.Regex(nil), v.nc.Regexes...)
}

// Strings renders the convention's regex sources in order.
func (v Convention) Strings() []string { return v.nc.Strings() }

// Suffixes returns the indexed suffixes in sorted order. Iterate
// conventions with:
//
//	for _, s := range corpus.Suffixes() {
//		cv, _ := corpus.Conventions(s)
//		...
//	}
func (c *Corpus) Suffixes() []string {
	out := make([]string, len(c.ncs))
	for i, nc := range c.ncs {
		out[i] = nc.Suffix
	}
	return out
}

// Conventions resolves the convention governing suffix — the deepest
// indexed label suffix, via the registered domain when the corpus
// permits — without applying it. Passing an indexed suffix returns that
// suffix's convention; passing a full hostname resolves as Extract
// would.
func (c *Corpus) Conventions(suffix string) (Convention, bool) {
	e := c.lookup(suffix)
	if e == nil {
		return Convention{}, false
	}
	return Convention{nc: e.nc}, true
}

// hostClean reports whether host is already in normalized form —
// lowercase ASCII with no surrounding whitespace and no trailing dot —
// so the allocation-free lookup paths can use it as-is. host must be
// non-empty.
func hostClean(host string) bool {
	for i := 0; i < len(host); i++ {
		b := host[i]
		if b >= 0x80 || ('A' <= b && b <= 'Z') {
			return false
		}
	}
	return !isSpaceByte(host[0]) && !isSpaceByte(host[len(host)-1]) &&
		host[len(host)-1] != '.'
}

func isSpaceByte(b byte) bool {
	switch b {
	case ' ', '\t', '\n', '\v', '\f', '\r':
		return true
	}
	return false
}

func (c *Corpus) lookup(host string) *entry {
	if len(c.entries) == 0 || host == "" {
		return nil
	}
	if !c.pslDirect {
		// Historical fallback: raw label-suffix probes for every input,
		// normalized or not.
		return c.walk(host)
	}
	if c.safeDirect {
		return c.lookupDirect(host)
	}
	// Every indexed suffix is a registered domain, but a PSL rule lies
	// beneath one: only a full PSL walk resolves correctly. The offset
	// form keeps it allocation-free for normalized hosts.
	if hostClean(host) {
		start, ok := c.list.RegisteredDomainStart(host)
		if !ok {
			return nil
		}
		return c.entries[host[start:]]
	}
	return c.lookupDirty(host)
}

// lookupDirect is the safeDirect hot path: an indexed suffix can only
// sit at a label boundary, so for each indexed suffix LENGTH l the one
// viable candidate is host's l-byte tail behind a dot (or the whole
// host). Probing raw bytes is correct on a HIT — indexed suffixes are
// normalized (lowercase ASCII, no edge junk), so a host whose raw tail
// equals one could not have been changed there by normalization, and
// under pslDirect no second indexed suffix can govern. Only a raw MISS
// is ambiguous: the host may have missed purely because it needed
// normalizing (uppercase, edge trimming), so the tail window is
// checked after the fact and dirty hosts fall back to the allocating
// PSL probe. Lengths are probed longest-first, matching the walk's
// deepest-first order.
func (c *Corpus) lookupDirect(host string) *entry {
	for _, l := range c.probeLens {
		if len(host) > l {
			if host[len(host)-l-1] == '.' {
				if e := c.table.get(host[len(host)-l:]); e != nil {
					return e
				}
			}
		} else if len(host) == l {
			if e := c.table.get(host); e != nil {
				return e
			}
		}
	}
	if !c.tailClean(host) {
		return c.lookupDirty(host)
	}
	return nil
}

// tailClean reports whether PSL normalization could not create an
// indexed-suffix tail this lookup's raw probes missed. Everything
// normalization could do that matters — lowercasing suffix bytes,
// trimming trailing junk, trimming the spaces in front of a whole-host
// suffix — is visible in the last maxProbeLen+1 bytes: a changed byte
// deeper than the longest indexed suffix plus its leading dot cannot
// affect any probe. Spaces in the window are conservatively dirty (an
// interior space just routes a guaranteed miss through the slow path).
func (c *Corpus) tailClean(host string) bool {
	start := len(host) - c.maxProbeLen - 1
	if start < 0 {
		start = 0
	}
	for i := start; i < len(host); i++ {
		if dirtyTail[host[i]] {
			return false
		}
	}
	return host[len(host)-1] != '.'
}

// dirtyTail marks bytes whose presence in the tail window makes a raw
// miss untrustworthy: non-ASCII, uppercase, whitespace.
var dirtyTail = func() (t [256]bool) {
	for b := 'A'; b <= 'Z'; b++ {
		t[b] = true
	}
	for _, b := range []byte{' ', '\t', '\n', '\v', '\f', '\r'} {
		t[b] = true
	}
	for i := 0x80; i < 256; i++ {
		t[i] = true
	}
	return
}()

// walk probes host's label suffixes deepest-first, skipping labels
// deeper than any indexed suffix so it costs at most maxLabels probes.
// These are the historical fallback semantics for corpora that are not
// pslDirect: raw byte probes for every input, normalized or not.
func (c *Corpus) walk(host string) *entry {
	s := host
	if n := strings.Count(host, ".") + 1; n > c.maxLabels {
		for skip := n - c.maxLabels; skip > 0; skip-- {
			s = s[strings.IndexByte(s, '.')+1:]
		}
	}
	for probe := s; ; {
		if n := len(probe); n >= 64 || c.lenMask&(1<<uint(n)) != 0 {
			if e := c.table.get(probe); e != nil {
				return e
			}
		}
		j := strings.IndexByte(probe, '.')
		if j < 0 {
			return nil
		}
		probe = probe[j+1:]
	}
}

// lookupDirty preserves the historical pslDirect behavior for hostnames
// not in normalized form (uppercase, surrounding space, trailing dot,
// non-ASCII): the registered-domain probe normalizes inside the PSL.
// It allocates — dirty inputs are the rare case. Only reached when
// pslDirect is set; the non-direct fallback walks raw bytes for every
// input, exactly as it always did.
//
//hoiho:hotalloc budgeted cold region: dirty-input fallback; the hot path slices via RegisteredDomainStart and never gets here
func (c *Corpus) lookupDirty(host string) *entry {
	reg, ok := c.list.RegisteredDomain(host)
	if !ok {
		return nil
	}
	return c.entries[reg]
}

// extractInto is the core shared by every surface: resolve the
// governing NC by suffix, run its engine, parse the capture. As in the
// replaced consumer paths, a governing NC that fails to match ends the
// lookup — shallower suffixes are not consulted — and a capture that
// does not parse as an ASN ends the extraction. On a hit the fields
// except Hostname are written into dst (callers that retain the input
// fill that in); on a miss dst is untouched, so batch paths can write
// straight into their zeroed output slots without copying a Result per
// hostname.
func (c *Corpus) extractInto(dst *Result, host string) bool {
	e := c.lookup(host)
	if e == nil {
		return false
	}
	hit, ok := c.engineFor(e).MatchString(host)
	if !ok {
		return false
	}
	digits := host[hit.Start:hit.End]
	a, ok := parseASN(digits)
	if !ok {
		return false
	}
	dst.Suffix = e.nc.Suffix
	dst.Class = e.nc.Class
	dst.Digits = digits
	dst.ASN = a
	dst.OK = true
	return true
}

func (c *Corpus) extract(host string) (Result, bool) {
	var r Result
	ok := c.extractInto(&r, host)
	return r, ok
}

// Extract applies the corpus to one hostname. ok is false when no NC
// governs the suffix, no regex matches, or the captured digits are not
// a valid ASN. The context is consulted once on entry — a cancelled
// context reports a miss — giving every extraction surface the same
// (ctx, input) shape; a nil context is tolerated and means "no
// cancellation".
func (c *Corpus) Extract(ctx context.Context, host string) (Result, bool) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return Result{}, false
		}
	}
	r, ok := c.extract(host)
	if ok {
		r.Hostname = host
	}
	return r, ok
}

// parseASN parses a captured span exactly as asn.Parse treats captured
// digits, without allocating: base 10, 32 bits, rejecting empty input,
// non-digits (an AS-name capture), zero, and overflow. A parse failure
// ends the whole extraction rather than trying later regexes, matching
// the historical behavior.
func parseASN(digits string) (asn.ASN, bool) {
	if len(digits) == 0 || len(digits) > 10 {
		return asn.None, false
	}
	var v uint64
	for i := 0; i < len(digits); i++ {
		b := digits[i]
		if b < '0' || b > '9' {
			return asn.None, false
		}
		v = v*10 + uint64(b-'0')
	}
	if v == 0 || v > 1<<32-1 {
		return asn.None, false
	}
	return asn.ASN(v), true
}

// workerCount resolves the pool size for n items.
func (c *Corpus) workerCount(n int) int {
	w := c.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}
