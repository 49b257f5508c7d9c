package core

// The match matrix memoizes regex evaluation for the learning pipeline.
// Each candidate regex is executed against each training item exactly
// once, producing a column: a matched bitset, a TP bitset (congruent
// extraction outside any embedded-IP span), and an interned
// extraction-string ID per item. Every later evaluation — single-regex
// scoring, §3.4 class specialization, and especially the §3.5 greedy
// set construction — aggregates these columns with word-parallel bit
// operations instead of re-running regexes. Set.Evaluate remains the
// naive reference implementation; TestMatrixMatchesOracle proves the
// engine returns bit-for-bit identical Evals.

import (
	"context"
	"math/bits"
	"runtime"
	"sync"

	"hoiho/internal/faultinject"
	"hoiho/internal/match"
	"hoiho/internal/rex"
)

// bitset is a fixed-size bit vector over a Set's training items.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i>>6] |= 1 << (i & 63) }
func (b bitset) get(i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }

// fill sets bits 0..n-1, leaving the tail of the last word zero so that
// popcounts over whole words stay exact.
func (b bitset) fill(n int) {
	for w := range b {
		b[w] = ^uint64(0)
	}
	if n%64 != 0 && len(b) > 0 {
		b[len(b)-1] = (1 << (n % 64)) - 1
	}
}

func (b bitset) count() int {
	sum := 0
	for _, w := range b {
		sum += bits.OnesCount64(w)
	}
	return sum
}

// column holds one regex's memoized outcome against every item.
type column struct {
	// bad marks a regex match.Compile drops (the stdlib cannot compile
	// it): it matches nothing, and its eval charges an FN for every
	// apparent-ASN item (exactly what the naive Evaluate returns for such
	// a regex).
	bad bool
	// eng is the regex compiled alone, the matcher the column was built
	// with; the §3.4 class phase reads token spans from it.
	eng     *match.Engine
	matched bitset
	tp      bitset   // subset of matched: congruent and outside IP spans
	ext     []uint32 // per-item interned extraction ID (valid where matched)
	eval    Eval     // the single-regex evaluation, aggregated once
}

// matrix memoizes per-regex columns over a Set's items, plus the string
// interner that backs the unique-extraction counts.
type matrix struct {
	s        *Set
	apparent bitset // items with an apparent ASN (the FN candidates)
	cols     map[*rex.Regex]*column
	extIDs   map[string]uint32
	extStrs  []string // id -> extraction string
	// Generation-stamped scratch for the unique-extraction counts: one
	// stamp slot per interned ID (grown by intern), bumped per pass, so
	// finishColumn and evalSet never allocate per-call seen-maps.
	seenAll []uint32
	seenTP  []uint32
	seenGen uint32
	// remaining is evalSet's reusable first-match scratch bitset.
	remaining bitset
	// exts is the raw-extraction scratch a column build fills before
	// finishColumn interns it; only matched slots are ever read.
	exts []string
}

// reset points m at s, forgetting every column and extraction it
// memoized for an earlier Set while keeping its maps' and slices'
// capacity for s.
func (m *matrix) reset(s *Set) *matrix {
	n := s.ar.len()
	m.s = s
	m.apparent = reuseBitset(m.apparent, n)
	for i, a := range s.ar.apparent {
		if a {
			m.apparent.set(i)
		}
	}
	if m.cols == nil {
		m.cols = make(map[*rex.Regex]*column)
		m.extIDs = make(map[string]uint32)
	}
	clear(m.cols)
	clear(m.extIDs)
	m.extStrs = m.extStrs[:0]
	m.seenAll = m.seenAll[:0]
	m.seenTP = m.seenTP[:0]
	m.seenGen = 0
	m.remaining = reuseBitset(m.remaining, n)
	return m
}

// reuseBitset returns a zeroed bitset over n items, in b's array when it
// is large enough.
func reuseBitset(b bitset, n int) bitset {
	w := (n + 63) / 64
	b = reuse(b, w)[:w]
	clear(b)
	return b
}

// extScratch returns k slots of the extraction scratch, grown on demand.
func (m *matrix) extScratch(k int) []string {
	if cap(m.exts) < k {
		m.exts = make([]string, k)
	}
	return m.exts[:k]
}

// intern maps an extraction string to a stable dense ID.
func (m *matrix) intern(ext string) uint32 {
	if id, ok := m.extIDs[ext]; ok {
		return id
	}
	id := uint32(len(m.extStrs))
	m.extIDs[ext] = id
	m.extStrs = append(m.extStrs, ext)
	m.seenAll = append(m.seenAll, 0)
	m.seenTP = append(m.seenTP, 0)
	return id
}

// newColumns batch-allocates k columns over n items as a struct-of-arrays
// arena: one backing word slab shared by every matched/tp bitset and one
// ID slab shared by every ext column, so a scoring batch costs three
// slab allocations instead of four-plus heap objects per column.
func newColumns(k, n int) []column {
	wpi := (n + 63) / 64
	cols := make([]column, k)
	words := make([]uint64, 2*wpi*k)
	ids := make([]uint32, n*k)
	for i := range cols {
		cols[i].matched = bitset(words[(2*i)*wpi : (2*i+1)*wpi : (2*i+1)*wpi])
		cols[i].tp = bitset(words[(2*i+1)*wpi : (2*i+2)*wpi : (2*i+2)*wpi])
		cols[i].ext = ids[i*n : (i+1)*n : (i+1)*n]
	}
	return cols
}

// buildColumn runs one regex over every item on the compiled matcher
// (internal/match, whose leftmost-first captures are the stdlib's),
// filling the caller's pre-allocated (zeroed) column and writing exts
// at the matched slots only.
// It performs no interning and touches no shared state, so builds can
// fan out across goroutines; the raw extraction strings feed a serial
// finish pass.
func (m *matrix) buildColumn(r *rex.Regex, c *column, exts []string) {
	eng := match.Compile([]*rex.Regex{r})
	if eng.Len() == 0 {
		c.bad = true
		return
	}
	c.eng = eng
	ar := &m.s.ar
	typo := !m.s.opts.DisableTypoCredit
	for i := 0; i < ar.len(); i++ {
		full := ar.full[i]
		h, ok := eng.MatchString(full)
		if !ok {
			continue
		}
		ext := full[h.Start:h.End]
		c.matched.set(i)
		exts[i] = ext
		if !inSpans(ar.spansOf(i), h.Start, h.End) && congruentDigits(ext, ar.digits[i], typo) {
			c.tp.set(i)
		}
	}
}

// finishColumn interns the extraction strings and aggregates the
// single-regex Eval. Serial: it writes the shared interner.
func (m *matrix) finishColumn(c *column, exts []string) {
	if c.bad {
		c.eval = Eval{FN: m.apparent.count()}
		return
	}
	m.seenGen++
	gen := m.seenGen
	uniqueTP, uniqueAll := 0, 0
	for w, word := range c.matched {
		for rest := word; rest != 0; rest &= rest - 1 {
			i := w*64 + bits.TrailingZeros64(rest)
			id := m.intern(exts[i])
			c.ext[i] = id
			if m.seenAll[id] != gen {
				m.seenAll[id] = gen
				uniqueAll++
			}
			if c.tp.get(i) && m.seenTP[id] != gen {
				m.seenTP[id] = gen
				uniqueTP++
			}
		}
	}
	c.eval.TP = c.tp.count()
	c.eval.Matches = c.matched.count()
	c.eval.FP = c.eval.Matches - c.eval.TP
	for w := range m.apparent {
		c.eval.FN += bits.OnesCount64(m.apparent[w] &^ c.matched[w])
	}
	c.eval.UniqueTP = uniqueTP
	c.eval.UniqueExtract = uniqueAll
}

// column returns the memoized column for r, building it on first use.
func (m *matrix) column(r *rex.Regex) *column {
	if c, ok := m.cols[r]; ok && c != nil {
		return c
	}
	n := m.s.ar.len()
	cols := newColumns(1, n)
	c := &cols[0]
	exts := m.extScratch(n)
	m.buildColumn(r, c, exts)
	m.finishColumn(c, exts)
	m.cols[r] = c
	return c
}

// ensure builds the missing columns for a batch of regexes, fanning the
// regex-versus-item matching across Options.Workers goroutines (the
// intra-suffix parallelism knob; one big suffix no longer serializes on
// a single core while a Learner's per-suffix fan-out sits idle). Results
// are slotted by index and interned in batch order, so the matrix state
// is deterministic regardless of scheduling.
//
// ensure is the learner's cancellation grain: the context is checked
// before every column build, so a deadline or cancellation interrupts a
// suffix within one regex-versus-items pass. On cancellation the
// unbuilt columns release their reservations (a later attempt rebuilds
// them) and ctx.Err() is returned.
func (m *matrix) ensure(ctx context.Context, regexes []*rex.Regex) error {
	var missing []*rex.Regex
	for _, r := range regexes {
		if _, ok := m.cols[r]; ok {
			continue
		}
		// Reserve the slot so duplicate pointers in one batch build once.
		m.cols[r] = nil
		missing = append(missing, r)
	}
	if len(missing) == 0 {
		return ctx.Err()
	}
	release := func() {
		for _, r := range missing {
			if m.cols[r] == nil {
				delete(m.cols, r)
			}
		}
	}
	if err := faultinject.Fire(ctx, faultinject.StageMatrixBatch, m.s.Suffix); err != nil {
		release()
		return err
	}
	workers := m.s.opts.workers()
	if workers > len(missing) {
		workers = len(missing)
	}
	// One column arena for the whole batch and the matrix's extraction
	// scratch; workers fill disjoint slots, so no synchronization beyond
	// the job channel is needed.
	n := m.s.ar.len()
	cols := newColumns(len(missing), n)
	extsSlab := m.extScratch(n * len(missing))
	done := make([]bool, len(missing))
	if workers <= 1 {
		for i, r := range missing {
			if ctx.Err() != nil {
				break
			}
			m.buildColumn(r, &cols[i], extsSlab[i*n:(i+1)*n])
			done[i] = true
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					if ctx.Err() != nil {
						continue // drain remaining jobs without building
					}
					m.buildColumn(missing[i], &cols[i], extsSlab[i*n:(i+1)*n])
					done[i] = true
				}
			}()
		}
	dispatch:
		for i := range missing {
			select {
			case jobs <- i:
			case <-ctx.Done():
				break dispatch
			}
		}
		close(jobs)
		wg.Wait()
	}
	// Finish serially in batch order. Under cancellation some columns
	// were never built: drop their reservations and report the abort.
	for i, r := range missing {
		if !done[i] {
			continue
		}
		m.finishColumn(&cols[i], extsSlab[i*n:(i+1)*n])
		m.cols[r] = &cols[i]
	}
	if err := ctx.Err(); err != nil {
		release()
		return err
	}
	return nil
}

// workers resolves the intra-suffix parallelism for Options.
func (o Options) workers() int {
	if o.Workers == 1 {
		return 1
	}
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// evalSet scores an ordered column list with §3.5 first-match semantics,
// returning the identical Eval the naive Evaluate produces for the
// corresponding regex set, including the unique-extraction counts.
func (m *matrix) evalSet(cols []*column) Eval {
	var e Eval
	n := m.s.ar.len()
	remaining := m.remaining
	remaining.fill(n)
	m.seenGen++
	gen := m.seenGen
	uniqueTP, uniqueAll := 0, 0
	for _, c := range cols {
		if c.bad {
			continue
		}
		for w := range remaining {
			newly := c.matched[w] & remaining[w]
			if newly == 0 {
				continue
			}
			remaining[w] &^= newly
			e.TP += bits.OnesCount64(newly & c.tp[w])
			e.Matches += bits.OnesCount64(newly)
			for rest := newly; rest != 0; rest &= rest - 1 {
				i := w*64 + bits.TrailingZeros64(rest)
				id := c.ext[i]
				if m.seenAll[id] != gen {
					m.seenAll[id] = gen
					uniqueAll++
				}
				if c.tp.get(i) && m.seenTP[id] != gen {
					m.seenTP[id] = gen
					uniqueTP++
				}
			}
		}
	}
	e.FP = e.Matches - e.TP
	for w := range remaining {
		e.FN += bits.OnesCount64(remaining[w] & m.apparent[w])
	}
	e.UniqueTP = uniqueTP
	e.UniqueExtract = uniqueAll
	return e
}

// setState tracks the working set's aggregate outcomes during the §3.5
// greedy construction. Each trial "would adding this regex raise ATP?"
// folds one column into the still-unmatched remainder in O(items/64)
// word operations instead of re-running every regex in the working set.
type setState struct {
	m         *matrix
	remaining bitset // items no regex in the working set has matched
	tp        int
	matches   int
	fn        int
}

// newSetState starts from the empty set: nothing matched, every
// apparent-ASN item a false negative.
func (m *matrix) newSetState() *setState {
	n := m.s.ar.len()
	st := &setState{m: m, remaining: newBitset(n)}
	st.remaining.fill(n)
	st.fn = m.apparent.count()
	return st
}

func (st *setState) atp() int { return st.tp - (st.matches - st.tp) - st.fn }

// trialATP returns Evaluate(workingSet, c).ATP() without materializing
// the trial set: items the working set already matched keep their
// outcomes (first-match semantics), so only c's newly matched items
// contribute deltas.
func (st *setState) trialATP(c *column) int {
	if c.bad {
		return st.atp()
	}
	tp, matches, fnDrop := st.tp, st.matches, 0
	for w, rem := range st.remaining {
		newly := c.matched[w] & rem
		if newly == 0 {
			continue
		}
		tp += bits.OnesCount64(newly & c.tp[w])
		matches += bits.OnesCount64(newly)
		fnDrop += bits.OnesCount64(newly & st.m.apparent[w])
	}
	return tp - (matches - tp) - (st.fn - fnDrop)
}

// absorb appends c to the working set, committing the deltas trialATP
// previewed.
func (st *setState) absorb(c *column) {
	if c.bad {
		return
	}
	for w, rem := range st.remaining {
		newly := c.matched[w] & rem
		if newly == 0 {
			continue
		}
		st.remaining[w] &^= newly
		st.tp += bits.OnesCount64(newly & c.tp[w])
		st.matches += bits.OnesCount64(newly)
		st.fn -= bits.OnesCount64(newly & st.m.apparent[w])
	}
}
