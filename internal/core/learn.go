package core

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"

	"hoiho/internal/faultinject"
	"hoiho/internal/psl"
	"hoiho/internal/rex"
)

// NC is a learned naming convention for one suffix: an ordered set of
// regexes (most hostnames are matched by the first; later regexes catch
// alternate formats, §3.5), its evaluation on the training data, and its
// §4 classification.
type NC struct {
	Suffix  string
	Regexes []*rex.Regex
	Eval    Eval
	Class   Classification
	// Single marks figure 2-style conventions whose every extraction is
	// one organization's ASN (the "single NCs" of §4 / table 1).
	Single bool
}

// Extract applies the NC to a hostname, returning the extracted ASN
// digits from the first matching regex.
func (nc *NC) Extract(host string) (string, bool) {
	for _, r := range nc.Regexes {
		if asn, _, _, ok := r.Extract(host); ok {
			return asn, true
		}
	}
	return "", false
}

// Strings renders the NC's regexes.
func (nc *NC) Strings() []string {
	out := make([]string, len(nc.Regexes))
	for i, r := range nc.Regexes {
		out[i] = r.String()
	}
	return out
}

// Learn runs the full four-phase pipeline on the set and returns the best
// NC, or nil when no hostname contains an apparent ASN (the suffix has no
// learnable ASN convention). The context is checked between phases and
// before every match-matrix column build; on cancellation or deadline the
// partial work is discarded and the context's error is returned.
func (s *Set) Learn(ctx context.Context) (*NC, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	base := s.generate()
	if len(base) == 0 {
		return nil, nil
	}

	pool := base
	if !s.opts.DisableMerge {
		pool = s.mergePhase(pool)
	}
	cands, err := s.score(ctx, pool)
	if err != nil {
		return nil, err
	}
	s.rank(cands)
	cands = s.truncate(cands)

	if !s.opts.DisableClasses {
		if cands, err = s.classPhase(ctx, cands); err != nil {
			return nil, err
		}
		s.rank(cands)
		cands = s.truncate(cands)
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var ncs []candidateNC
	for i, c := range cands {
		// The top-ranked single regexes are NC candidates themselves.
		if i >= s.opts.maxSingleNCs() {
			break
		}
		ncs = append(ncs, candidateNC{regexes: []*rex.Regex{c.regex}, eval: c.eval})
	}
	if !s.opts.DisableSets {
		ncs = append(ncs, s.setPhase(cands)...)
	}
	best := s.selectBest(ncs)
	if best == nil {
		return nil, nil
	}
	nc := &NC{Suffix: s.Suffix, Regexes: best.regexes, Eval: best.eval}
	nc.Class = s.Classify(nc.Eval)
	nc.Single = nc.Eval.TP > 0 && nc.Eval.UniqueExtract == 1
	return nc, nil
}

// score evaluates each regex in the pool through the match matrix: the
// columns are built in parallel (bounded by Options.Workers) and each
// regex's Eval is the memoized column aggregate. Regexes that fail to
// compile are dropped, as before.
func (s *Set) score(ctx context.Context, pool []*rex.Regex) ([]scored, error) {
	m := s.mx
	if err := m.ensure(ctx, pool); err != nil {
		return nil, err
	}
	out := make([]scored, 0, len(pool))
	for _, r := range pool {
		c := m.column(r)
		if c.bad {
			continue
		}
		out = append(out, scored{regex: r, eval: c.eval})
	}
	return out, nil
}

func (s *Set) truncate(cands []scored) []scored {
	if max := s.opts.maxCandidates(); len(cands) > max {
		return cands[:max]
	}
	return cands
}

// mergePhase implements §3.3: repeatedly merge pairs of regexes that
// differ by a single simple string into alternations, keeping both the
// originals and the merged forms in the pool (ranking decides winners).
func (s *Set) mergePhase(pool []*rex.Regex) []*rex.Regex {
	seen := make(map[string]bool, len(pool))
	for _, r := range pool {
		seen[r.String()] = true
	}
	work := pool
	for round := 0; round < 3 && len(work) > 0; round++ {
		var produced []*rex.Regex
		// Bucket by token count to cut the pairing quadratic: merges only
		// apply to regexes whose lengths differ by at most one.
		byLen := make(map[int][]*rex.Regex)
		for _, r := range pool {
			byLen[r.NumTokens()] = append(byLen[r.NumTokens()], r)
		}
		for _, r := range work {
			n := r.NumTokens()
			for _, m := range []int{n - 1, n, n + 1} {
				for _, o := range byLen[m] {
					if o == r {
						continue
					}
					merged, ok := rex.Merge(r, o)
					if !ok {
						continue
					}
					key := merged.String()
					if seen[key] {
						continue
					}
					seen[key] = true
					produced = append(produced, merged)
				}
			}
			if len(pool)+len(produced) > 4*s.opts.maxCandidates() {
				break
			}
		}
		pool = append(pool, produced...)
		work = produced
	}
	return pool
}

// classPhase implements §3.4: for each ranked candidate, replace
// exclusion components with the narrowest character class covering the
// substrings those components matched across the training data, adding
// the specialized regex to the pool.
func (s *Set) classPhase(ctx context.Context, cands []scored) ([]scored, error) {
	seen := make(map[string]bool, len(cands))
	for _, c := range cands {
		seen[c.regex.String()] = true
	}
	m := s.mx
	var produced []*rex.Regex
	for _, c := range cands {
		r := s.embedClasses(c.regex, m.column(c.regex))
		if r == nil {
			continue
		}
		key := r.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		produced = append(produced, r)
	}
	if err := m.ensure(ctx, produced); err != nil {
		return nil, err
	}
	out := cands
	for _, r := range produced {
		out = append(out, scored{regex: r, eval: m.column(r).eval})
	}
	return out, nil
}

// embedClasses returns a copy of r with every exclusion component whose
// matched substrings admit a character class replaced by that class; nil
// when nothing changed. It walks only the items r's column c matched,
// taking each token's span from the column's compiled program, with the
// stdlib oracle (rex.Regex.AppendTokenSpans) for a program that cannot
// say.
func (s *Set) embedClasses(r *rex.Regex, c *column) *rex.Regex {
	exclIdx := make([]int, 0, 2)
	for i := 0; i < r.NumTokens(); i++ {
		if r.Token(i).Kind == rex.KindExcl {
			exclIdx = append(exclIdx, i)
		}
	}
	if len(exclIdx) == 0 {
		return nil
	}
	fits := make([]rex.ClassFit, len(exclIdx))
	var spanBuf [][2]int
	for w, word := range c.matched {
		for rest := word; rest != 0; rest &= rest - 1 {
			full := s.ar.full[w*64+bits.TrailingZeros64(rest)]
			spans, ok := c.eng.AppendTokenSpans(spanBuf, 0, full)
			if !ok {
				spans, ok = r.AppendTokenSpans(spanBuf, full)
			}
			spanBuf = spans[:0]
			if !ok {
				continue
			}
			for j, ti := range exclIdx {
				if sp := spans[ti]; sp[0] >= 0 && sp[1] > sp[0] {
					fits[j].Add(full[sp[0]:sp[1]])
				}
			}
		}
	}
	var toks []rex.Token
	for j, ti := range exclIdx {
		cl, ok := fits[j].Class()
		if !ok {
			continue
		}
		if toks == nil {
			toks = r.Tokens()
		}
		toks[ti] = rex.ClassTok(cl)
	}
	if toks == nil {
		return nil
	}
	var (
		nr  *rex.Regex
		err error
	)
	if r.LeftOpen() {
		nr, err = rex.NewOpen(toks...)
	} else {
		nr, err = rex.New(toks...)
	}
	if err != nil {
		return nil
	}
	return nr
}

// candidateNC is an NC candidate produced by phase 4.
type candidateNC struct {
	regexes []*rex.Regex
	eval    Eval
}

// setPhase implements §3.5: starting from each of the top-ranked regexes,
// greedily add lower-ranked regexes whenever the combination's ATP
// exceeds the working set's. Every candidate already has a memoized
// match-matrix column from scoring, so each greedy trial is an
// incremental combine — fold the candidate's column into the working
// set's unmatched remainder — instead of re-running every regex in the
// working set against every item.
func (s *Set) setPhase(cands []scored) []candidateNC {
	m := s.mx
	starts := s.opts.maxSetStarts()
	if starts > len(cands) {
		starts = len(cands)
	}
	maxSize := s.opts.maxSetSize()
	var out []candidateNC
	for st := 0; st < starts; st++ {
		state := m.newSetState()
		state.absorb(m.column(cands[st].regex))
		set := []*rex.Regex{cands[st].regex}
		curATP := state.atp()
		for j := st + 1; j < len(cands) && len(set) < maxSize; j++ {
			c := m.column(cands[j].regex)
			if state.trialATP(c) > curATP {
				state.absorb(c)
				set = append(set, cands[j].regex)
				curATP = state.atp()
			}
		}
		if len(set) > 1 {
			cols := make([]*column, len(set))
			for i, r := range set {
				cols[i] = m.column(r)
			}
			out = append(out, candidateNC{regexes: set, eval: m.evalSet(cols)})
		}
	}
	return out
}

// selectBest implements §3.6: rank NCs by ATP and pick the top, then
// allow a lower-ranked NC expressed in fewer regexes to take over if it
// matches at least as many hostnames, has at least as many TPs, and at
// most one extra FP (less opportunity for over-fitting).
func (s *Set) selectBest(ncs []candidateNC) *candidateNC {
	if len(ncs) == 0 {
		return nil
	}
	sort.SliceStable(ncs, func(i, j int) bool {
		a, b := ncs[i], ncs[j]
		if a.eval.ATP() != b.eval.ATP() {
			return a.eval.ATP() > b.eval.ATP()
		}
		if len(a.regexes) != len(b.regexes) {
			return len(a.regexes) < len(b.regexes)
		}
		if a.eval.TP != b.eval.TP {
			return a.eval.TP > b.eval.TP
		}
		sa, sb := ncSpecificity(a), ncSpecificity(b)
		if sa != sb {
			return sa > sb
		}
		return ncKey(a) < ncKey(b)
	})
	best := &ncs[0]
	for i := 1; i < len(ncs); i++ {
		nc := &ncs[i]
		if len(nc.regexes) < len(best.regexes) &&
			nc.eval.Matches >= best.eval.Matches &&
			nc.eval.TP >= best.eval.TP &&
			nc.eval.FP <= best.eval.FP+1 {
			best = nc
		}
	}
	return best
}

func ncSpecificity(nc candidateNC) int {
	sum := 0
	for _, r := range nc.regexes {
		sum += specificity(r)
	}
	return sum
}

func ncKey(nc candidateNC) string {
	var sb strings.Builder
	for _, r := range nc.regexes {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Learner runs the pipeline over many suffixes.
type Learner struct {
	Opts Options
	// MinItems is the minimum number of usable training items a suffix
	// needs before learning is attempted (default 4: below that, a regex
	// cannot demonstrate multiple distinct congruent ASNs).
	MinItems int
	// Workers bounds the suffixes learned concurrently, and (unless
	// Opts.Workers overrides it) the goroutines each suffix may use to
	// score its candidate pool — so a single dominant suffix no longer
	// bounds the tail latency of a whole Learn run. 0 means GOMAXPROCS,
	// 1 forces serial execution.
	Workers int
	// Checkpoint, when non-empty, makes Learn durable: every completed
	// suffix's outcome is staged there, flushed atomically (temp file +
	// rename) every CheckpointEvery completions and again when the run
	// finishes or is cancelled. See checkpoint.go for the format.
	Checkpoint string
	// CheckpointEvery is the flush cadence in completed suffixes.
	// 0 means the default (16).
	CheckpointEvery int
	// Resume loads the Checkpoint file (when it exists) before learning
	// and skips the suffixes it already covers, so an interrupted run
	// picks up where it left off. Requires Checkpoint; refused when the
	// checkpoint was written under different learning options.
	Resume bool
}

// SuffixError is one quarantined suffix: learning it panicked, exceeded
// Options.SuffixTimeout, or failed with a transient error. The rest of
// the run is unaffected — the paper's corpora are noisy (§4), and one
// pathological suffix must degrade one NC, not the fleet.
type SuffixError struct {
	Suffix string
	// Err is the non-panic failure (context.DeadlineExceeded for a
	// blown suffix budget); nil when the suffix panicked.
	Err error
	// Panic is the recovered panic value, nil otherwise.
	Panic any
	// Stack is the goroutine stack captured at recovery, for post-mortem
	// debugging of quarantined panics.
	Stack []byte
}

func (e *SuffixError) Error() string {
	if e.Panic != nil {
		return fmt.Sprintf("core: suffix %s: panic: %v", e.Suffix, e.Panic)
	}
	return fmt.Sprintf("core: suffix %s: %v", e.Suffix, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As (e.g. matching
// context.DeadlineExceeded for timed-out suffixes).
func (e *SuffixError) Unwrap() error { return e.Err }

// Report is the outcome of a Learner.Learn run.
type Report struct {
	// NCs are the learned conventions, sorted by suffix, including any
	// restored from a resumed checkpoint.
	NCs []*NC
	// Learned counts suffixes completed this run (with or without a
	// resulting NC); Resumed counts suffixes skipped via the checkpoint.
	Learned int
	Resumed int
	// Quarantined lists the suffixes isolated by the per-suffix fault
	// boundary, sorted by suffix. They are not recorded in the
	// checkpoint, so a resumed run retries them.
	Quarantined []*SuffixError
}

// LearnSuffix builds a set for one suffix and learns its NC under the
// context and, when Options.SuffixTimeout is set, a per-suffix deadline.
// The learner's Workers knob doubles as the intra-suffix scoring
// parallelism unless Opts.Workers overrides it. Panics are not caught
// here — Learn adds the quarantine boundary.
func (l *Learner) LearnSuffix(ctx context.Context, suffix string, items []Item) (*NC, error) {
	return l.learnSuffix(ctx, suffix, items, new(scratch))
}

// learnSuffix is LearnSuffix on a worker's scratch.
func (l *Learner) learnSuffix(ctx context.Context, suffix string, items []Item, sc *scratch) (*NC, error) {
	opts := l.Opts
	if opts.Workers == 0 {
		opts.Workers = l.Workers
	}
	if err := faultinject.Fire(ctx, faultinject.StageLearnSuffix, suffix); err != nil {
		return nil, err
	}
	if t := opts.SuffixTimeout; t > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
	}
	set, err := newSet(suffix, items, opts, sc)
	if err != nil {
		return nil, err
	}
	min := l.MinItems
	if min <= 0 {
		min = 4
	}
	if set.Len() < min {
		return nil, nil
	}
	return set.Learn(ctx)
}

// learnOne learns one suffix on the calling worker's scratch inside the
// quarantine boundary: a panic or a suffix-local failure (timeout,
// transient error, bad set) becomes a *SuffixError; cancellation of the
// run's own context aborts instead.
func (l *Learner) learnOne(ctx context.Context, suffix string, items []Item, sc *scratch) (nc *NC, quar *SuffixError, runErr error) {
	defer func() {
		if r := recover(); r != nil {
			nc = nil
			quar = &SuffixError{Suffix: suffix, Panic: r, Stack: debug.Stack()}
			runErr = nil
		}
	}()
	nc, err := l.learnSuffix(ctx, suffix, items, sc)
	if err == nil {
		return nc, nil, nil
	}
	if ctx.Err() != nil {
		// The whole run was cancelled or hit its deadline; not this
		// suffix's fault, and not quarantinable.
		return nil, nil, ctx.Err()
	}
	return nil, &SuffixError{Suffix: suffix, Err: err}, nil
}

// Learn groups items by registered domain and learns an NC per suffix
// concurrently (bounded by Workers), with per-suffix fault isolation:
// a suffix that panics, times out, or fails is quarantined in the
// report while every other suffix completes. Results are deterministic
// regardless of parallelism. On cancellation Learn flushes the
// checkpoint (when configured), returns the partial report, and
// reports ctx.Err().
func (l *Learner) Learn(ctx context.Context, list *psl.List, items []Item) (*Report, error) {
	if list == nil {
		return nil, fmt.Errorf("core: nil public suffix list")
	}
	groups, suffixes := GroupItems(list, items)

	ck, err := l.openCheckpoint()
	if err != nil {
		return nil, err
	}

	report := &Report{}
	results := make([]*NC, len(suffixes))
	quar := make([]*SuffixError, len(suffixes))
	pending := make([]int, 0, len(suffixes))
	for i, suf := range suffixes {
		if nc, done := ck.done(suf); done {
			results[i] = nc
			report.Resumed++
			continue
		}
		pending = append(pending, i)
	}

	workers := l.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pending) {
		workers = len(pending)
	}

	var runErr error
	if workers <= 1 {
		sc := new(scratch)
		for _, i := range pending {
			suf := suffixes[i]
			nc, qe, err := l.learnOne(ctx, suf, groups[suf], sc)
			if err != nil {
				runErr = err
				break
			}
			if qe != nil {
				quar[i] = qe
				continue
			}
			results[i] = nc
			report.Learned++
			if cerr := ck.record(suf, nc); cerr != nil {
				runErr = cerr
				break
			}
		}
		if runErr == nil {
			runErr = ctx.Err()
		}
	} else {
		// Fan out one job per suffix; slot results by index to keep the
		// suffix-sorted order independent of scheduling.
		jobs := make(chan int)
		var wg sync.WaitGroup
		var mu sync.Mutex
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sc := new(scratch)
				for i := range jobs {
					suf := suffixes[i]
					nc, qe, err := l.learnOne(ctx, suf, groups[suf], sc)
					mu.Lock()
					switch {
					case err != nil:
						if runErr == nil {
							runErr = err
						}
					case qe != nil:
						quar[i] = qe
					default:
						results[i] = nc
						report.Learned++
						if cerr := ck.record(suf, nc); cerr != nil && runErr == nil {
							runErr = cerr
						}
					}
					mu.Unlock()
				}
			}()
		}
	dispatch:
		for _, i := range pending {
			select {
			case jobs <- i:
			case <-ctx.Done():
				break dispatch
			}
		}
		close(jobs)
		wg.Wait()
		if runErr == nil {
			runErr = ctx.Err()
		}
	}

	// Flush whatever completed, even on abort: the checkpoint is the
	// crash-consistency story for long runs.
	if ferr := ck.flush(); ferr != nil && runErr == nil {
		runErr = ferr
	}

	for i := range suffixes {
		if quar[i] != nil {
			report.Quarantined = append(report.Quarantined, quar[i])
			continue
		}
		if results[i] != nil {
			report.NCs = append(report.NCs, results[i])
		}
	}
	return report, runErr
}

// LearnAll is the strict form of Learn for callers that treat any
// suffix failure as fatal: it returns the learned conventions sorted by
// suffix, or the first quarantined suffix's error. Suffixes with no
// learnable convention are omitted.
func (l *Learner) LearnAll(ctx context.Context, list *psl.List, items []Item) ([]*NC, error) {
	report, err := l.Learn(ctx, list, items)
	if err != nil {
		return nil, err
	}
	if len(report.Quarantined) > 0 {
		return nil, report.Quarantined[0]
	}
	return report.NCs, nil
}
