package serve

import (
	"bytes"
	"context"
	"io"
	"os"
	"sync/atomic"
	"time"

	"hoiho/internal/extract"
	"hoiho/internal/faultinject"
)

// snapshot is one immutable, fully validated corpus generation. The
// server publishes snapshots through an atomic pointer: a request loads
// the pointer exactly once and serves entirely from that snapshot, so a
// concurrent swap can never mix two corpora inside one response.
type snapshot struct {
	corpus *extract.Corpus
	// source is the file the corpus was loaded from.
	source string
	// generation counts successful publishes since boot, starting at 1.
	generation uint64
	// loadedAt is when this snapshot was published.
	loadedAt time.Time
}

// Reload loads the corpus file's bytes through the same full-corpus
// load step as a rollout prepare (the hardened extract.Load refuses
// truncated, oversized, versionless, or empty corpora) and only then
// publishes the result. The previous snapshot is retained for Rollback.
// On any failure the running corpus is untouched — a poisoned file on
// disk costs a logged error, never an outage. Reload only reads
// CorpusPath and leaves a rollout's side buffer alone (a prepared
// corpus it supersedes goes stale through the generation check).
//
// Reloads are serialized; concurrent triggers (SIGHUP racing the admin
// endpoint) queue rather than interleave.
func (s *Server) Reload(ctx context.Context) (*snapshot, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	path := s.cfg.CorpusPath
	if err := faultinject.Fire(ctx, faultinject.StageServeReload, path); err != nil {
		return nil, s.rejectLocked(path, err)
	}
	data, err := readCorpusFile(path)
	if err != nil {
		return nil, s.rejectLocked(path, err)
	}
	corpus, err := s.loadLocked(data, path)
	if err != nil {
		return nil, err
	}
	snap := s.publishLocked(corpus, path)
	s.stats.reloads.Add(1)
	return snap, nil
}

// readCorpusFile reads a corpus file up to the load cap; anything
// longer is passed on one byte over the cap so loading rejects it.
func readCorpusFile(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(io.LimitReader(f, maxRolloutBytes+1))
}

// loadLocked is the full-corpus load step Reload and a rollout prepare
// share: data (JSON or HBC, sniffed) loads under the node's class
// filter. A failure is counted, recorded for /statusz, and returned as
// a ReloadError naming source. Callers hold reloadMu.
func (s *Server) loadLocked(data []byte, source string) (*extract.Corpus, error) {
	corpus, err := extract.Load(bytes.NewReader(data), s.corpusOpts...)
	if err != nil {
		return nil, s.rejectLocked(source, err)
	}
	return corpus, nil
}

// rejectLocked accounts a corpus that failed to read, load or apply.
// Callers hold reloadMu.
func (s *Server) rejectLocked(source string, err error) error {
	s.stats.reloadFailures.Add(1)
	s.noteErrLocked(err)
	return &ReloadError{Path: source, Err: err}
}

// publishLocked is the one way a corpus starts serving: it wraps corpus
// in a snapshot under a fresh generation, swaps it in, and retains the
// snapshot it replaced for Rollback. Callers hold reloadMu.
func (s *Server) publishLocked(corpus *extract.Corpus, source string) *snapshot {
	snap := &snapshot{
		corpus:     corpus,
		source:     source,
		generation: s.generation.Add(1),
		loadedAt:   time.Now(),
	}
	if old := s.state.Swap(snap); old != nil {
		s.prev.Store(old)
	}
	return snap
}

// Rollback republishes the previous snapshot — the single-node escape
// hatch when a reload validated but turned out to be semantically wrong
// (a stale or mislearned corpus). It republishes under a fresh
// generation, so consumers watching X-Hoiho-Generation see rollback as
// a distinct transition, and the rolled-back-from snapshot becomes the
// new "previous", so a second rollback swaps forward again. Rollback
// does not rewrite CorpusPath: a restart or reload serves the file.
func (s *Server) Rollback() (*snapshot, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	prev := s.prev.Load()
	if prev == nil {
		return nil, ErrNoRollback
	}
	snap := s.publishLocked(prev.corpus, prev.source)
	s.stats.rollbacks.Add(1)
	return snap, nil
}

// counters is the daemon's monotonic stats block, all atomics so the
// hot path never takes a lock to account for itself.
type counters struct {
	requests       atomic.Uint64 // extraction requests received
	served         atomic.Uint64 // extraction responses written (found or not)
	found          atomic.Uint64 // extractions that produced an ASN
	shed           atomic.Uint64 // requests rejected by admission control
	drained        atomic.Uint64 // requests rejected because draining
	deadline       atomic.Uint64 // requests that blew their deadline in-handler
	panics         atomic.Uint64 // handler panics converted to 500s
	reloads        atomic.Uint64 // successful corpus publishes via Reload
	reloadFailures atomic.Uint64 // rejected reload attempts
	rollbacks      atomic.Uint64 // successful rollbacks
	prepares       atomic.Uint64 // rollout corpora staged into the side buffer
	commits        atomic.Uint64 // rollout side buffers published
	aborts         atomic.Uint64 // rollout side buffers dropped
}
