package serve

// Two-phase corpus rollout, node side. A cluster-wide corpus swap must
// be all-or-nothing: if one node of a shard's replica set serves the new
// corpus while another serves the old one, a client retrying across
// replicas observes two generations inside one logical deployment. The
// coordinator (internal/cluster) drives three rounds against every node:
//
//	prepare  — the corpus bytes arrive in the request body, are loaded
//	           and validated into a side buffer, and do NOT serve. The
//	           ack carries the prepared fingerprint and the serving
//	           generation it would supersede.
//	validate — the node re-acks the prepared fingerprint and confirms
//	           the serving generation has not moved since prepare (a
//	           concurrent reload/rollback invalidates the epoch).
//	commit   — the node checks the coordinator's expected fingerprint
//	           against its side buffer one last time, persists the
//	           bytes over CorpusPath (atomic temp+rename, so a restart
//	           boots this generation), and publishes the prepared
//	           corpus through publishLocked, the one publish step
//	           Reload and Rollback share.
//	abort    — the side buffer is dropped; serving state is untouched.
//
// Every step is serialized under reloadMu with Reload/Rollback, so the
// rollout protocol and the single-node admin surface can never
// interleave half-applied states. Every reply body is the node's
// Status document; the acks' proof is in their headers.

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"hoiho/internal/atomicfile"
	"hoiho/internal/corpusbin"
	"hoiho/internal/extract"
)

// preparedCorpus is the rollout side buffer: a fully validated corpus
// plus the exact bytes that produced it, staged but not serving.
type preparedCorpus struct {
	corpus *extract.Corpus
	data   []byte
	at     time.Time
	// gen is the serving generation observed at prepare time; commit
	// refuses to publish over any other generation.
	gen uint64
	// epoch is the coordinator's rollout epoch, carried through to the
	// last-rollout outcome so /statusz ties results to epochs.
	epoch uint64
}

// PrepareCorpus stages data into the rollout side buffer. The payload
// is sniffed: a full HBC corpus (with the node's class filter applied)
// loads exactly as a Reload would; an HBD delta is applied against the
// *live* corpus, and the side buffer receives the complete patched
// target — commit always persists a full corpus, never a
// patch. A delta whose base is not the live corpus is refused with
// ErrBaseMismatch (nothing staged, nothing served changes), the signal
// the coordinator turns into a full-corpus resend for this node. The
// running corpus is untouched in every failure mode. It returns the
// prepared fingerprint and the serving generation the prepared corpus
// would supersede, and logs one line per staged corpus: the epoch,
// delta or full, where the time went and how many records were copied
// and inserted.
func (s *Server) PrepareCorpus(data []byte, epoch uint64) (fp string, gen uint64, err error) {
	s.reloadMu.Lock()
	fp, gen, how, err := s.prepareLocked(data, epoch)
	s.reloadMu.Unlock()
	if err == nil {
		s.logf("rollout prepare: epoch %d %s; corpus %s staged over generation %d", epoch, how, fp, gen)
	}
	return fp, gen, err
}

// prepareLocked is PrepareCorpus's work under reloadMu; how details the
// prepare for its log line.
func (s *Server) prepareLocked(data []byte, epoch uint64) (fp string, gen uint64, how string, err error) {
	var corpus *extract.Corpus
	if corpusbin.IsHBD(data) {
		snap := s.state.Load()
		if snap == nil {
			err := fmt.Errorf("%w: no corpus loaded to patch", ErrBaseMismatch)
			s.noteRolloutLocked(epoch, "", "failed", err)
			return "", 0, "", err
		}
		applied, full, st, aerr := extract.ApplyDeltaStats(snap.corpus, data, s.corpusOpts...)
		if aerr != nil {
			if errors.Is(aerr, corpusbin.ErrDeltaBaseMismatch) {
				err := fmt.Errorf("%w: %w", ErrBaseMismatch, aerr)
				s.noteRolloutLocked(epoch, "", "failed", err)
				return "", 0, "", err
			}
			s.noteRolloutLocked(epoch, "", "failed", aerr)
			return "", 0, "", s.rejectLocked("(rollout delta)", aerr)
		}
		corpus, data = applied, full
		how = fmt.Sprintf("delta, apply %v, index %v, %d records copied, %d inserted",
			st.Apply.Round(time.Microsecond), st.Index.Round(time.Microsecond), st.Copied, st.Inserted)
	} else {
		start := time.Now()
		if corpus, err = s.loadLocked(data, "(rollout prepare)"); err != nil {
			s.noteRolloutLocked(epoch, "", "failed", err)
			return "", 0, "", err
		}
		how = fmt.Sprintf("full, load %v, %d records", time.Since(start).Round(time.Microsecond), corpus.Len())
		data = append([]byte(nil), data...)
	}
	gen = s.generation.Load()
	s.prepared = &preparedCorpus{
		corpus: corpus,
		data:   data,
		at:     time.Now(),
		gen:    gen,
		epoch:  epoch,
	}
	s.stats.prepares.Add(1)
	return corpus.FingerprintString(), gen, how, nil
}

// ValidatePrepared acks the side buffer: the prepared fingerprint and
// the serving generation recorded at prepare. ErrNoPrepared when the
// prepare phase never reached this node (or an abort cleared it);
// ErrPreparedStale when the serving generation moved since prepare.
func (s *Server) ValidatePrepared() (fp string, gen uint64, err error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if s.prepared == nil {
		return "", 0, ErrNoPrepared
	}
	if s.generation.Load() != s.prepared.gen {
		return "", 0, ErrPreparedStale
	}
	return s.prepared.corpus.FingerprintString(), s.prepared.gen, nil
}

// CommitPrepared publishes the side buffer. wantFP, when non-empty, must
// equal the prepared fingerprint — the coordinator's proof that this
// node is about to publish the same corpus every other node validated.
// The shipped bytes are persisted over CorpusPath first (atomic
// temp+rename), so a node that restarts after commit boots the
// committed generation; if persistence fails the commit fails and the
// old corpus keeps serving, with the side buffer retained for a retry.
func (s *Server) CommitPrepared(wantFP string) (*snapshot, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	p := s.prepared
	if p == nil {
		return nil, ErrNoPrepared
	}
	if s.generation.Load() != p.gen {
		return nil, ErrPreparedStale
	}
	if have := p.corpus.FingerprintString(); wantFP != "" && wantFP != have {
		err := &CommitMismatchError{Want: wantFP, Have: have}
		s.noteRolloutLocked(p.epoch, have, "failed", err)
		return nil, err
	}
	if err := atomicfile.WriteFile(s.cfg.CorpusPath, func(w io.Writer) error {
		_, err := w.Write(p.data)
		return err
	}); err != nil {
		s.noteErrLocked(err)
		s.noteRolloutLocked(p.epoch, p.corpus.FingerprintString(), "failed", err)
		return nil, &ReloadError{Path: s.cfg.CorpusPath, Err: err}
	}
	snap := s.publishLocked(p.corpus, s.cfg.CorpusPath)
	s.prepared = nil
	s.stats.commits.Add(1)
	s.noteRolloutLocked(p.epoch, snap.corpus.FingerprintString(), "committed", nil)
	return snap, nil
}

// AbortPrepared drops the side buffer and reports whether one was held.
// Aborting is idempotent and never touches serving state — it is the
// safe answer to any rollout that went wrong anywhere in the cluster.
func (s *Server) AbortPrepared() bool {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	dropped := s.prepared != nil
	if dropped {
		s.noteRolloutLocked(s.prepared.epoch, s.prepared.corpus.FingerprintString(), "aborted", nil)
	}
	s.prepared = nil
	if dropped {
		s.stats.aborts.Add(1)
	}
	return dropped
}

// noteErrLocked records the most recent reload/prepare/commit failure
// for /statusz. Callers hold reloadMu.
func (s *Server) noteErrLocked(err error) {
	s.lastErr = err.Error()
	s.lastErrAt = time.Now()
}

// noteRolloutLocked records how the last rollout that touched this node
// ended. Callers hold reloadMu.
func (s *Server) noteRolloutLocked(epoch uint64, fp, outcome string, err error) {
	o := &RolloutOutcome{Epoch: epoch, Fingerprint: fp, Outcome: outcome, At: time.Now()}
	if err != nil {
		o.Error = err.Error()
	}
	s.lastRollout = o
}

// RolloutOutcome is how the last rollout epoch that touched this node
// ended. Its absence from /statusz means no rollout ever reached the
// node — operators and the anti-entropy sweep can tell "never rolled
// out" from "rolled out and aborted", which a bare fingerprint cannot.
type RolloutOutcome struct {
	// Epoch is the coordinator's rollout epoch (0 when the prepare was
	// driven without one, e.g. a direct node-level call).
	Epoch uint64 `json:"epoch"`
	// Fingerprint is the target corpus of that epoch, when it was known
	// by the time the outcome was recorded.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Outcome is "committed", "aborted", or "failed".
	Outcome string `json:"outcome"`
	// Error carries the failure when Outcome is "failed".
	Error string    `json:"error,omitempty"`
	At    time.Time `json:"at"`
}

// handlePrepare stages the corpus (or HBD delta) carried in the request
// body. The ack reuses the corpus headers as proof: X-Hoiho-Corpus is
// the PREPARED fingerprint (what this node would publish),
// X-Hoiho-Generation the serving generation it would supersede. A delta
// whose base is not the live corpus nacks 409 with the
// X-Hoiho-Rollout-Nack: base-mismatch header, the coordinator's cue to
// resend the full corpus to this node only.
func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	data, err := ReadBody(r, maxRolloutBytes, nil)
	if errors.Is(err, ErrBodyTooLarge) {
		http.Error(w, "serve: rollout corpus exceeds byte cap", http.StatusRequestEntityTooLarge)
		return
	}
	if err != nil {
		http.Error(w, "serve: reading rollout body: "+err.Error(), http.StatusBadRequest)
		return
	}
	// A missing epoch means 0 (a direct node call outside any rollout);
	// a malformed one is refused before anything is staged or recorded.
	var epoch uint64
	if v := r.URL.Query().Get("epoch"); v != "" {
		if epoch, err = strconv.ParseUint(v, 10, 64); err != nil {
			http.Error(w, fmt.Sprintf("serve: rollout prepare: invalid epoch parameter %q", v), http.StatusBadRequest)
			return
		}
	}
	fp, gen, err := s.PrepareCorpus(data, epoch)
	if err != nil {
		s.logf("rollout prepare rejected: %v", err)
		if errors.Is(err, ErrBaseMismatch) {
			w.Header().Set("X-Hoiho-Rollout-Nack", "base-mismatch")
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	s.ackPrepared(w, fp, gen)
}

// handleValidate re-acks the side buffer without changing anything.
func (s *Server) handleValidate(w http.ResponseWriter, r *http.Request) {
	fp, gen, err := s.ValidatePrepared()
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	s.ackPrepared(w, fp, gen)
}

// handleCommit publishes the side buffer if its fingerprint matches the
// coordinator's ?fingerprint= expectation.
func (s *Server) handleCommit(w http.ResponseWriter, r *http.Request) {
	snap, err := s.CommitPrepared(r.URL.Query().Get("fingerprint"))
	if err != nil {
		s.logf("rollout commit refused: %v", err)
		code := http.StatusConflict
		var re *ReloadError
		if errors.As(err, &re) {
			code = http.StatusInternalServerError // persistence failure
		}
		http.Error(w, err.Error(), code)
		return
	}
	s.logf("rollout commit: generation %d, corpus %s", snap.generation, snap.corpus.FingerprintString())
	stamp(w, snap)
	writeJSON(w, http.StatusOK, s.status(snap))
}

func (s *Server) handleAbort(w http.ResponseWriter, r *http.Request) {
	if s.AbortPrepared() {
		s.logf("rollout abort: prepared corpus dropped")
	}
	writeJSON(w, http.StatusOK, s.StatusNow())
}

// ackPrepared stamps a prepare/validate ack with the side-buffer
// identity headers, the ack's proof; the body is the node's Status.
func (s *Server) ackPrepared(w http.ResponseWriter, fp string, gen uint64) {
	w.Header().Set("X-Hoiho-Corpus", fp)
	w.Header().Set("X-Hoiho-Generation", strconv.FormatUint(gen, 10))
	writeJSON(w, http.StatusOK, s.StatusNow())
}

// maxRolloutBytes caps a shipped rollout corpus, matching extract.Load's
// own input cap so anything prepare accepts, Load can read.
const maxRolloutBytes = 64 << 20
