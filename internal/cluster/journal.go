package cluster

// Rollout journaling: the coordinator's crash-recovery log. A rollout
// epoch walks a strict phase ladder (prepare → validate → commit →
// committed, or → aborted), and before entering each phase the
// coordinator makes the *intent* durable — a small JSON state file
// written atomically, naming the epoch, the agreed target fingerprint,
// and each node's payload kind. A coordinator that dies mid-epoch
// leaves behind exactly one of:
//
//	prepare/validate — nothing has been published anywhere. Resume
//	                   aborts: every side buffer is dropped and the
//	                   epoch is marked aborted. Safe because commit was
//	                   never journaled, so no node can have published.
//	commit           — some nodes may have published. Resume rolls the
//	                   epoch FORWARD by re-running a full rollout of
//	                   the journaled target corpus: re-preparing a node
//	                   that already committed is idempotent, so the
//	                   fleet converges on the target either way.
//	committed/aborted — the epoch finished; resume does nothing.
//
// Alongside the state file the journal keeps three corpus files:
// epoch.corpus (the in-flight target, written before the prepare
// record so a commit-phase resume can re-ship it), committed.corpus
// (the last committed target — the delta base for the next epoch and
// the anti-entropy repair source), and prev.corpus (the previously
// committed corpus, rotated on commit — the delta base for repairing a
// node that missed exactly one epoch). Corpus files are rotated by
// rename *before* the committed record is written: if the coordinator
// dies between the two, the state file still says commit and resume
// rolls forward onto the already-rotated committed.corpus.
//
// The faultinject stage cluster.journal fires inside record, keyed by
// the phase about to become durable, and it fires on the Rollout
// goroutine itself — a KindPanic rule is therefore a faithful
// simulation of the coordinator dying at that exact point in the
// protocol, which is how the chaos suite drives journal recovery.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"hoiho/internal/atomicfile"
	"hoiho/internal/faultinject"
)

// Journal phase values, in protocol order.
const (
	phasePrepare   = "prepare"
	phaseValidate  = "validate"
	phaseCommit    = "commit"
	phaseCommitted = "committed"
	phaseAborted   = "aborted"
)

// journalState is the durable record of one rollout epoch's progress.
type journalState struct {
	// Epoch is the rollout epoch this record belongs to.
	Epoch uint64 `json:"epoch"`
	// TargetFP is the fingerprint the epoch is driving toward: the
	// coordinator's own fingerprint of the target corpus until prepare
	// acks agree, the cluster-agreed fingerprint from then on.
	TargetFP string `json:"target_fingerprint,omitempty"`
	// Phase is the protocol phase this record makes durable — the phase
	// about to run, not the one that finished.
	Phase string `json:"phase"`
	// Nodes are the members pinned at epoch start and the payload kind
	// each was planned to receive.
	Nodes []journalNode `json:"nodes,omitempty"`
	// UpdatedAt is when this record was written.
	UpdatedAt time.Time `json:"updated_at"`
}

// journalNode is one member's entry in the epoch manifest.
type journalNode struct {
	Node string `json:"node"`
	// Delta records that the node was planned to receive the HBD patch
	// rather than the full corpus.
	Delta bool `json:"delta,omitempty"`
}

// validPhase guards loads: a state file naming an unknown phase is
// corrupt, and resume must fail loudly rather than guess.
func validPhase(p string) bool {
	switch p {
	case phasePrepare, phaseValidate, phaseCommit, phaseCommitted, phaseAborted:
		return true
	}
	return false
}

// journal is the on-disk rollout log: one state file plus the corpus
// rotation. All writes go through atomicfile, so a torn write is
// impossible and a reader sees either the old record or the new one.
type journal struct {
	dir string
}

// openJournal creates the journal directory if needed.
func openJournal(dir string) (*journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: journal dir %s: %w", dir, err)
	}
	return &journal{dir: dir}, nil
}

func (j *journal) statePath() string     { return filepath.Join(j.dir, "state.json") }
func (j *journal) epochPath() string     { return filepath.Join(j.dir, "epoch.corpus") }
func (j *journal) committedPath() string { return filepath.Join(j.dir, "committed.corpus") }
func (j *journal) prevPath() string      { return filepath.Join(j.dir, "prev.corpus") }

// load reads the last durable state, or (nil, nil) when no epoch has
// ever been journaled.
func (j *journal) load() (*journalState, error) {
	data, err := os.ReadFile(j.statePath())
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: journal read: %w", err)
	}
	var st journalState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("cluster: journal %s is corrupt: %w", j.statePath(), err)
	}
	if !validPhase(st.Phase) {
		return nil, fmt.Errorf("cluster: journal %s names unknown phase %q", j.statePath(), st.Phase)
	}
	return &st, nil
}

// record makes st durable. The faultinject stage fires first — keyed by
// the phase being recorded, on the caller's goroutine — so injected
// panics model the coordinator dying before the record lands.
func (j *journal) record(ctx context.Context, st *journalState) error {
	if err := faultinject.Fire(ctx, faultinject.StageClusterJournal, st.Phase); err != nil {
		return fmt.Errorf("cluster: journal %s record: %w", st.Phase, err)
	}
	st.UpdatedAt = time.Now()
	err := atomicfile.WriteFile(j.statePath(), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(st)
	})
	if err != nil {
		return fmt.Errorf("cluster: journal %s record: %w", st.Phase, err)
	}
	return nil
}

// writeEpochCorpus persists the in-flight target before the prepare
// record, so a commit-phase resume always has the bytes to re-ship.
func (j *journal) writeEpochCorpus(data []byte) error {
	err := atomicfile.WriteFile(j.epochPath(), func(w io.Writer) error {
		_, werr := w.Write(data)
		return werr
	})
	if err != nil {
		return fmt.Errorf("cluster: journal epoch corpus: %w", err)
	}
	return nil
}

// readCorpus returns a journal corpus file, or (nil, nil) when absent.
func (j *journal) readCorpus(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: journal corpus %s: %w", path, err)
	}
	return data, nil
}

func (j *journal) readEpochCorpus() ([]byte, error) { return j.readCorpus(j.epochPath()) }
func (j *journal) readCommitted() ([]byte, error)   { return j.readCorpus(j.committedPath()) }
func (j *journal) readPrev() ([]byte, error)        { return j.readCorpus(j.prevPath()) }

// promoteEpoch rotates the corpus files on commit: the old committed
// corpus becomes prev (the one-epoch-stale delta base) and the epoch's
// target becomes committed. Renames within one directory, so each step
// is atomic.
func (j *journal) promoteEpoch() error {
	if _, err := os.Stat(j.committedPath()); err == nil {
		if err := os.Rename(j.committedPath(), j.prevPath()); err != nil {
			return fmt.Errorf("cluster: journal rotate committed corpus: %w", err)
		}
	}
	if err := os.Rename(j.epochPath(), j.committedPath()); err != nil {
		return fmt.Errorf("cluster: journal promote epoch corpus: %w", err)
	}
	return nil
}

// Resume inspects the journal left behind by a previous coordinator
// process and finishes whatever epoch it died inside: nothing when the
// last epoch completed, a clean abort when the crash predates the
// commit record (no node can have published), and a roll-forward
// re-rollout of the journaled target when the crash was inside commit
// (some nodes may have published; as in a live epoch, the only repair
// is forward onto the target).
// Call it after Start, before accepting operator traffic.
func (rt *Router) Resume(ctx context.Context) error {
	if rt.journal == nil {
		return nil
	}
	st, err := rt.journal.load()
	if err != nil {
		return err
	}
	if st == nil || st.Phase == phaseCommitted || st.Phase == phaseAborted {
		return nil
	}
	rt.adminMu.Lock()
	defer rt.adminMu.Unlock()
	switch st.Phase {
	case phasePrepare, phaseValidate:
		v := rt.view.Load()
		for _, m := range v.members {
			rt.abortNode(ctx, m)
		}
		rt.stats.aborted.Add(1)
		if err := rt.journal.record(ctx, &journalState{
			Epoch: st.Epoch, TargetFP: st.TargetFP, Phase: phaseAborted, Nodes: st.Nodes,
		}); err != nil {
			return err
		}
		rt.logf("resume: epoch %d crashed in %s; aborted cleanly", st.Epoch, st.Phase)
		return nil
	default: // phaseCommit
		data, err := rt.journal.readEpochCorpus()
		if err != nil {
			return err
		}
		if data == nil {
			// The crash landed between the corpus rotation and the
			// committed record: the target already sits at
			// committed.corpus.
			if data, err = rt.journal.readCommitted(); err != nil {
				return err
			}
		}
		if data == nil {
			return fmt.Errorf("cluster: resume: epoch %d journaled a commit but no target corpus survives", st.Epoch)
		}
		rt.logf("resume: epoch %d crashed in commit; rolling forward to %s", st.Epoch, st.TargetFP)
		_, err = rt.rolloutLocked(ctx, data, 0)
		if errors.Is(err, ErrNotConverged) {
			// Committed and journaled; anti-entropy owns the stragglers.
			rt.logf("resume: %v", err)
			return nil
		}
		if err != nil {
			return fmt.Errorf("cluster: resume: roll-forward of epoch %d: %w", st.Epoch, err)
		}
		return nil
	}
}
