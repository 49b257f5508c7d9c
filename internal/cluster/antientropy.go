package cluster

// Anti-entropy: the self-healing loop that keeps the fleet converged on
// the journaled committed corpus without operator action. Rollouts
// converge the nodes that were present for the epoch; anti-entropy
// handles everyone else — a node that rejoined after missing an epoch,
// one restored from a stale disk image, or one whose operator reloaded
// the wrong file. Each sweep compares every healthy member's live
// fingerprint against the committed target and repairs divergent nodes
// with repairNode, the same single-node prepare→commit a rollout uses on
// a node whose commit failed: the prev→committed HBD patch when the
// node sits exactly one epoch behind (the common rejoin case), the full
// committed corpus otherwise. A delta the node cannot apply nacks as a
// base mismatch and falls back to the full corpus, and a node that
// prepares a fingerprint other than the target is aborted, never
// committed — the sweep can only move nodes toward the committed state.
//
// Sweeps take adminMu with TryLock and step aside whenever a rollout or
// membership change is running; a live rollout converges the fleet
// itself, and repairing mid-epoch would race the coordinator's own
// prepare.

import (
	"context"
	"time"

	"hoiho/internal/corpusbin"
	"hoiho/internal/extract"
	"hoiho/internal/faultinject"
)

// antiEntropyLoop runs sweeps every AntiEntropyInterval until ctx ends.
func (rt *Router) antiEntropyLoop(ctx context.Context) {
	defer rt.wg.Done()
	t := time.NewTicker(rt.cfg.AntiEntropyInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
		case <-ctx.Done():
			return
		}
		rt.antiEntropySweep(ctx)
	}
}

// antiEntropySweep performs one pass over the membership. Exported
// behavior is driven through the loop; tests call it directly to make
// convergence deterministic.
func (rt *Router) antiEntropySweep(ctx context.Context) {
	if !rt.adminMu.TryLock() {
		return // a rollout or membership change owns the fleet right now
	}
	defer rt.adminMu.Unlock()
	rt.stats.sweeps.Add(1)

	st, err := rt.journal.load()
	if err != nil || st == nil || st.Phase != phaseCommitted {
		return // nothing committed to converge on (or resume still owed)
	}
	committed, err := rt.journal.readCommitted()
	if err != nil || committed == nil {
		return
	}

	// The prev→committed patch is built lazily, at most once per sweep,
	// and only when some member actually sits on the prev fingerprint.
	var repairDelta []byte
	var deltaFailed bool
	prev, _ := rt.journal.readPrev()
	prevFP := ""
	if prev != nil {
		if fp, err := corpusbin.PeekFingerprint(prev); err == nil {
			prevFP = extract.FormatFingerprint(fp)
		}
	}

	v := rt.view.Load()
	for _, m := range v.members {
		if !m.healthy.Load() {
			continue // unreachable; the probe loop owns its comeback
		}
		fp, _, err := rt.nodeStatus(ctx, m)
		if err != nil || fp == st.TargetFP {
			continue
		}
		var delta []byte
		if prevFP != "" && fp == prevFP && !deltaFailed {
			if repairDelta == nil {
				repairDelta = rt.buildRepairDelta(prev, committed)
				deltaFailed = repairDelta == nil
			}
			delta = repairDelta
		}
		err = faultinject.Fire(ctx, faultinject.StageClusterAntiEntropy, m.name)
		if err == nil {
			_, err = rt.repairNode(ctx, m, st.Epoch, st.TargetFP, delta, committed)
		}
		if err != nil {
			rt.stats.repairFails.Add(1)
			rt.logf("anti-entropy: repair of %s failed: %v", m.name, err)
			continue
		}
		rt.stats.repairs.Add(1)
		rt.logf("anti-entropy: repaired %s from %s to %s (delta=%v)", m.name, fp, st.TargetFP, delta != nil)
	}
}

// buildRepairDelta diffs the prev corpus into the committed one on
// records, through the encoder epoch planning uses; nil on any failure
// (the sweep falls back to full-corpus repairs).
func (rt *Router) buildRepairDelta(prev, committed []byte) []byte {
	prevBase, err := loadBase(prev)
	if err != nil {
		return nil
	}
	commRecs, commFP, err := corpusRecords(committed)
	if err != nil {
		return nil
	}
	enc, err := corpusbin.EncodeTarget(prevBase.DeltaBase, commRecs, commFP)
	if err != nil {
		rt.logf("anti-entropy: prev→committed diff failed: %v", err)
		return nil
	}
	return enc.Delta
}
