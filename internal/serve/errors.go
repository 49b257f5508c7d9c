package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// The serve error taxonomy. Every failure the daemon can produce is one
// of these sentinel or wrapper types, and each wrapper implements Unwrap,
// so callers (handlers, the daemon's main, tests) classify outcomes with
// errors.Is/errors.As — never by string matching — and can tell a blown
// request deadline (context.DeadlineExceeded) apart from saturation or a
// poisoned corpus file.
var (
	// ErrDraining is returned to requests arriving after drain began:
	// the process is shutting down and admits no new work.
	ErrDraining = errors.New("serve: draining: not admitting new requests")
	// ErrQueueFull is the load-shed signal: the admission queue is at
	// capacity (or queueing is pointless because the request's deadline
	// cannot survive the wait), so the request is rejected immediately.
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrAdmissionTimeout is the slow-shed signal: the request queued
	// for admission but no slot freed within its allowed wait.
	ErrAdmissionTimeout = errors.New("serve: timed out waiting for admission")
	// ErrNoCorpus means no corpus has ever been loaded; the server is
	// alive but cannot extract.
	ErrNoCorpus = errors.New("serve: no corpus loaded")
	// ErrNoRollback means a rollback was requested but no previous
	// corpus snapshot is retained.
	ErrNoRollback = errors.New("serve: no previous corpus to roll back to")
	// ErrNoPrepared means a rollout validate/commit arrived with no
	// prepared corpus in the side buffer — the prepare phase never
	// reached this node, or an abort already cleared it.
	ErrNoPrepared = errors.New("serve: no prepared corpus (rollout prepare has not run)")
	// ErrPreparedStale means the serving generation moved between
	// prepare and commit (a reload or rollback slipped into the rollout
	// epoch), so the prepared corpus no longer supersedes what it was
	// validated against. The coordinator must restart the rollout.
	ErrPreparedStale = errors.New("serve: prepared corpus is stale: serving generation changed since prepare")
	// ErrBaseMismatch means a rollout prepare shipped an HBD delta whose
	// base fingerprint is not this node's live corpus — the node diverged
	// from what the coordinator believed it was serving (or holds no
	// corpus at all). The prepare is nacked without staging anything; the
	// coordinator degrades gracefully by resending the full corpus to
	// just this node.
	ErrBaseMismatch = errors.New("serve: rollout delta base mismatch: live corpus is not the delta's base")
)

// CommitMismatchError is a rollout commit whose expected fingerprint
// does not match the prepared corpus — the cluster-wide validate phase
// and this node disagree about what is about to be published, so the
// commit is refused and the rollout must abort.
type CommitMismatchError struct {
	// Want is the fingerprint the coordinator expected to commit.
	Want string
	// Have is the fingerprint of the corpus actually prepared here.
	Have string
}

func (e *CommitMismatchError) Error() string {
	return fmt.Sprintf("serve: commit fingerprint mismatch: coordinator wants %s, prepared %s", e.Want, e.Have)
}

// ReloadError is a failed corpus reload: the candidate file could not be
// read or did not validate. The previous corpus is untouched and keeps
// serving — a ReloadError never degrades the running daemon.
type ReloadError struct {
	// Path is the corpus file that was rejected.
	Path string
	// Err is the underlying load/validation failure.
	Err error
}

func (e *ReloadError) Error() string {
	return fmt.Sprintf("serve: reload %s: %v", e.Path, e.Err)
}

// Unwrap exposes the load failure to errors.Is/As.
func (e *ReloadError) Unwrap() error { return e.Err }

// shed reports whether err is a load-shedding rejection — the class of
// failure a well-behaved client should retry after backing off.
func shed(err error) bool {
	return errors.Is(err, ErrQueueFull) || errors.Is(err, ErrAdmissionTimeout) ||
		errors.Is(err, ErrDraining)
}

// httpError writes err as the appropriate HTTP failure. Shed errors
// become 429/503 with a Retry-After hint; deadline expiry becomes 504;
// everything else is a 500. The mapping is driven entirely by
// errors.Is, so wrapped errors classify the same as bare sentinels.
func httpError(w http.ResponseWriter, err error, retryAfter time.Duration) {
	switch {
	case errors.Is(err, ErrDraining), errors.Is(err, ErrNoCorpus):
		w.Header().Set("Retry-After", RetryAfter(retryAfter))
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrAdmissionTimeout):
		w.Header().Set("Retry-After", RetryAfter(retryAfter))
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, context.DeadlineExceeded):
		http.Error(w, "serve: request deadline exceeded", http.StatusGatewayTimeout)
	case errors.Is(err, context.Canceled):
		// The client went away; the status is a formality.
		http.Error(w, "serve: request canceled", http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// retrySeq drives the deterministic Retry-After jitter: each rejection
// advances the sequence, and a multiplicative hash of the sequence
// number spreads consecutive rejections across the window. No RNG, no
// wall clock — the spread is reproducible under test and costs one
// atomic add per shed request.
var retrySeq atomic.Uint64

// RetryAfter renders d as a whole-second Retry-After hint with jitter:
// a value in [base, 2*base] where base is d rounded up to at least 1s.
// Shed responses go out to many clients in the same overload instant;
// if they all carried the same hint, they would return in the same
// instant too and re-saturate a node that was just recovering.
// Spreading the hint across a window turns the synchronized thundering
// herd into a trickle the admission gate can absorb. The daemon's and
// the cluster router's shed responses both carry it.
func RetryAfter(d time.Duration) string {
	base := int((d + time.Second - 1) / time.Second)
	if base < 1 {
		base = 1
	}
	// Fibonacci-hash the sequence number into [0, base+1): the odd
	// multiplier walks the full 64-bit space, so consecutive rejections
	// land on well-spread offsets.
	x := retrySeq.Add(1) * 0x9e3779b97f4a7c15
	jitter := int((x >> 33) % uint64(base+1))
	return strconv.Itoa(base + jitter)
}
