package cluster

import (
	"errors"
	"fmt"
)

// The cluster error taxonomy, mirroring internal/serve's design: every
// failure the router or rollout coordinator can produce is a sentinel
// or a wrapper with Unwrap, classified by errors.Is/As — never by
// string matching.
var (
	// ErrNoMembers means the router has no cluster members at all —
	// misconfiguration, or every node has been removed.
	ErrNoMembers = errors.New("cluster: no cluster members configured")
	// ErrShardUnavailable means every replica of the request's shard
	// (and every degraded fallback) failed or is unreachable. The
	// request was shed, not misrouted.
	ErrShardUnavailable = errors.New("cluster: all replicas of the shard are unavailable")
	// ErrRolloutInProgress means a rollout or membership change is
	// already running; the protocol is strictly one epoch at a time.
	ErrRolloutInProgress = errors.New("cluster: a rollout or membership change is already in progress")
	// ErrBadCorpus means a rollout body does not plan: it is empty,
	// JSON or otherwise not HBC, corrupt, or an HBD patch with no
	// committed corpus to apply it to. The operator's request is at
	// fault (422); nothing was journaled and no node saw a prepare.
	ErrBadCorpus = errors.New("cluster: rollout corpus refused")
	// ErrMemberExists means a join named a node already in the ring.
	ErrMemberExists = errors.New("cluster: node is already a member")
	// ErrMemberUnknown means a leave named a node not in the ring.
	ErrMemberUnknown = errors.New("cluster: node is not a member")
	// ErrBaseMismatchNack means a node refused a rollout delta because
	// its live corpus is not the delta's base (serve.ErrBaseMismatch on
	// the node side, signalled back via the X-Hoiho-Rollout-Nack
	// header). The coordinator degrades gracefully: it resends the full
	// corpus to just that node instead of aborting the epoch.
	ErrBaseMismatchNack = errors.New("cluster: node nacked the rollout delta: base mismatch")
	// ErrNotConverged means a rollout epoch committed but some nodes
	// still miss its target: their commit failed and so did the forward
	// repair inside the epoch. The target stays committed (and
	// journaled); those nodes keep the old corpus until anti-entropy or
	// the next rollout converges them.
	ErrNotConverged = errors.New("cluster: epoch committed but not every node serves the target")
)

// ForwardError is one failed forwarding attempt: the node that was
// tried and why it failed. The router retries other replicas; a
// ForwardError surfaces only when every candidate is exhausted.
type ForwardError struct {
	// Node is the member name the attempt targeted.
	Node string
	// Err is the transport or status failure.
	Err error
}

func (e *ForwardError) Error() string {
	return fmt.Sprintf("cluster: forward to %s: %v", e.Node, e.Err)
}

// Unwrap exposes the transport failure to errors.Is/As.
func (e *ForwardError) Unwrap() error { return e.Err }

// RolloutError is a failed rollout epoch: the phase that broke, the
// node that broke it, and the underlying cause. A prepare or validate
// RolloutError means the coordinator has already aborted the epoch and
// every node still serves the prior generation. A commit RolloutError
// wraps ErrNotConverged: the epoch committed, and Node names the nodes
// still on the prior generation.
type RolloutError struct {
	// Phase is "prepare", "validate", or "commit".
	Phase string
	// Node is the member that nacked or timed out, when attributable;
	// for ErrNotConverged, every member that missed the target.
	Node string
	// Err is the underlying failure.
	Err error
}

func (e *RolloutError) Error() string {
	if e.Node == "" {
		return fmt.Sprintf("cluster: rollout %s phase failed: %v", e.Phase, e.Err)
	}
	return fmt.Sprintf("cluster: rollout %s phase failed at %s: %v", e.Phase, e.Node, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *RolloutError) Unwrap() error { return e.Err }
