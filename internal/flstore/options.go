package flstore

// Functional options for Client construction, passed to NewClient,
// NewDirectClient or NewReplicatedDirectClient. Options are applied once,
// before the client serves calls, so there is no window where a concurrent
// reader sees a half-configured client.

import (
	"time"

	"repro/internal/replica"
)

// ClientOption configures a Client at construction time.
type ClientOption func(*Client)

// WithReadRetries bounds how many attempts reads make while the requested
// position is past the head of the log (default 50).
func WithReadRetries(n int) ClientOption {
	return func(c *Client) { c.readRetries = n }
}

// WithRetryBackoff sets the base of the capped-exponential schedule read
// retries sleep on, and the multi-epoch tail/poll tick (default 2ms; 0
// disables sleeping between read retries).
func WithRetryBackoff(d time.Duration) ClientOption {
	return func(c *Client) { c.retryBackoff = d }
}

// WithAppendRetries lets the append path retry a retryable rejection
// (maintainer overload, insufficient acks) up to n times, honoring the
// server's RetryAfter hint between attempts. Default 0: rejections surface
// immediately, which is what open-loop load generators rely on to measure
// dropped offered load.
func WithAppendRetries(n int) ClientOption {
	return func(c *Client) { c.appendRetries = n }
}

// WithAppendBackoff sets the base of the capped-jittered backoff between
// append retries (default 2ms). The actual wait per attempt is the larger
// of this schedule and the server's RetryAfter hint.
func WithAppendBackoff(d time.Duration) ClientOption {
	return func(c *Client) { c.appendBackoff = d }
}

// WithAdaptivePacing enables the AIMD send-rate governor: after the first
// overload rejection the client spaces appends at the server's implied
// admission rate, halving the allowance on each further rejection and
// creeping it back up on success. Off by default.
func WithAdaptivePacing() ClientOption {
	return func(c *Client) { c.pace = &pacer{} }
}

// WithQuorumFanout lets replicated appends return as soon as the ack
// policy's quorum of copies is stored (fsynced on durable members),
// detaching the remaining fan-out — a degraded follower's disk stops
// sitting on the append p99. No-op on unreplicated clients; see
// replica.SessionConfig.QuorumFanout for the trade-off.
func WithQuorumFanout() ClientOption {
	return func(c *Client) { c.session.SetQuorumFanout(true) }
}

// WithReadPolicy sets the replica read-placement policy on a replicated
// client (replica.OwnerFirst, replica.SpreadReads, replica.NearestFirst).
// Reads still fail over across the group in policy order when the picked
// member is down or behind. No-op on unreplicated clients (a group of one
// has a single order).
func WithReadPolicy(p replica.ReadPolicy) ClientOption {
	return func(c *Client) { c.session.SetReadPolicy(p) }
}
