package replica

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// ErrInsufficientAcks is returned when an append reached the acting
// primary but too few group members acknowledged the copy to satisfy the
// ack policy. The records exist in the log (position assignment is not
// undone); the caller may retry idempotently via AppendAssigned semantics
// or surface the degraded durability.
var ErrInsufficientAcks = errors.New("replica: insufficient acks")

// ErrNoUsableGroup is returned when no range has a usable acting primary.
var ErrNoUsableGroup = errors.New("replica: no usable replica group")

// Member is the surface a replica session needs from one maintainer. It is
// implemented by *flstore.Maintainer in process and by flstore's RPC
// maintainer client across machines.
type Member interface {
	// Append post-assigns positions in the member's own range (§5.2).
	Append(recs []*core.Record) ([]uint64, error)
	// AppendFor post-assigns positions in another hosted range — the
	// failover path an acting primary uses while the range owner is down.
	AppendFor(rangeIdx int, recs []*core.Record) ([]uint64, error)
	// ReplicaAppend ingests copies of records whose LIds were assigned by
	// the range's acting primary; the member derives the range from each
	// record's LId. Idempotent per LId at the dense-frontier level.
	ReplicaAppend(recs []*core.Record) error
	// Read serves any hosted position (owned or followed).
	Read(lid uint64) (*core.Record, error)
	// RangeFrontier returns the next-unfilled LId of a hosted range as
	// known locally (for followers: the replicated frontier).
	RangeFrontier(rangeIdx int) (uint64, error)
	// PullRange streams up to limit stored records of rangeIdx with
	// LId >= fromLId in ascending LId order — the catch-up feed.
	PullRange(rangeIdx int, fromLId uint64, limit int) ([]*core.Record, error)
	// Invalidate announces that every position of rangeIdx strictly below
	// upTo has been assigned by the range's acting primary (Hermes-style
	// invalidation: the announcement rides ahead of the payload, so a
	// member knows which positions exist before it holds their bytes).
	// Positions announced but not yet resolved locally are *invalid* — the
	// member must not answer reads for them with "no such record"; it
	// blocks briefly for the in-flight payload or tells the caller to
	// retry. Idempotent and monotone: stale or duplicate announcements are
	// no-ops.
	Invalidate(rangeIdx int, upTo uint64) error
	// ValidityWatermark returns a hosted range's validity watermark (the
	// dense-prefix frontier LId — every position below it is resolved and
	// served locally) and its announced assignment bound; the span between
	// the two is the member's invalidation backlog.
	ValidityWatermark(rangeIdx int) (watermark, announced uint64, err error)
}

// SessionConfig configures a replica session.
type SessionConfig struct {
	Layout Layout
	Ack    AckPolicy
	// Owner maps an LId to its range (Placement.Owner).
	Owner func(lid uint64) int
	// EvictAfter is the consecutive-failure threshold (default 3).
	EvictAfter int
	// IsFatal classifies an error as a logic error to propagate (true)
	// rather than a member failure to fail over from (false). nil treats
	// every error as a member failure.
	IsFatal func(error) bool
	// IsRetryable classifies an error as a transient admission rejection
	// (e.g. maintainer overload) worth one paced retry during replica
	// fan-out before the copy is counted as failed. nil disables the
	// retry. A rejection is not a member failure: the member is healthy,
	// just saturated, so it is never reported to the health tracker. On
	// the read side a retryable error (a member blocked on an unresolved
	// invalidation, or saturated) fails over to the next member without a
	// health penalty.
	IsRetryable func(error) bool
	// ReadPolicy orders group members for reads (nil = OwnerFirst).
	ReadPolicy ReadPolicy
	// QuorumFanout, when true, lets Append return as soon as the ack
	// policy is satisfied instead of waiting for every group member's
	// copy: the remaining fan-out goroutines detach and finish in the
	// background (still reporting health and counters). This decouples
	// append latency from the slowest member's disk — a degraded follower
	// stops sitting on the p99 — at the cost of a possibly-undercounted
	// ack total and less deterministic failure sequencing, which is why
	// the seeded fault-replay harnesses leave it off (the default).
	QuorumFanout bool
}

// Session is the replication layer clients drive: it routes appends to an
// acting primary per range, fans copies out to the rest of the group under
// the configured ack policy, fails reads over across the group, and tracks
// per-member health. It is safe for concurrent use.
type Session struct {
	cfg    SessionConfig
	health *Health

	mu      sync.RWMutex
	members []Member
	policy  ReadPolicy // guarded by mu; never nil

	rr        atomic.Uint64 // round-robin range cursor for appends
	readToken atomic.Uint64 // per-read draw for load-spreading policies
	quorum    atomic.Bool   // QuorumFanout, toggleable after construction

	// Counters are always maintained; EnableMetrics additionally exports
	// them (plus the ack-latency histogram) to a registry.
	appends         metrics.Counter
	appendFailovers metrics.Counter
	readFailovers   metrics.Counter
	fanoutFailures  metrics.Counter
	fanoutRetries   metrics.Counter
	catchupRecords  metrics.Counter
	invalidations   metrics.Counter
	ackLatency      *metrics.BucketHistogram
}

// NewSession builds a session over index-aligned members.
func NewSession(members []Member, cfg SessionConfig) (*Session, error) {
	if err := cfg.Layout.Validate(); err != nil {
		return nil, err
	}
	if len(members) != cfg.Layout.N {
		return nil, fmt.Errorf("replica: %d members for layout of %d", len(members), cfg.Layout.N)
	}
	if cfg.Owner == nil {
		return nil, errors.New("replica: SessionConfig.Owner is required")
	}
	ms := make([]Member, len(members))
	copy(ms, members)
	pol := cfg.ReadPolicy
	if pol == nil {
		pol = OwnerFirst()
	}
	s := &Session{
		cfg:     cfg,
		health:  NewHealth(cfg.Layout.N, cfg.EvictAfter),
		members: ms,
		policy:  pol,
	}
	s.quorum.Store(cfg.QuorumFanout)
	return s, nil
}

// SetQuorumFanout toggles quorum-return fan-out (see
// SessionConfig.QuorumFanout) after construction — the hook clients use to
// enable it without plumbing a new constructor. Safe to call concurrently
// with appends; in-flight fan-outs pick the mode up on their next wait.
func (s *Session) SetQuorumFanout(v bool) { s.quorum.Store(v) }

// QuorumFanout reports whether quorum-return fan-out is enabled.
func (s *Session) QuorumFanout() bool { return s.quorum.Load() }

// SetReadPolicy swaps the policy ordering group members for reads.
// Intended for configuration before the session sees traffic; concurrent
// reads pick up the new policy on their next attempt sequence.
func (s *Session) SetReadPolicy(p ReadPolicy) {
	if p == nil {
		p = OwnerFirst()
	}
	s.mu.Lock()
	s.policy = p
	s.mu.Unlock()
}

// ReadPolicy returns the active read policy.
func (s *Session) ReadPolicy() ReadPolicy {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.policy
}

// Invalidations returns how many invalidation announcements the session
// has delivered ahead of fan-out payloads.
func (s *Session) Invalidations() uint64 { return s.invalidations.Value() }

// EnableMetrics exports the session's replication instrumentation: append
// ack latency (observed per successful quorum), append/read failovers,
// fan-out copy failures, catch-up volume, eviction/readmission totals, and
// a per-member health-state gauge (0 healthy, 1 suspect, 2 evicted).
func (s *Session) EnableMetrics(reg *metrics.Registry, extra ...metrics.Label) {
	lbls := append([]metrics.Label{metrics.L("ack", s.cfg.Ack.String())}, extra...)
	s.ackLatency = reg.Histogram("replica_ack_seconds", metrics.LatencyBuckets, lbls...)
	reg.CounterFunc("replica_appends_total", func() float64 { return float64(s.appends.Value()) }, extra...)
	reg.CounterFunc("replica_append_failovers_total", func() float64 { return float64(s.appendFailovers.Value()) }, extra...)
	reg.CounterFunc("replica_read_failovers_total", func() float64 { return float64(s.readFailovers.Value()) }, extra...)
	reg.CounterFunc("replica_fanout_failures_total", func() float64 { return float64(s.fanoutFailures.Value()) }, extra...)
	reg.CounterFunc("replica_fanout_retries_total", func() float64 { return float64(s.fanoutRetries.Value()) }, extra...)
	reg.CounterFunc("replica_invalidations_total", func() float64 { return float64(s.invalidations.Value()) }, extra...)
	reg.CounterFunc("replica_catchup_records_total", func() float64 { return float64(s.catchupRecords.Value()) }, extra...)
	reg.CounterFunc("replica_evictions_total", func() float64 { return float64(s.health.Evictions.Value()) }, extra...)
	reg.CounterFunc("replica_readmissions_total", func() float64 { return float64(s.health.Readmissions.Value()) }, extra...)
	for i := 0; i < s.cfg.Layout.N; i++ {
		i := i
		reg.GaugeFunc("replica_member_state", func() float64 { return float64(s.health.State(i)) },
			append([]metrics.Label{metrics.L("member", fmt.Sprint(i))}, extra...)...)
	}
}

// Health exposes the session's member-health tracker.
func (s *Session) Health() *Health { return s.health }

// Layout returns the session's replica layout.
func (s *Session) Layout() Layout { return s.cfg.Layout }

// Member returns the current handle for member i.
func (s *Session) Member(i int) Member {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.members[i]
}

// SetMember replaces the handle for member i — the rewiring a client does
// after a maintainer restarts on a fresh connection.
func (s *Session) SetMember(i int, m Member) {
	s.mu.Lock()
	s.members[i] = m
	s.mu.Unlock()
}

// fatal reports whether err should propagate rather than trigger failover.
func (s *Session) fatal(err error) bool {
	return s.cfg.IsFatal != nil && s.cfg.IsFatal(err)
}

// retryable reports whether err is a transient admission rejection.
func (s *Session) retryable(err error) bool {
	return s.cfg.IsRetryable != nil && s.cfg.IsRetryable(err)
}

// retryAfterHinter matches errors carrying a server pacing hint (flstore's
// OverloadError locally, rpc.RemoteError across the wire) without this
// package importing either.
type retryAfterHinter interface {
	RetryAfterHint() time.Duration
}

// maxFanoutRetryWait caps how long a fan-out goroutine honors a saturated
// follower's hint — fan-out is synchronous with the append, so an
// excessive hint must not stall the quorum wait.
const maxFanoutRetryWait = 100 * time.Millisecond

// fanoutRetryDelay converts a rejection into the pause before the single
// fan-out retry.
func fanoutRetryDelay(err error) time.Duration {
	d := time.Millisecond
	var h retryAfterHinter
	if errors.As(err, &h) {
		if hint := h.RetryAfterHint(); hint > d {
			d = hint
		}
	}
	if d > maxFanoutRetryWait {
		d = maxFanoutRetryWait
	}
	return d
}

// ActingPrimary returns the member currently responsible for assigning
// positions in rangeIdx: the first non-evicted member of its group.
func (s *Session) ActingPrimary(rangeIdx int) (int, bool) {
	g := s.cfg.Layout.Group(rangeIdx)
	for _, m := range g.Members {
		if s.health.Usable(m) {
			return m, true
		}
	}
	return 0, false
}

// Append replicates one batch: it picks a range round-robin among ranges
// with a usable acting primary, has the acting primary assign positions
// and persist, fans copies out to the rest of the group, and returns once
// the ack policy is satisfied. A failed primary is reported to the health
// tracker and the append retargets — appends keep succeeding as long as
// any range has a usable group.
func (s *Session) Append(recs []*core.Record) ([]uint64, error) {
	if len(recs) == 0 {
		return nil, nil
	}
	start := time.Now()
	tc := batchCtx(recs)
	n := s.cfg.Layout.N
	// Up to N ranges × R members worth of retargets before giving up: a
	// kill mid-append costs a few failed calls, never a failed append.
	var lastErr error
	attempts := n * s.cfg.Layout.R
	rangeIdx := int(s.rr.Add(1)-1) % n
	for a := 0; a < attempts; a++ {
		lids, err, retarget := s.appendAttempt(rangeIdx, recs, start, tc)
		if !retarget {
			return lids, err
		}
		if err != nil {
			// Primary failed: same range first (the next member in its
			// group becomes acting primary); once the whole group is
			// evicted the ActingPrimary miss advances the range.
			lastErr = err
			continue
		}
		rangeIdx = (rangeIdx + 1) % n
	}
	if lastErr != nil {
		return nil, fmt.Errorf("%w: last error: %v", ErrNoUsableGroup, lastErr)
	}
	return nil, ErrNoUsableGroup
}

// AppendRange replicates one batch into a specific range's group, with the
// same acting-primary failover, fan-out, and ack semantics as Append but
// no cross-range retargeting. Range-pinned workloads (and the durability
// experiment, which needs appends that avoid a deliberately degraded
// primary) use it; most clients want Append.
func (s *Session) AppendRange(rangeIdx int, recs []*core.Record) ([]uint64, error) {
	if len(recs) == 0 {
		return nil, nil
	}
	if rangeIdx < 0 || rangeIdx >= s.cfg.Layout.N {
		return nil, fmt.Errorf("replica: range %d out of [0,%d)", rangeIdx, s.cfg.Layout.N)
	}
	start := time.Now()
	tc := batchCtx(recs)
	var lastErr error
	for a := 0; a < s.cfg.Layout.R; a++ {
		lids, err, retarget := s.appendAttempt(rangeIdx, recs, start, tc)
		if !retarget {
			return lids, err
		}
		if err != nil {
			lastErr = err
			continue
		}
		break // no usable acting primary in this group; retargeting is the caller's call
	}
	if lastErr != nil {
		return nil, fmt.Errorf("%w: last error: %v", ErrNoUsableGroup, lastErr)
	}
	return nil, fmt.Errorf("%w: range %d", ErrNoUsableGroup, rangeIdx)
}

// appendAttempt runs one acting-primary append plus fan-out against
// rangeIdx. retarget reports that the attempt failed in a way the caller
// should respond to by retrying (same range on a primary failure — err is
// set — or another range on an ActingPrimary miss — err is nil).
func (s *Session) appendAttempt(rangeIdx int, recs []*core.Record, start time.Time, tc trace.Ctx) (lids []uint64, err error, retarget bool) {
	ap, ok := s.ActingPrimary(rangeIdx)
	if !ok {
		return nil, nil, true
	}
	lids, err = s.primaryAppend(ap, rangeIdx, recs)
	if err != nil {
		if s.fatal(err) {
			return nil, err, false
		}
		s.health.ReportFailure(ap)
		s.appendFailovers.Inc()
		return nil, err, true
	}
	s.health.ReportOK(ap)
	// The ack span covers the synchronous fan-out wait — the replication
	// cost a client-visible append pays beyond the primary's assignment
	// and store.
	fo := trace.Begin(tc, "replica.ack")
	acks := 1 + s.fanOut(rangeIdx, ap, lids[len(lids)-1]+1, recs)
	if acks < s.cfg.Ack.Required(s.cfg.Layout.R) {
		fo.End(trace.Default(), "acks", lids[0], len(recs))
		return lids, &AckError{Acked: acks, Required: s.cfg.Ack.Required(s.cfg.Layout.R),
			Range: rangeIdx, RetryAfter: ackRetryHint}, false
	}
	fo.End(trace.Default(), "", lids[0], len(recs))
	s.appends.Inc()
	if h := s.ackLatency; h != nil {
		h.ObserveSinceEx(start, uint64(tc.T))
	}
	return lids, nil, false
}

// batchCtx returns the first sampled record's trace context (the zero
// Ctx for an untraced batch) — one flag test per record, no allocation.
// A batch shares its pipeline cost, so one context stands for all.
func batchCtx(recs []*core.Record) trace.Ctx {
	for _, r := range recs {
		if r.Trace.Sampled() {
			return r.Trace
		}
	}
	return trace.Ctx{}
}

// primaryAppend routes the position-assigning append to member ap for
// rangeIdx, using the owner fast path when ap is the range owner.
func (s *Session) primaryAppend(ap, rangeIdx int, recs []*core.Record) ([]uint64, error) {
	m := s.Member(ap)
	if ap == rangeIdx {
		return m.Append(recs)
	}
	return m.AppendFor(rangeIdx, recs)
}

// fanOut sends copies to every usable group member except the acting
// primary and returns how many succeeded. By default fan-out waits for all
// members (R is small), which keeps failure sequences deterministic under
// a seeded fault schedule and reports precise ack counts; with
// QuorumFanout it returns as soon as enough copies landed to satisfy the
// ack policy, leaving stragglers to finish detached — an ack from a member
// means the copy is *stored* there (fsynced when the member's store is
// durable), so a quorum return is a durability quorum, not a buffer
// quorum. Every member first receives the batch's assignment
// announcement (upTo is the exclusive LId bound: one past the batch's last
// assigned position), so a follower knows the positions exist — and stops
// serving stale no-such-record for them — before the payload lands.
func (s *Session) fanOut(rangeIdx, actingPrimary int, upTo uint64, recs []*core.Record) int {
	g := s.cfg.Layout.Group(rangeIdx)
	// Buffered to the fan-out width so detached stragglers never block.
	results := make(chan bool, len(g.Members))
	launched := 0
	for _, mi := range g.Members {
		if mi == actingPrimary || !s.health.Usable(mi) {
			continue
		}
		mi := mi
		launched++
		go func() {
			results <- s.fanOutOne(mi, rangeIdx, upTo, recs)
		}()
	}
	// The acting primary's own store counts as the first ack.
	need := s.cfg.Ack.Required(s.cfg.Layout.R) - 1
	acked := 0
	quorum := s.quorum.Load()
	for done := 0; done < launched; done++ {
		if quorum && acked >= need {
			break // quorum reached; stragglers detach
		}
		if <-results {
			acked++
		}
	}
	return acked
}

// fanOutOne delivers the invalidation announcement and the record copies
// to member mi, reporting health and counters; it returns whether the
// member acked (stored) the copy.
func (s *Session) fanOutOne(mi, rangeIdx int, upTo uint64, recs []*core.Record) bool {
	m := s.Member(mi)
	if upTo > 0 {
		// Best-effort: the copy that follows carries the same
		// information; a dropped invalidation only delays local
		// readability, never correctness.
		if err := m.Invalidate(rangeIdx, upTo); err == nil {
			s.invalidations.Inc()
		}
	}
	err := m.ReplicaAppend(recs)
	if err != nil && s.retryable(err) {
		// A saturated follower rejected the copy; wait out its
		// pacing hint (capped) and try once more before giving the
		// ack up — overload is load, not failure.
		s.fanoutRetries.Inc()
		time.Sleep(fanoutRetryDelay(err))
		err = s.Member(mi).ReplicaAppend(recs)
	}
	if err != nil {
		if !s.fatal(err) && !s.retryable(err) {
			s.health.ReportFailure(mi)
		}
		s.fanoutFailures.Inc()
		return false
	}
	s.health.ReportOK(mi)
	return true
}

// Read returns the record at lid, failing over across the owning group:
// acting-primary order, skipping evicted members. Logic errors (past-head,
// no-such-record from the freshest member) propagate; transport errors
// mark the member and move on.
func (s *Session) Read(lid uint64) (*core.Record, error) {
	var rec *core.Record
	err := s.ReadWith(s.cfg.Owner(lid), func(mi int) error {
		var e error
		rec, e = s.Member(mi).Read(lid)
		return e
	})
	if err != nil {
		return nil, err
	}
	return rec, nil
}

// ReadWith runs a read-side operation against rangeIdx's group with the
// session's failover discipline: members in read-policy order (OwnerFirst
// unless configured otherwise), evicted members skipped, logic errors
// propagated, transport errors reported to the health tracker before
// moving to the next member. Retryable errors — a member blocked on an
// unresolved invalidation, or one shedding load — also fail over, but
// without a health penalty: the member is healthy, just momentarily
// behind or saturated. fn receives the index of the member to try and
// returns its result through its closure, so callers holding a wider
// handle for that member (the batched read path: range reads, tail waits)
// share the failover discipline with single-record reads.
func (s *Session) ReadWith(rangeIdx int, fn func(mi int) error) error {
	var lastErr error
	tried := 0
	pol := s.ReadPolicy()
	// One token per read: a spreading policy rotates the starting member
	// across reads but keeps the failover order stable within this one.
	token := s.readToken.Add(1)
	for k := 0; k < s.cfg.Layout.R; k++ {
		mi := pol.Pick(s.cfg.Layout, rangeIdx, k, token)
		if !s.health.Usable(mi) {
			continue
		}
		err := fn(mi)
		if err == nil {
			s.health.ReportOK(mi)
			if tried > 0 {
				s.readFailovers.Inc()
			}
			return nil
		}
		if s.fatal(err) {
			return err
		}
		if s.retryable(err) {
			lastErr = err
			tried++
			continue
		}
		s.health.ReportFailure(mi)
		lastErr = err
		tried++
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("%w: range %d", ErrNoUsableGroup, rangeIdx)
	}
	return lastErr
}

// Frontiers returns the per-range next-unfilled LIds computed over groups:
// for each range, the maximum frontier any usable group member reports.
// Taking the max makes a dead owner invisible — its group's survivors know
// everything that was acknowledged — which is what lets the head of the
// log keep advancing through a failure.
func (s *Session) Frontiers() ([]uint64, error) {
	n := s.cfg.Layout.N
	out := make([]uint64, n)
	for r := 0; r < n; r++ {
		found := false
		var lastErr error
		// Group membership inline (owner, then the R−1 followers) rather
		// than Layout.Group: Frontiers sits on the head-wait hot path and
		// a per-range members slice is a measurable allocation there.
		for k := 0; k < s.cfg.Layout.R; k++ {
			mi := (r + k) % n
			if !s.health.Usable(mi) {
				continue
			}
			f, err := s.Member(mi).RangeFrontier(r)
			if err != nil {
				if s.fatal(err) {
					return nil, err
				}
				s.health.ReportFailure(mi)
				lastErr = err
				continue
			}
			s.health.ReportOK(mi)
			found = true
			if f > out[r] {
				out[r] = f
			}
		}
		if !found {
			if lastErr == nil {
				lastErr = fmt.Errorf("%w: range %d", ErrNoUsableGroup, r)
			}
			return nil, lastErr
		}
	}
	return out, nil
}
