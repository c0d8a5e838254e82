package replica

import (
	"fmt"
)

// DefaultCatchUpBatch is the per-pull record cap used when a caller passes
// batchLimit <= 0.
const DefaultCatchUpBatch = 256

// CatchUpRange streams rangeIdx records the target is missing from peer
// into the target, batch by batch, until the target's frontier reaches the
// peer's. Records land through ReplicaAppend, so they pass the same
// dense-frontier ingestion (and duplicate rejection) as live fan-out, and
// the target's segment store persists them before the member rejoins.
// Returns the number of records transferred.
func CatchUpRange(target, peer Member, rangeIdx int, batchLimit int) (int, error) {
	if batchLimit <= 0 {
		batchLimit = DefaultCatchUpBatch
	}
	total := 0
	for {
		have, err := target.RangeFrontier(rangeIdx)
		if err != nil {
			return total, fmt.Errorf("replica: catch-up target frontier (range %d): %w", rangeIdx, err)
		}
		want, err := peer.RangeFrontier(rangeIdx)
		if err != nil {
			return total, fmt.Errorf("replica: catch-up peer frontier (range %d): %w", rangeIdx, err)
		}
		if have >= want {
			replayInvalidations(target, peer, rangeIdx)
			return total, nil
		}
		recs, err := peer.PullRange(rangeIdx, have, batchLimit)
		if err != nil {
			return total, fmt.Errorf("replica: pulling range %d from %d: %w", rangeIdx, have, err)
		}
		if len(recs) == 0 {
			// The peer's frontier says more exists but the pull came back
			// empty — its store lost the window (e.g. GC). Surface it
			// rather than spinning.
			return total, fmt.Errorf("replica: catch-up stalled: range %d frontier %d < %d but peer returned no records",
				rangeIdx, have, want)
		}
		if err := target.ReplicaAppend(recs); err != nil {
			return total, fmt.Errorf("replica: ingesting catch-up batch (range %d): %w", rangeIdx, err)
		}
		total += len(recs)
	}
}

// replayInvalidations forwards the peer's announced-assignment bound to a
// freshly caught-up target. The peer may know of assignments it has not
// resolved itself (announcements outrun payloads by design); without the
// replay, a rejoined member would treat those positions as nonexistent
// and could serve a stale no-such-record the moment it is readmitted.
// Best-effort by construction: the next live fan-out re-announces.
func replayInvalidations(target, peer Member, rangeIdx int) {
	if _, announced, err := peer.ValidityWatermark(rangeIdx); err == nil && announced > 0 {
		_ = target.Invalidate(rangeIdx, announced)
	}
}

// CatchUp brings member idx up to date on every range it hosts, pulling
// each range from the usable group member with the largest frontier (the
// member guaranteed — under AckMajority — to hold every acknowledged
// record). Call it after a restarted maintainer is reachable again and
// before Readmit. Returns the total records transferred.
func (s *Session) CatchUp(idx int, batchLimit int) (int, error) {
	target := s.Member(idx)
	total := 0
	for _, rangeIdx := range s.cfg.Layout.Hosts(idx) {
		peer, ok := s.bestPeer(idx, rangeIdx)
		if !ok {
			return total, fmt.Errorf("replica: no usable peer hosts range %d", rangeIdx)
		}
		n, err := CatchUpRange(target, s.Member(peer), rangeIdx, batchLimit)
		total += n
		s.catchupRecords.Add(uint64(n))
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Rejoin is the full re-admission sequence for a restarted member: catch
// up every hosted range, then restore the member to Healthy so it resumes
// serving reads and receiving fan-out.
func (s *Session) Rejoin(idx int, batchLimit int) (int, error) {
	n, err := s.CatchUp(idx, batchLimit)
	if err != nil {
		return n, err
	}
	s.health.Readmit(idx)
	return n, nil
}

// bestPeer picks the usable member (≠ idx) of rangeIdx's group with the
// largest frontier for that range.
func (s *Session) bestPeer(idx, rangeIdx int) (int, bool) {
	g := s.cfg.Layout.Group(rangeIdx)
	best, bestFrontier, found := 0, uint64(0), false
	for _, mi := range g.Members {
		if mi == idx || !s.health.Usable(mi) {
			continue
		}
		f, err := s.Member(mi).RangeFrontier(rangeIdx)
		if err != nil {
			if s.fatal(err) {
				continue
			}
			s.health.ReportFailure(mi)
			continue
		}
		if !found || f > bestFrontier {
			best, bestFrontier, found = mi, f, true
		}
	}
	return best, found
}
