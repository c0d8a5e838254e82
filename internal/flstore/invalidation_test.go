package flstore

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/replica"
	"repro/internal/rpc"
)

// follower returns maintainer 1 of a 3-maintainer/R=3 deployment: it owns
// range 1 and follows ranges 0 and 2, so reads of range 0 exercise the
// non-owner invalidation paths.
func follower(t *testing.T, readBlockWait time.Duration) *Maintainer {
	t.Helper()
	m, err := NewMaintainer(MaintainerConfig{
		Index:         1,
		Placement:     Placement{NumMaintainers: 3, BatchSize: 2},
		Replication:   3,
		ReadBlockWait: readBlockWait,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestInvalidateBlocksReads pins the watermark invariant at one member:
// a position is absent until announced, invalid (retryable) once announced,
// and locally served the moment its payload resolves.
func TestInvalidateBlocksReads(t *testing.T) {
	m := follower(t, -1) // fail blocked reads immediately; no parking
	// Unannounced: the legacy absent semantics.
	if _, err := m.Read(1); !errors.Is(err, core.ErrNoSuchRecord) {
		t.Fatalf("unannounced read = %v, want ErrNoSuchRecord", err)
	}
	// Announce range 0's positions 1..2 (bound 3, exclusive).
	if err := m.Invalidate(0, 3); err != nil {
		t.Fatal(err)
	}
	_, err := m.Read(1)
	if !errors.Is(err, ErrReadBlocked) {
		t.Fatalf("announced read = %v, want ErrReadBlocked", err)
	}
	if !IsRetryable(err) || RetryAfter(err) <= 0 {
		t.Errorf("blocked read not retryable with hint: retryable=%v hint=%v", IsRetryable(err), RetryAfter(err))
	}
	if m.LocalReadBlocks.Value() != 1 {
		t.Errorf("LocalReadBlocks = %d, want 1", m.LocalReadBlocks.Value())
	}
	// A different range is untouched by the announcement.
	if _, err := m.Read(3); !errors.Is(err, core.ErrNoSuchRecord) {
		t.Errorf("other-range read = %v, want ErrNoSuchRecord", err)
	}
	// Payload lands: the read is served locally.
	if err := m.ReplicaAppend([]*core.Record{{LId: 1, Body: []byte("a")}}); err != nil {
		t.Fatal(err)
	}
	rec, err := m.Read(1)
	if err != nil || string(rec.Body) != "a" {
		t.Fatalf("resolved read = %v, %v; want body %q", rec, err, "a")
	}
	if m.LocalReadHits.Value() == 0 {
		t.Error("LocalReadHits did not advance on a locally served read")
	}
	// Watermark: position 1 resolved, position 2 still announced-only.
	wm, ann, err := m.ValidityWatermark(0)
	if err != nil {
		t.Fatal(err)
	}
	if wm != 2 || ann != 7 {
		t.Errorf("watermark/announced = %d/%d, want 2/7 (bound 3 normalizes to frontier 7)", wm, ann)
	}
	m.mu.Lock()
	backlog := m.invalBacklogLocked(0)
	m.mu.Unlock()
	if backlog != 1 {
		t.Errorf("invalidation backlog = %d, want 1", backlog)
	}
	// Idempotent and monotone: re-announcing or announcing a stale bound
	// changes nothing.
	if err := m.Invalidate(0, 3); err != nil {
		t.Fatal(err)
	}
	if err := m.Invalidate(0, 2); err != nil {
		t.Fatal(err)
	}
	if _, ann2, _ := m.ValidityWatermark(0); ann2 != ann {
		t.Errorf("announced bound moved on stale re-announcement: %d -> %d", ann, ann2)
	}
}

// TestSlotsBelow pins the slot-space normalization of announced bounds,
// including chunk and round boundaries of the round-robin placement.
func TestSlotsBelow(t *testing.T) {
	m := follower(t, 0)
	cases := []struct {
		rangeIdx int
		bound    uint64
		want     uint64
	}{
		{0, 0, 0}, {0, 1, 0}, // empty bounds
		{0, 2, 1},  // mid-chunk
		{0, 3, 2},  // exact chunk end
		{0, 5, 2},  // bound inside another range's chunk
		{0, 7, 2},  // up to the next round's first own position
		{0, 8, 3},  // into the next round
		{0, 9, 4},  // exact end of round-1 chunk
		{1, 3, 0},  // before this range's first chunk
		{1, 5, 2},  // exact own chunk end
		{2, 13, 4}, // two full rounds for the last range
	}
	for _, c := range cases {
		if got := m.slotsBelow(c.rangeIdx, c.bound); got != c.want {
			t.Errorf("slotsBelow(range %d, bound %d) = %d, want %d", c.rangeIdx, c.bound, got, c.want)
		}
	}
}

// TestBlockedReadWakesOnArrival: a read parked on an invalidated position
// is released by the payload's arrival, not by the timeout.
func TestBlockedReadWakesOnArrival(t *testing.T) {
	m := follower(t, 2*time.Second)
	if err := m.Invalidate(0, 2); err != nil {
		t.Fatal(err)
	}
	type res struct {
		rec *core.Record
		err error
	}
	done := make(chan res, 1)
	go func() {
		rec, err := m.Read(1)
		done <- res{rec, err}
	}()
	time.Sleep(5 * time.Millisecond) // let the read park
	if err := m.ReplicaAppend([]*core.Record{{LId: 1, Body: []byte("late")}}); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.err != nil || string(r.rec.Body) != "late" {
			t.Fatalf("parked read = %v, %v; want body %q", r.rec, r.err, "late")
		}
	case <-time.After(time.Second):
		t.Fatal("parked read did not wake on payload arrival")
	}
	if m.LocalReadBlocks.Value() != 1 {
		t.Errorf("LocalReadBlocks = %d, want 1", m.LocalReadBlocks.Value())
	}
}

// TestReadBlockedOverRPC: the blocked-read rejection survives the wire —
// the remote error maps back to a typed ReadBlockedError with its pacing
// hint, and the replica-session retry classification still applies. Also
// pins the under-acked append taxonomy satellite: a replica.AckError is
// retryable with a hint through the same flstore helpers.
func TestReadBlockedOverRPC(t *testing.T) {
	m := follower(t, -1)
	if err := m.Invalidate(0, 2); err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer()
	ServeMaintainer(srv, m)
	mc := NewMaintainerClient(rpc.NewLocalClient(srv))
	_, err := mc.Read(1)
	if !errors.Is(err, ErrReadBlocked) {
		t.Fatalf("remote blocked read = %v, want ErrReadBlocked", err)
	}
	if !IsRetryable(err) {
		t.Error("remote blocked read not retryable")
	}
	if RetryAfter(err) != readBlockHint {
		t.Errorf("remote RetryAfter = %v, want %v", RetryAfter(err), readBlockHint)
	}
	// Remote invalidation surface: the client wrapper reaches Invalidate
	// and ValidityWatermark through the fast-path envelope.
	if err := mc.Invalidate(0, 3); err != nil {
		t.Fatal(err)
	}
	wm, ann, err := mc.ValidityWatermark(0)
	if err != nil {
		t.Fatal(err)
	}
	if wm != 1 || ann != 7 {
		t.Errorf("remote watermark/announced = %d/%d, want 1/7", wm, ann)
	}
	ackErr := &replica.AckError{Acked: 1, Required: 2, RetryAfter: 2 * time.Millisecond}
	if !IsRetryable(ackErr) || RetryAfter(ackErr) != 2*time.Millisecond {
		t.Errorf("AckError classification: retryable=%v hint=%v, want true/2ms", IsRetryable(ackErr), RetryAfter(ackErr))
	}
}
