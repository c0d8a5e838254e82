package flstore_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flstore"
)

func newCtxTestClient(t *testing.T, opts ...flstore.ClientOption) *flstore.Client {
	t.Helper()
	p := flstore.Placement{NumMaintainers: 2, BatchSize: 4}
	apis := make([]flstore.MaintainerAPI, 2)
	for i := range apis {
		m, err := flstore.NewMaintainer(flstore.MaintainerConfig{
			Index: i, Placement: p, EnforceHead: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		apis[i] = m
	}
	c, err := flstore.NewDirectClient(p, apis, nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestReadLIdCtxCancelMidWait cancels while the read is parked in its
// past-head retry loop; the call must return context.Canceled promptly
// rather than burning through the (huge) retry budget.
func TestReadLIdCtxCancelMidWait(t *testing.T) {
	c := newCtxTestClient(t, flstore.WithReadRetries(1_000_000), flstore.WithRetryBackoff(time.Millisecond))
	if _, err := c.Append([]byte("only"), nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := c.ReadLIdCtx(ctx, 100) // far past the head: would retry ~forever
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("cancellation took %v, want prompt return", d)
	}
}

// TestReadRangeCtxCancelled verifies a cancelled context short-circuits the
// range read (and its safety net) instead of starting round trips.
func TestReadRangeCtxCancelled(t *testing.T) {
	c := newCtxTestClient(t)
	for i := 0; i < 8; i++ {
		if _, err := c.Append([]byte("r"), nil); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.ReadRangeCtx(ctx, 1, 8); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// And the Background-wrapped legacy surface still works on the same log.
	recs, err := c.ReadRange(1, 8)
	if err != nil || len(recs) != 8 {
		t.Fatalf("ReadRange = %d recs, %v; want 8, nil", len(recs), err)
	}
}

// TestWaitHeadCtxCancelMidWait cancels while WaitHeadCtx is parked waiting
// for a head advance that never comes.
func TestWaitHeadCtxCancelMidWait(t *testing.T) {
	c := newCtxTestClient(t)
	if _, err := c.Append([]byte("one"), nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := c.WaitHeadCtx(ctx, 1000, 0) // unbounded wait, head stuck at 1
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("cancellation took %v, want prompt return", d)
	}
}

// TestAppendBatchCtxCancelled verifies appends respect a pre-cancelled
// context before touching the wire.
func TestAppendBatchCtxCancelled(t *testing.T) {
	c := newCtxTestClient(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.AppendBatchCtx(ctx, []*core.Record{{Body: []byte("x")}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestOptionDefaultsMatchLegacyFields pins the read-retry defaults to the
// values the client has always documented (50 retries seeded at 2ms), and
// checks that construction-time options replace them.
func TestOptionDefaultsMatchLegacyFields(t *testing.T) {
	c := newCtxTestClient(t)
	if n, d := flstore.ReadRetryConfig(c); n != 50 || d != 2*time.Millisecond {
		t.Errorf("default read retries = %d at %v, want 50 at 2ms", n, d)
	}
	if c.PaceRate() != 0 {
		t.Errorf("default PaceRate = %v, want 0 (pacing off)", c.PaceRate())
	}

	opt := newCtxTestClient(t,
		flstore.WithReadRetries(7),
		flstore.WithRetryBackoff(9*time.Millisecond),
	)
	if n, d := flstore.ReadRetryConfig(opt); n != 7 || d != 9*time.Millisecond {
		t.Errorf("options not applied: retries=%d backoff=%v", n, d)
	}
}
