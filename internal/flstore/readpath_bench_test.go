package flstore

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/rpc"
)

// The read-path benchmarks mirror the append-side allocation discipline:
// the Fig. 7/8 scaling argument needs reads to move batches, not records,
// so the gate is allocations per window — one range-read RPC with an
// arena-decoded response versus N single-record round trips.

const readBenchWindow = 64

// newReadStack builds client→rpc→maintainers over in-process RPC (real
// dispatch and codec work, deterministic allocation counts) and appends
// enough records that [1, readBenchWindow] is fully below the head.
func newReadStack(tb testing.TB, n int, batch uint64) (*Client, []*Maintainer) {
	tb.Helper()
	p := Placement{NumMaintainers: n, BatchSize: batch}
	ms := make([]*Maintainer, n)
	apis := make([]MaintainerAPI, n)
	for i := 0; i < n; i++ {
		m, err := NewMaintainer(MaintainerConfig{Index: i, Placement: p})
		if err != nil {
			tb.Fatal(err)
		}
		srv := rpc.NewServer()
		ServeMaintainer(srv, m)
		ms[i] = m
		apis[i] = NewMaintainerClient(rpc.NewLocalClient(srv))
	}
	c, err := NewDirectClient(p, apis, nil)
	if err != nil {
		tb.Fatal(err)
	}
	body := make([]byte, 128)
	for i := 0; i < readBenchWindow; i++ {
		if _, err := c.Append(body, nil); err != nil {
			tb.Fatal(err)
		}
	}
	return c, ms
}

// BenchmarkReadRangeAllocs reads a 64-record window with one scatter-gather
// range read per iteration.
func BenchmarkReadRangeAllocs(b *testing.B) {
	c, _ := newReadStack(b, 2, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, err := c.ReadRange(1, readBenchWindow)
		if err != nil {
			b.Fatal(err)
		}
		if len(recs) != readBenchWindow {
			b.Fatalf("got %d records", len(recs))
		}
	}
}

// BenchmarkSingleReadsAllocs reads the same 64-record window one ReadLId
// round trip at a time — the pre-batching baseline.
func BenchmarkSingleReadsAllocs(b *testing.B) {
	c, _ := newReadStack(b, 2, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lid := uint64(1); lid <= readBenchWindow; lid++ {
			if _, err := c.ReadLId(lid); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTailCachedReadAllocs reads the window at the append frontier —
// every record served from the maintainers' tail rings, no store access.
func BenchmarkTailCachedReadAllocs(b *testing.B) {
	c, ms := newReadStack(b, 2, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, err := c.ReadRange(1, readBenchWindow)
		if err != nil {
			b.Fatal(err)
		}
		if len(recs) != readBenchWindow {
			b.Fatalf("got %d records", len(recs))
		}
	}
	b.StopTimer()
	hits := uint64(0)
	for _, m := range ms {
		hits += m.TailCacheHits.Value()
	}
	if hits == 0 {
		b.Fatal("window was not served from the tail cache")
	}
}

// TestReadRangeAllocBudget is the tier-1 gate for the batched read path:
// one scatter-gather ReadRange of a 64-record window must cost at most 10%
// of the allocations of 64 single-record reads of the same window. The
// batched path is one RPC per owner with an arena-decoded response; the
// single-record path pays a request buffer, response copy, and record
// decode per position.
func TestReadRangeAllocBudget(t *testing.T) {
	c, _ := newReadStack(t, 2, 8)
	// Warm both paths (pools, grow-only scratch).
	for i := 0; i < 3; i++ {
		if _, err := c.ReadRange(1, readBenchWindow); err != nil {
			t.Fatal(err)
		}
		for lid := uint64(1); lid <= readBenchWindow; lid++ {
			if _, err := c.ReadLId(lid); err != nil {
				t.Fatal(err)
			}
		}
	}
	ranged := testing.AllocsPerRun(30, func() {
		if _, err := c.ReadRange(1, readBenchWindow); err != nil {
			t.Fatal(err)
		}
	})
	single := testing.AllocsPerRun(30, func() {
		for lid := uint64(1); lid <= readBenchWindow; lid++ {
			if _, err := c.ReadLId(lid); err != nil {
				t.Fatal(err)
			}
		}
	})
	if ranged > 0.10*single {
		t.Fatalf("ReadRange of %d records = %.1f allocs, budget 10%% of %d single reads (%.1f allocs)",
			readBenchWindow, ranged, readBenchWindow, single)
	}
}

// TestTailCachedReadAllocBudget pins the warm-tail read: a 64-record window
// at the frontier, served entirely from the maintainers' tail rings over
// RPC, must stay within a fixed allocation budget. Measured ~19 allocs per
// window (two RPCs, arena decode, merge slice); the bound leaves ~2x
// headroom for toolchain drift while failing loudly on any per-record
// allocation (which would add ≥64 at once).
func TestTailCachedReadAllocBudget(t *testing.T) {
	const budget = 48
	c, ms := newReadStack(t, 2, 8)
	for i := 0; i < 3; i++ {
		if _, err := c.ReadRange(1, readBenchWindow); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(30, func() {
		if _, err := c.ReadRange(1, readBenchWindow); err != nil {
			t.Fatal(err)
		}
	})
	if avg > budget {
		t.Fatalf("cached tail read: %.1f allocs per %d-record window, budget %d", avg, readBenchWindow, budget)
	}
	misses := uint64(0)
	for _, m := range ms {
		misses += m.TailCacheMisses.Value()
	}
	if misses != 0 {
		t.Fatalf("warm window missed the tail cache %d times", misses)
	}
}

// BenchmarkTailPush measures the subscription tail draining a pre-filled
// log in chunked range reads. The poll comparison arm is the read-path
// experiment's (internal/cluster).
func BenchmarkTailPush(b *testing.B) {
	c, _ := newReadStack(b, 2, 8)
	head, err := c.HeadExact()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seen := uint64(0)
		err := c.Tail(ctx, 1, func(r *core.Record) bool {
			seen++
			return seen < head
		})
		if err != nil {
			b.Fatal(err)
		}
		if seen != head {
			b.Fatalf("tailed %d of %d", seen, head)
		}
	}
}
