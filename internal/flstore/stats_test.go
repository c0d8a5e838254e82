package flstore

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/rpc"
)

// TestStatsRoundTrip verifies the controller-side stats RPC: a registry
// populated by a serving maintainer survives the JSON round trip with
// values, histogram buckets, and labels intact — what `logctl stats` sees
// is what the server measured.
func TestStatsRoundTrip(t *testing.T) {
	reg := metrics.NewRegistry()
	m, err := NewMaintainer(MaintainerConfig{
		Placement: Placement{NumMaintainers: 1, BatchSize: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	m.EnableMetrics(reg)

	const n = 10
	for i := 0; i < n; i++ {
		if _, err := m.Append([]*core.Record{{Body: []byte("x")}}); err != nil {
			t.Fatal(err)
		}
	}

	srv := rpc.NewServer()
	ServeStats(srv, reg)
	c := rpc.NewLocalClient(srv)
	defer c.Close()

	snap, err := NewAdmin(c).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	lbl := map[string]string{"maintainer": "0"}
	if s := snap.Find("flstore_appends_total", lbl); s == nil || s.Value != n {
		t.Errorf("appends_total = %+v, want %d", s, n)
	}
	if s := snap.Find("flstore_head_lid", lbl); s == nil || s.Value != n {
		t.Errorf("head_lid = %+v, want %d", s, n)
	}
	h := snap.Find("flstore_append_seconds", lbl)
	if h == nil || h.Kind != "histogram" {
		t.Fatalf("append_seconds = %+v, want histogram", h)
	}
	if h.Count != n {
		t.Errorf("append latency count = %d, want %d", h.Count, n)
	}
	if q := h.Quantile(0.99); q <= 0 {
		t.Errorf("p99 = %v, want > 0", q)
	}
}
