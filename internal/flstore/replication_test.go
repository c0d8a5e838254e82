package flstore

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/replica"
	"repro/internal/rpc"
)

// The maintainer and its RPC client must both carry the whole maintainer
// surface; a signature drift fails compilation here.
var (
	_ MaintainerAPI = (*Maintainer)(nil)
	_ MaintainerAPI = (*maintainerClient)(nil)
)

// buildReplicatedDirect wires n in-process maintainers with replication r
// into a direct client under the given ack policy.
func buildReplicatedDirect(t *testing.T, n, r int, batch uint64, ack replica.AckPolicy) (*Client, []*Maintainer) {
	t.Helper()
	p := Placement{NumMaintainers: n, BatchSize: batch}
	var ms []*Maintainer
	var apis []MaintainerAPI
	for i := 0; i < n; i++ {
		m, err := NewMaintainer(MaintainerConfig{Index: i, Placement: p, Replication: r})
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
		apis = append(apis, m)
	}
	c, err := NewReplicatedDirectClient(p, apis, nil, r, ack)
	if err != nil {
		t.Fatal(err)
	}
	return c, ms
}

func TestReplicatedAppendFansOutToGroup(t *testing.T) {
	client, ms := buildReplicatedDirect(t, 3, 3, 4, replica.AckAll)
	var lids []uint64
	for i := 0; i < 12; i++ {
		lid, err := client.Append([]byte(fmt.Sprintf("r%d", i)), nil)
		if err != nil {
			t.Fatal(err)
		}
		lids = append(lids, lid)
	}
	// Under R = N = 3 every maintainer stores a copy of every record.
	for _, m := range ms {
		if got := m.Store().Len(); got != 12 {
			t.Errorf("maintainer %d stores %d records, want 12", m.Index(), got)
		}
		for _, lid := range lids {
			if _, err := m.Store().Get(lid); err != nil {
				t.Errorf("maintainer %d missing lid %d: %v", m.Index(), lid, err)
			}
		}
	}
	// Scans deduplicate the copies: each record is returned exactly once.
	recs, err := client.Read(core.Rule{MinLId: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(lids) {
		t.Errorf("scan returned %d records, want %d (copies must deduplicate)", len(recs), len(lids))
	}
}

func TestReplicaAppendIdempotent(t *testing.T) {
	p := Placement{NumMaintainers: 3, BatchSize: 2}
	m1, err := NewMaintainer(MaintainerConfig{Index: 1, Placement: p, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Maintainer 1 hosts ranges 1 (own) and 0 (follower). Feed range-0
	// copies out of order and duplicated.
	mk := func(lid uint64) *core.Record { return &core.Record{LId: lid, TOId: lid, Body: []byte("x")} }
	// Range 0, batch 2: slots 0,1 → LIds 1,2; slots 2,3 → LIds 7,8.
	if err := m1.ReplicaAppend([]*core.Record{mk(7), mk(8)}); err != nil {
		t.Fatal(err)
	}
	if f, _ := m1.RangeFrontier(0); f != 1 {
		t.Errorf("frontier after out-of-order copies = %d, want 1 (buffered)", f)
	}
	if err := m1.ReplicaAppend([]*core.Record{mk(1), mk(2)}); err != nil {
		t.Fatal(err)
	}
	if f, _ := m1.RangeFrontier(0); f != 13 {
		t.Errorf("frontier after gap filled = %d, want 13 (slots 0..3 dense)", f)
	}
	// Redelivery of everything is a no-op.
	if err := m1.ReplicaAppend([]*core.Record{mk(1), mk(7)}); err != nil {
		t.Fatal(err)
	}
	if got := m1.Store().Len(); got != 4 {
		t.Errorf("store holds %d records after redelivery, want 4", got)
	}
	// A range maintainer 1 doesn't host is rejected (range 2 owns LId 5).
	if err := m1.ReplicaAppend([]*core.Record{mk(5)}); !errors.Is(err, ErrNotReplica) {
		t.Errorf("copy for unhosted range = %v, want ErrNotReplica", err)
	}
}

func TestMaintainerRecoversPerRangeFrontiers(t *testing.T) {
	p := Placement{NumMaintainers: 3, BatchSize: 2}
	cfg := MaintainerConfig{Index: 1, Placement: p, Replication: 2}
	m1, err := NewMaintainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Own range: 3 records. Followed range 0: 2 copies.
	if _, err := m1.Append([]*core.Record{{Body: []byte("a")}, {Body: []byte("b")}, {Body: []byte("c")}}); err != nil {
		t.Fatal(err)
	}
	if err := m1.ReplicaAppend([]*core.Record{{LId: 1, Body: []byte("x")}, {LId: 2, Body: []byte("y")}}); err != nil {
		t.Fatal(err)
	}
	f1, _ := m1.RangeFrontier(1)
	f0, _ := m1.RangeFrontier(0)

	// Restart on the same store: both frontiers must recover even though
	// the store mixes two ranges' records.
	cfg.Store = m1.Store()
	m1b, err := NewMaintainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g, _ := m1b.RangeFrontier(1); g != f1 {
		t.Errorf("own-range frontier after restart = %d, want %d", g, f1)
	}
	if g, _ := m1b.RangeFrontier(0); g != f0 {
		t.Errorf("followed-range frontier after restart = %d, want %d", g, f0)
	}
	next, err := m1b.NextUnfilled()
	if err != nil {
		t.Fatal(err)
	}
	if next != f1 {
		t.Errorf("NextUnfilled after restart = %d, want %d", next, f1)
	}
}

// TestReplicaStatusRPCRoundTrip covers the `logctl replicas` path: status
// assembly from frontier polls (roles, reachability, lag in log positions)
// and the JSON round-trip over the controller RPC.
func TestReplicaStatusRPCRoundTrip(t *testing.T) {
	p := Placement{NumMaintainers: 3, BatchSize: 2}
	layout := replica.Layout{N: 3, R: 2}
	var ms []*Maintainer
	for i := 0; i < 3; i++ {
		m, err := NewMaintainer(MaintainerConfig{Index: i, Placement: p, Replication: 2})
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	// Three records on maintainer 0 with no fan-out: its follower (1) now
	// lags range 0 by three positions.
	if _, err := ms[0].Append([]*core.Record{{Body: []byte("a")}, {Body: []byte("b")}, {Body: []byte("c")}}); err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer()
	ServeReplicas(srv, func() (*replica.ClusterStatus, error) {
		return BuildClusterStatus(p, layout, replica.AckMajority, func(mi, ri int) (uint64, error) {
			if mi == 2 {
				return 0, errors.New("maintainer 2 unreachable")
			}
			return ms[mi].RangeFrontier(ri)
		}, func(mi, ri int) (uint64, uint64, error) {
			if mi == 2 {
				return 0, 0, errors.New("maintainer 2 unreachable")
			}
			return ms[mi].ValidityWatermark(ri)
		}, func(mi, ri int) (uint64, error) {
			if mi == 2 {
				return 0, errors.New("maintainer 2 unreachable")
			}
			return ms[mi].DurableWatermark(ri)
		}), nil
	})
	st, err := NewAdmin(rpc.NewLocalClient(srv)).Replicas(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Replication != 2 || st.Ack != "majority" || len(st.Groups) != 3 {
		t.Fatalf("status shape = r%d/%s/%d groups, want 2/majority/3", st.Replication, st.Ack, len(st.Groups))
	}
	g0 := st.Groups[0]
	if g0.Members[0].Role != "primary" || !g0.Members[0].Healthy || g0.Members[0].LagLIds != 0 {
		t.Errorf("group 0 primary = %+v, want healthy primary with no lag", g0.Members[0])
	}
	if g0.Members[1].Role != "follower" || g0.Members[1].LagLIds != 3 {
		t.Errorf("group 0 follower = %+v, want follower lagging 3 positions", g0.Members[1])
	}
	// Member 2's poll failed: it must be reported unreachable, not omitted.
	g1 := st.Groups[1]
	if len(g1.Members) != 2 || g1.Members[1].Member != 2 || g1.Members[1].Healthy {
		t.Errorf("group 1 = %+v, want member 2 present and unhealthy", g1.Members)
	}
}

// buildFaultableCluster wires n maintainers (replication r) behind
// in-process RPC servers with every link — client→maintainer and
// maintainer→maintainer gossip — routed through one fault controller, so
// tests kill a maintainer by severing its links. Gossip runs manually via
// Round() for determinism.
func buildFaultableCluster(t *testing.T, n, r int, batch uint64, ack replica.AckPolicy, seed uint64) (*Client, []*Maintainer, []*Gossiper, *faultinject.Controller) {
	t.Helper()
	p := Placement{NumMaintainers: n, BatchSize: batch}
	ctl := faultinject.New(faultinject.Options{Seed: seed})
	var ms []*Maintainer
	var srvs []*rpc.Server
	for i := 0; i < n; i++ {
		m, err := NewMaintainer(MaintainerConfig{Index: i, Placement: p, Replication: r})
		if err != nil {
			t.Fatal(err)
		}
		srv := rpc.NewServer()
		ServeMaintainer(srv, m)
		ms = append(ms, m)
		srvs = append(srvs, srv)
	}
	var apis []MaintainerAPI
	for i := 0; i < n; i++ {
		apis = append(apis, NewMaintainerClient(ctl.Wrap(fmt.Sprintf("c->m%d", i), rpc.NewLocalClient(srvs[i]))))
	}
	client, err := NewReplicatedDirectClient(p, apis, nil, r, ack)
	if err != nil {
		t.Fatal(err)
	}
	var gs []*Gossiper
	for i := 0; i < n; i++ {
		peers := make([]MaintainerAPI, n)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			peers[j] = NewMaintainerClient(ctl.Wrap(fmt.Sprintf("m%d->m%d", i, j), rpc.NewLocalClient(srvs[j])))
		}
		gs = append(gs, NewGossiper(ms[i], peers, 0))
	}
	return client, ms, gs, ctl
}

// severMaintainer cuts every link to maintainer idx.
func severMaintainer(ctl *faultinject.Controller, n, idx int) {
	ctl.Sever(fmt.Sprintf("c->m%d", idx))
	for i := 0; i < n; i++ {
		if i != idx {
			ctl.Sever(fmt.Sprintf("m%d->m%d", i, idx))
		}
	}
}

// TestGossipHeadResumesAfterEviction is the head-of-log staleness
// regression: when a maintainer dies, the scalar §5.4 gossip freezes its
// next-unfilled entry at every peer and the head stops forever. With
// replica groups, the dead range's acting primary keeps assigning its
// positions and vector gossip spreads that progress, so HL resumes
// advancing once the member is evicted from its group.
func TestGossipHeadResumesAfterEviction(t *testing.T) {
	const n = 3
	client, ms, gs, ctl := buildFaultableCluster(t, n, 3, 2, replica.AckMajority, 7)
	gossipAll := func(rounds int) {
		for k := 0; k < rounds; k++ {
			for i, g := range gs {
				if !ctl.Severed(fmt.Sprintf("c->m%d", i)) {
					g.Round()
				}
			}
		}
	}
	for i := 0; i < 12; i++ {
		if _, err := client.Append([]byte("pre"), nil); err != nil {
			t.Fatal(err)
		}
	}
	gossipAll(2)
	preKill, err := ms[0].Head()
	if err != nil {
		t.Fatal(err)
	}
	if preKill == 0 {
		t.Fatal("head did not advance before the kill")
	}

	severMaintainer(ctl, n, 1)
	// Appends keep succeeding; the session evicts maintainer 1 after its
	// failure threshold and retargets range 1 to its acting primary.
	for i := 0; i < 18; i++ {
		if _, err := client.Append([]byte("post"), nil); err != nil {
			t.Fatalf("append %d after kill: %v", i, err)
		}
	}
	if st := client.Session().Health().State(1); st != replica.Evicted {
		t.Fatalf("maintainer 1 state = %v, want evicted", st)
	}
	gossipAll(3)
	// The survivors' gossip marks the dead peer silent...
	if !gs[0].PeerSilent(1) || gs[0].SilentPeers() != 1 {
		t.Errorf("gossiper 0: PeerSilent(1)=%v SilentPeers=%d, want true/1",
			gs[0].PeerSilent(1), gs[0].SilentPeers())
	}
	// ...and the head of the log resumes advancing anyway: range 1's
	// frontier moved via its acting primary, and vector gossip spread it.
	for _, i := range []int{0, 2} {
		h, err := ms[i].Head()
		if err != nil {
			t.Fatal(err)
		}
		if h <= preKill {
			t.Errorf("maintainer %d head stuck at %d (pre-kill %d) after eviction", i, h, preKill)
		}
	}
	// Reads of positions owned by the dead range fail over to survivors.
	head, err := client.HeadExact()
	if err != nil {
		t.Fatal(err)
	}
	served := 0
	for lid := uint64(1); lid <= head; lid++ {
		if client.Placement().Owner(lid) != 1 {
			continue
		}
		if _, err := client.ReadLId(lid); err != nil {
			t.Errorf("failover read of lid %d: %v", lid, err)
		}
		served++
	}
	if served == 0 {
		t.Error("no range-1 positions below head; scenario did not exercise failover reads")
	}
}
