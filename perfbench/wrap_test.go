package main

import (
	"context"
	"testing"
	"time"

	"repro/internal/chariots"
	"repro/internal/core"
	"repro/internal/flstore"
	"repro/internal/rpc"
	"repro/internal/storage"
)

// The traced run must run the same program as the untraced one. The
// maintainer wrapper has to satisfy every optional maintainer interface:
// flstore.ServeMaintainer registers the replica, durable-gossip,
// invalidation and range-read handlers only when its argument
// type-asserts to them, and the client falls back to the legacy scan path
// when a maintainer lacks the range-read surface.
var (
	_ flstore.MaintainerAPI    = (*tracedMaintainer)(nil)
	_ flstore.ReplicaAPI       = (*tracedMaintainer)(nil)
	_ flstore.DurableGossipAPI = (*tracedMaintainer)(nil)
	_ flstore.InvalidationAPI  = (*tracedMaintainer)(nil)
	_ flstore.RangeReadAPI     = (*tracedMaintainer)(nil)
	_ storage.Store            = (*tracedStore)(nil)
	_ rpc.Client               = (*tracedConn)(nil)
	_ chariots.ReceiverAPI     = (*tracedReceiver)(nil)
)

// The maintainer reads durability off its store with a type assertion; a
// store wrapper that dropped Durable() would silently stop durable
// watermarks.
func TestStoreWrapperForwardsDurable(t *testing.T) {
	rec := newRecorder()
	for _, tc := range []struct {
		name string
		sync storage.SyncPolicy
		want bool
	}{{"group", storage.SyncGroupCommit, true}, {"never", storage.SyncNever, false}} {
		seg, err := storage.OpenSegmentStore(t.TempDir(), storage.SegmentStoreOptions{Sync: tc.sync})
		if err != nil {
			t.Fatal(err)
		}
		w := wrapStore(rec, seg, layerStorage, tc.name).(interface{ Durable() bool })
		if got := w.Durable(); got != tc.want {
			t.Errorf("%s: wrapped Durable() = %v, want %v", tc.name, got, tc.want)
		}
		seg.Close()
	}
	mem := wrapStore(rec, storage.NewMemStore(), layerChariots, "mem").(interface{ Durable() bool })
	if mem.Durable() {
		t.Error("wrapped MemStore reports durable")
	}
}

// The wrapper tags each server span with the message type its method is
// served under, from a table copied from the program. Every maintainer
// method, called through the program's own client stub, must send the type
// the table gives that method, or client and server spans would not pair
// and the per-type layer metrics would read 0.
func TestMsgTypeTable(t *testing.T) {
	m, err := flstore.NewMaintainer(flstore.MaintainerConfig{
		Index:       0,
		Placement:   flstore.Placement{NumMaintainers: 1, BatchSize: flRound},
		Store:       storage.NewMemStore(),
		Replication: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	srv := rpc.NewServer()
	flstore.ServeMaintainer(srv, wrapMaintainer(rec, m, "m0"))
	api := flstore.NewMaintainerClient(wrapConn(rec, rpc.NewLocalClient(srv), "client"))
	// The stub implements every optional maintainer interface.
	c := api.(interface {
		flstore.MaintainerAPI
		flstore.ReplicaAPI
		flstore.DurableGossipAPI
		flstore.InvalidationAPI
		flstore.RangeReadAPI
	})
	recs := func() []*core.Record { return []*core.Record{{Body: body(1, 1)}} }
	calls := []struct {
		name string
		want uint8
		call func()
	}{
		{"Append", msgAppend, func() { c.Append(recs()) }},
		{"AppendAssigned", msgAppendAssigned, func() { c.AppendAssigned([]*core.Record{{LId: 100, Body: body(1, 2)}}) }},
		{"AppendAfter", msgAppendAfter, func() { c.AppendAfter(1, recs()) }},
		{"Read", msgRead, func() { c.Read(1) }},
		{"Scan", msgScan, func() { c.Scan(core.Rule{MinLId: 1, MaxLId: 4}) }},
		{"Head", msgHead, func() { c.Head() }},
		{"NextUnfilled", msgNextUnfilled, func() { c.NextUnfilled() }},
		{"Gossip", msgGossip, func() { c.Gossip(0, 1) }},
		{"AppendFor", msgAppendFor, func() { c.AppendFor(0, recs()) }},
		{"ReplicaAppend", msgReplicaAppend, func() { c.ReplicaAppend([]*core.Record{{LId: 200, Body: body(1, 3)}}) }},
		{"RangeFrontier", msgRangeFrontier, func() { c.RangeFrontier(0) }},
		{"PullRange", msgPullRange, func() { c.PullRange(0, 1, 4) }},
		{"GossipVec", msgGossipVec, func() { c.GossipVec([]uint64{1}) }},
		{"GossipVecs", msgGossipVecs, func() { c.GossipVecs([]uint64{1}, []uint64{0}) }},
		{"Invalidate", msgInvalidate, func() { c.Invalidate(0, 1) }},
		{"ValidityWatermark", msgWatermark, func() { c.ValidityWatermark(0) }},
		{"ReadRange", msgReadRange, func() { c.ReadRange(flstore.RangeQuery{Lo: 1, Hi: 4, Range: -1}) }},
		{"MultiRead", msgMultiRead, func() { c.MultiRead([]uint64{1, 2}) }},
		{"TailWait", msgTailWait, func() { c.TailWait(0, 1, time.Millisecond) }},
	}
	rec.on.Store(true)
	for _, tc := range calls {
		rec.mu.Lock()
		rec.spans = rec.spans[:0]
		rec.mu.Unlock()
		tc.call()
		var client, server []uint8
		for _, s := range newSpanSet(rec).spans {
			switch s.layer {
			case layerRPC:
				client = append(client, s.op)
			case layerFLStore:
				server = append(server, s.op)
			}
		}
		if len(client) != 1 || len(server) != 1 || client[0] != tc.want || server[0] != tc.want {
			t.Errorf("%s: client sent types %v, handler span types %v; table says %d", tc.name, client, server, tc.want)
		}
	}
}

// A traced deployment serves every handler the untraced one does, takes
// the same code paths, and pairs client and server spans by message type.
func TestTracedFLStoreDeploymentRunsTheSameProgram(t *testing.T) {
	rec := newRecorder()
	d, err := deployFL(t.TempDir(), rec)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	rec.on.Store(true)
	l := &flLog{seed: 7, byLId: map[uint64]uint64{}}
	for i := 0; i < 3*flMaintainers*flRound; i++ {
		if _, err := l.appendOne(d.client); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.fill(d.client); err != nil {
		t.Fatal(err)
	}
	recs, err := d.client.ReadRange(1, l.max())
	if err != nil || uint64(len(recs)) != l.max() {
		t.Fatalf("ReadRange: %d records, %v", len(recs), err)
	}
	for i, r := range recs {
		if err := l.checkRecord(uint64(i+1), r); err != nil {
			t.Fatal(err)
		}
	}
	// A subscriber past the head parks on TailWait until the next round
	// lands.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	from := l.max() + 1
	appended := make(chan error, 1)
	go func() {
		time.Sleep(10 * time.Millisecond)
		_, err := l.appendOne(d.client)
		if err == nil {
			err = l.fill(d.client)
		}
		appended <- err
	}()
	if err := d.client.Tail(ctx, from, func(r *core.Record) bool { return r.LId < from }); err != nil {
		t.Fatal(err)
	}
	if err := <-appended; err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * flGossip)
	// Durable watermarks advance only if the store wrapper forwards
	// Durable() to the maintainer.
	if wm, err := d.maints[0].DurableWatermark(0); err != nil || wm == 0 {
		t.Errorf("durable watermark of range 0 = %d, %v: want > 0", wm, err)
	}
	rec.on.Store(false)

	ss := newSpanSet(rec)
	server := map[uint8]int{}
	for _, s := range ss.spans {
		if s.layer == layerFLStore {
			server[s.op]++
		}
		if s.err {
			t.Errorf("span %s op %d by %s failed", layerNames[s.layer], s.op, ss.labels[s.who])
		}
	}
	for _, op := range []uint8{msgAppend, msgReplicaAppend, msgInvalidate, msgReadRange, msgTailWait, msgGossipVecs} {
		if server[op] == 0 {
			t.Errorf("no server span of message type %d: handler missing or path changed", op)
		}
	}
	for _, op := range []uint8{msgScan, msgGossipVec, msgGossip} {
		if server[op] != 0 {
			t.Errorf("%d server spans of fallback message type %d", server[op], op)
		}
	}
	for _, s := range ss.spans {
		if s.layer == layerRPC && server[s.op] == 0 {
			t.Errorf("client called message type %d with no matching server span", s.op)
		}
	}
	if len(ss.pick(layerStorage, windows{{0, rec.now()}}, opStoreAppendBatch)) == 0 {
		t.Error("no storage AppendBatch spans")
	}
}

// The cross-datacenter hop is wrapped on both sides of the TCP connection
// and the chariots stores are wrapped, without changing what is applied.
func TestTracedGeoDeploymentReplicates(t *testing.T) {
	rec := newRecorder()
	g, err := deployGeo(rec)
	if err != nil {
		t.Fatal(err)
	}
	defer g.close()
	rec.on.Store(true)
	l := newGeoLog(3)
	for i := 0; i < 200; i++ {
		if _, err := l.appendOne(g.dcs[i%geoDCs]); err != nil {
			t.Fatal(err)
		}
	}
	if !g.settle(l, 10*time.Second) {
		t.Fatal("appends never replicated")
	}
	rec.on.Store(false)
	ss := newSpanSet(rec)
	all := windows{{0, rec.now()}}
	for _, c := range []struct {
		layer, op uint8
	}{{layerRPC, msgReplicate}, {layerChariots, opSend}, {layerChariots, opDeliver}, {layerChariots, opStoreAppendBatch}} {
		if len(ss.pick(c.layer, all, c.op)) == 0 {
			t.Errorf("no %s spans of op %d", layerNames[c.layer], c.op)
		}
	}
	for _, dc := range g.dcs {
		recs, err := dc.LogRecords()
		if err != nil {
			t.Fatal(err)
		}
		if err := chariots.CheckCausalInvariant(recs); err != nil {
			t.Fatal(err)
		}
		if len(recs) != 200 {
			t.Fatalf("log holds %d records, want 200", len(recs))
		}
	}
}
