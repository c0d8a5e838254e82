package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chariots"
	"repro/internal/core"
	"repro/internal/flstore"
	"repro/internal/rpc"
	"repro/internal/storage"
)

// Layers are named after the program's modules.
const (
	layerRPC uint8 = iota
	layerFLStore
	layerStorage
	layerChariots
	numLayers
)

var layerNames = [numLayers]string{"rpc", "flstore", "storage", "chariots"}

// Wire message types of the maintainer protocol (internal/flstore/
// messages.go) and the cross-datacenter protocol (internal/chariots/
// server.go). The maintainer wrapper tags its spans with the type its
// method is served under, so client-side rpc spans and server-side handler
// spans of one message type pair up; TestMsgTypeTable checks the table
// against the program's own client stubs.
const (
	msgAppend         uint8 = 1
	msgAppendAssigned uint8 = 2
	msgAppendAfter    uint8 = 3
	msgRead           uint8 = 4
	msgScan           uint8 = 5
	msgHead           uint8 = 6
	msgNextUnfilled   uint8 = 7
	msgGossip         uint8 = 8
	msgAppendFor      uint8 = 13
	msgReplicaAppend  uint8 = 14
	msgRangeFrontier  uint8 = 15
	msgPullRange      uint8 = 16
	msgGossipVec      uint8 = 17
	msgReadRange      uint8 = 19
	msgMultiRead      uint8 = 20
	msgTailWait       uint8 = 21
	msgInvalidate     uint8 = 22
	msgWatermark      uint8 = 23
	msgGossipVecs     uint8 = 24
	msgReplicate      uint8 = 32
)

// Operation codes of the storage and chariots seams.
const (
	opStoreAppend uint8 = iota + 100
	opStoreAppendBatch
	opStoreGet
	opStoreScan
	opDeliver // receiver side of the cross-DC TCP hop
	opSend    // sender side of the cross-DC TCP hop
)

// span is one call across a seam, in nanoseconds since the recorder epoch.
type span struct {
	start, end int64
	n          int64 // records (flstore, storage, chariots) or bytes (rpc)
	who        int32 // caller label index
	layer      uint8
	op         uint8
	err        bool
}

// recorder keeps spans in memory while on; the wrappers forward untouched
// while it is off.
type recorder struct {
	on     atomic.Bool
	epoch  time.Time
	mu     sync.Mutex
	spans  []span
	labels []string
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// stamp is now, or 0 for a nil recorder (untraced runs).
func (r *recorder) stamp() int64 {
	if r == nil {
		return 0
	}
	return r.now()
}

// label interns a caller label and returns its index.
func (r *recorder) label(s string) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.labels = append(r.labels, s)
	return int32(len(r.labels) - 1)
}

// begin returns the span start, or -1 when recording is off.
func (r *recorder) begin() int64 {
	if !r.on.Load() {
		return -1
	}
	return r.now()
}

func (r *recorder) end(layer, op uint8, who int32, n int, start int64, err error) {
	if start < 0 {
		return
	}
	sp := span{start: start, end: r.now(), n: int64(n), who: who, layer: layer, op: op, err: err != nil}
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// writeCSV writes every span as "layer,op,who,start_ns,end_ns,n,err".
func (r *recorder) writeCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "layer,op,who,start_ns,end_ns,n,err")
	r.mu.Lock()
	for _, s := range r.spans {
		fmt.Fprintf(w, "%s,%d,%s,%d,%d,%d,%t\n", layerNames[s.layer], s.op, r.labels[s.who], s.start, s.end, s.n, s.err)
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedConn wraps every rpc.Client the program is handed.
type tracedConn struct {
	c   rpc.Client
	rec *recorder
	who int32
}

func (t *tracedConn) Call(msgType uint8, payload []byte) ([]byte, error) {
	s := t.rec.begin()
	resp, err := t.c.Call(msgType, payload)
	t.rec.end(layerRPC, msgType, t.who, len(payload)+len(resp), s, err)
	return resp, err
}

func (t *tracedConn) Close() error { return t.c.Close() }

// tracedMaintainer is the server-side maintainer handed to
// flstore.ServeMaintainer. It must satisfy every optional maintainer
// interface, because ServeMaintainer registers those handlers only on a
// type assertion (see wrap_test.go).
type tracedMaintainer struct {
	m   *flstore.Maintainer
	rec *recorder
	who int32
}

func (t *tracedMaintainer) done(op uint8, n int, s int64, err error) {
	t.rec.end(layerFLStore, op, t.who, n, s, err)
}

func (t *tracedMaintainer) Append(recs []*core.Record) ([]uint64, error) {
	s := t.rec.begin()
	lids, err := t.m.Append(recs)
	t.done(msgAppend, len(recs), s, err)
	return lids, err
}

func (t *tracedMaintainer) AppendAssigned(recs []*core.Record) error {
	s := t.rec.begin()
	err := t.m.AppendAssigned(recs)
	t.done(msgAppendAssigned, len(recs), s, err)
	return err
}

func (t *tracedMaintainer) AppendAfter(minLId uint64, recs []*core.Record) ([]uint64, error) {
	s := t.rec.begin()
	lids, err := t.m.AppendAfter(minLId, recs)
	t.done(msgAppendAfter, len(recs), s, err)
	return lids, err
}

func (t *tracedMaintainer) Read(lid uint64) (*core.Record, error) {
	s := t.rec.begin()
	rec, err := t.m.Read(lid)
	t.done(msgRead, 1, s, err)
	return rec, err
}

func (t *tracedMaintainer) Scan(rule core.Rule) ([]*core.Record, error) {
	s := t.rec.begin()
	recs, err := t.m.Scan(rule)
	t.done(msgScan, len(recs), s, err)
	return recs, err
}

func (t *tracedMaintainer) Head() (uint64, error) {
	s := t.rec.begin()
	h, err := t.m.Head()
	t.done(msgHead, 0, s, err)
	return h, err
}

func (t *tracedMaintainer) NextUnfilled() (uint64, error) {
	s := t.rec.begin()
	n, err := t.m.NextUnfilled()
	t.done(msgNextUnfilled, 0, s, err)
	return n, err
}

func (t *tracedMaintainer) Gossip(from int, next uint64) (uint64, error) {
	s := t.rec.begin()
	n, err := t.m.Gossip(from, next)
	t.done(msgGossip, 0, s, err)
	return n, err
}

func (t *tracedMaintainer) AppendFor(rangeIdx int, recs []*core.Record) ([]uint64, error) {
	s := t.rec.begin()
	lids, err := t.m.AppendFor(rangeIdx, recs)
	t.done(msgAppendFor, len(recs), s, err)
	return lids, err
}

func (t *tracedMaintainer) ReplicaAppend(recs []*core.Record) error {
	s := t.rec.begin()
	err := t.m.ReplicaAppend(recs)
	t.done(msgReplicaAppend, len(recs), s, err)
	return err
}

func (t *tracedMaintainer) RangeFrontier(rangeIdx int) (uint64, error) {
	s := t.rec.begin()
	f, err := t.m.RangeFrontier(rangeIdx)
	t.done(msgRangeFrontier, 0, s, err)
	return f, err
}

func (t *tracedMaintainer) PullRange(rangeIdx int, fromLId uint64, limit int) ([]*core.Record, error) {
	s := t.rec.begin()
	recs, err := t.m.PullRange(rangeIdx, fromLId, limit)
	t.done(msgPullRange, len(recs), s, err)
	return recs, err
}

func (t *tracedMaintainer) GossipVec(vec []uint64) ([]uint64, error) {
	s := t.rec.begin()
	out, err := t.m.GossipVec(vec)
	t.done(msgGossipVec, 0, s, err)
	return out, err
}

func (t *tracedMaintainer) GossipVecs(next, dur []uint64) ([]uint64, []uint64, error) {
	s := t.rec.begin()
	n, d, err := t.m.GossipVecs(next, dur)
	t.done(msgGossipVecs, 0, s, err)
	return n, d, err
}

func (t *tracedMaintainer) Invalidate(rangeIdx int, upTo uint64) error {
	s := t.rec.begin()
	err := t.m.Invalidate(rangeIdx, upTo)
	t.done(msgInvalidate, 0, s, err)
	return err
}

func (t *tracedMaintainer) ValidityWatermark(rangeIdx int) (uint64, uint64, error) {
	s := t.rec.begin()
	wm, ann, err := t.m.ValidityWatermark(rangeIdx)
	t.done(msgWatermark, 0, s, err)
	return wm, ann, err
}

func (t *tracedMaintainer) ReadRange(q flstore.RangeQuery) (flstore.RangeResult, error) {
	s := t.rec.begin()
	res, err := t.m.ReadRange(q)
	t.done(msgReadRange, len(res.Records), s, err)
	return res, err
}

func (t *tracedMaintainer) MultiRead(lids []uint64) ([]*core.Record, error) {
	s := t.rec.begin()
	recs, err := t.m.MultiRead(lids)
	t.done(msgMultiRead, len(recs), s, err)
	return recs, err
}

func (t *tracedMaintainer) TailWait(rangeIdx int, cursor uint64, maxWait time.Duration) (uint64, error) {
	s := t.rec.begin()
	f, err := t.m.TailWait(rangeIdx, cursor, maxWait)
	t.done(msgTailWait, 0, s, err)
	return f, err
}

// tracedStore wraps a maintainer's storage.Store (layerStorage) or a
// chariots Config.Stores entry (layerChariots).
type tracedStore struct {
	s     storage.Store
	rec   *recorder
	who   int32
	layer uint8
}

func (t *tracedStore) Append(r *core.Record) error {
	s := t.rec.begin()
	err := t.s.Append(r)
	t.rec.end(t.layer, opStoreAppend, t.who, 1, s, err)
	return err
}

func (t *tracedStore) AppendBatch(rs []*core.Record) error {
	s := t.rec.begin()
	err := t.s.AppendBatch(rs)
	t.rec.end(t.layer, opStoreAppendBatch, t.who, len(rs), s, err)
	return err
}

func (t *tracedStore) Get(lid uint64) (*core.Record, error) {
	s := t.rec.begin()
	r, err := t.s.Get(lid)
	t.rec.end(t.layer, opStoreGet, t.who, 1, s, err)
	return r, err
}

func (t *tracedStore) Scan(minLId, maxLId uint64, fn func(*core.Record) bool) error {
	s := t.rec.begin()
	if s < 0 {
		return t.s.Scan(minLId, maxLId, fn)
	}
	n := 0
	err := t.s.Scan(minLId, maxLId, func(r *core.Record) bool {
		n++
		return fn(r)
	})
	t.rec.end(t.layer, opStoreScan, t.who, n, s, err)
	return err
}

func (t *tracedStore) MaxLId() uint64              { return t.s.MaxLId() }
func (t *tracedStore) Len() int                    { return t.s.Len() }
func (t *tracedStore) GC(upTo uint64) (int, error) { return t.s.GC(upTo) }
func (t *tracedStore) Close() error                { return t.s.Close() }

// Durable forwards the wrapped store's durability report; without it the
// maintainer would treat the store as volatile and never advance its
// durable watermarks.
func (t *tracedStore) Durable() bool {
	d, ok := t.s.(interface{ Durable() bool })
	return ok && d.Durable()
}

// tracedReceiver wraps a chariots.ReceiverAPI on one side of the cross-DC
// TCP hop: op is opSend on the sender side (below the latency link) and
// opDeliver on the receiver side (handed to ServeReceiver).
type tracedReceiver struct {
	rx  chariots.ReceiverAPI
	rec *recorder
	who int32
	op  uint8
}

func (t *tracedReceiver) Deliver(snap chariots.Snapshot) error {
	s := t.rec.begin()
	err := t.rx.Deliver(snap)
	t.rec.end(layerChariots, t.op, t.who, len(snap.Records), s, err)
	return err
}

// Seam helpers: with a nil recorder (untraced runs) the program gets its
// own handles, unwrapped.

func wrapConn(rec *recorder, c rpc.Client, who string) rpc.Client {
	if rec == nil {
		return c
	}
	return &tracedConn{c: c, rec: rec, who: rec.label(who)}
}

func wrapMaintainer(rec *recorder, m *flstore.Maintainer, who string) flstore.MaintainerAPI {
	if rec == nil {
		return m
	}
	return &tracedMaintainer{m: m, rec: rec, who: rec.label(who)}
}

func wrapStore(rec *recorder, s storage.Store, layer uint8, who string) storage.Store {
	if rec == nil {
		return s
	}
	return &tracedStore{s: s, rec: rec, who: rec.label(who), layer: layer}
}

func wrapReceiver(rec *recorder, rx chariots.ReceiverAPI, op uint8, who string) chariots.ReceiverAPI {
	if rec == nil {
		return rx
	}
	return &tracedReceiver{rx: rx, rec: rec, who: rec.label(who), op: op}
}
