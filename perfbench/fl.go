package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/flstore"
	"repro/internal/metrics"
	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/internal/storage"
)

// FLStore deployment shape shared by append-durable and read-tail: three
// maintainers, every range replicated on all three, majority acks,
// group-commit segment stores, gossip on — the cmd/flstore composition,
// instrumentation included, without its controller and metrics endpoint.
const (
	flMaintainers = 3
	flReplication = 3
	flRound       = 16 // placement batch: a 48-LId round
	flGossip      = 5 * time.Millisecond
	flSync        = storage.SyncGroupCommit
	scanWidth     = 256
	preloadBatch  = 256
)

// flParams shape one FLStore workload.
type flParams struct {
	preloadBatches int     // 256-record batches appended during set-up
	appendRate     float64 // phase A open-loop appends per second
	readRate       float64 // phase A open-loop point reads per second (0: none)
	appendWindow   int     // phase B closed-loop appends in flight
	scanWindow     int     // phase C closed-loop scans in flight
	scanSpan       uint64  // phase C scans lie within the newest scanSpan LIds (0: the whole log)
	fracA, fracB   float64 // shares of each round for phases A, B and C
	fracC          float64
	rounds         int  // repetitions of phases A, B and C
	reopenCheck    bool // close and re-open every segment store after the run
	probeReads     bool // the one-op-in-flight probe times reads, not appends
}

var (
	// append-durable's log grows from about 800 to about 7,000 records during
	// a run at --seconds 36. Scans over the whole of it would leave the
	// maintainers' 4,096-record tail caches part-way through, so the scan
	// rate would fall from round to round and depend on how many appends the
	// earlier phases completed. Its scans stay within the newest 2,048 LIds,
	// which the tail caches hold; read-tail scans its whole log, beyond the
	// caches.
	appendDurable = flParams{
		preloadBatches: 3, appendRate: 150, appendWindow: 64, scanWindow: 2, scanSpan: 2048,
		fracA: 0.6, fracB: 0.2, fracC: 0.2, rounds: 5, reopenCheck: true,
	}
	// 240 batches = 61,440 records, 15x the maintainers' 4,096-record
	// tail caches, in whole rounds (240 is a multiple of the 3 ranges).
	readTail = flParams{
		preloadBatches: 240, appendRate: 200, readRate: 2000, appendWindow: 64, scanWindow: 4,
		fracA: 0.5, fracB: 0.15, fracC: 0.35, rounds: 5, probeReads: true,
	}
)

type flDeploy struct {
	dirs      []string
	placement flstore.Placement
	segs      []*storage.SegmentStore
	maints    []*flstore.Maintainer
	servers   []*rpc.Server
	gossipers []*flstore.Gossiper
	conns     []rpc.Client
	client    *flstore.Client
}

// deployFL stands up the maintainers on loopback TCP and a client dialed to
// them. Stores, maintainers, servers and gossipers export to one registry,
// as cmd/flstore's do (it is never scraped here). With a recorder, every
// seam is wrapped.
func deployFL(dir string, rec *recorder) (*flDeploy, error) {
	d := &flDeploy{placement: flstore.Placement{NumMaintainers: flMaintainers, BatchSize: flRound}}
	reg := metrics.NewRegistry()
	addrs := make([]string, flMaintainers)
	for i := 0; i < flMaintainers; i++ {
		sd := filepath.Join(dir, fmt.Sprintf("maintainer-%d", i))
		seg, err := storage.OpenSegmentStore(sd, storage.SegmentStoreOptions{Sync: flSync})
		if err != nil {
			d.close()
			return nil, err
		}
		seg.EnableMetrics(reg, metrics.L("maintainer", strconv.Itoa(i)))
		d.dirs = append(d.dirs, sd)
		d.segs = append(d.segs, seg)
		m, err := flstore.NewMaintainer(flstore.MaintainerConfig{
			Index:       i,
			Placement:   d.placement,
			Store:       wrapStore(rec, seg, layerStorage, fmt.Sprintf("m%d", i)),
			EnforceHead: true,
			Replication: flReplication,
		})
		if err != nil {
			d.close()
			return nil, err
		}
		m.EnableMetrics(reg)
		d.maints = append(d.maints, m)
		srv := rpc.NewServer()
		srv.EnableMetrics(reg, fmt.Sprintf("maintainer-%d", i))
		flstore.ServeMaintainer(srv, wrapMaintainer(rec, m, fmt.Sprintf("m%d", i)))
		d.servers = append(d.servers, srv)
		a, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			d.close()
			return nil, err
		}
		addrs[i] = a.String()
	}
	dial := func(addr, who string) (flstore.MaintainerAPI, error) {
		c, err := rpc.Dial(addr)
		if err != nil {
			return nil, err
		}
		d.conns = append(d.conns, c)
		return flstore.NewMaintainerClient(wrapConn(rec, c, who)), nil
	}
	for i, m := range d.maints {
		peers := make([]flstore.MaintainerAPI, flMaintainers)
		for j := range peers {
			if j == i {
				continue
			}
			p, err := dial(addrs[j], fmt.Sprintf("gossip m%d->m%d", i, j))
			if err != nil {
				d.close()
				return nil, err
			}
			peers[j] = p
		}
		g := flstore.NewGossiper(m, peers, flGossip)
		g.EnableMetrics(reg)
		g.Start()
		d.gossipers = append(d.gossipers, g)
	}
	members := make([]flstore.MaintainerAPI, flMaintainers)
	for j := range members {
		p, err := dial(addrs[j], fmt.Sprintf("client->m%d", j))
		if err != nil {
			d.close()
			return nil, err
		}
		members[j] = p
	}
	c, err := flstore.NewReplicatedDirectClient(d.placement, members, nil, flReplication, replica.AckMajority)
	if err != nil {
		d.close()
		return nil, err
	}
	d.client = c
	return d, nil
}

// close stops gossip, drops the connections and servers, and closes the
// stores.
func (d *flDeploy) close() error {
	for _, g := range d.gossipers {
		g.Stop()
	}
	for _, c := range d.conns {
		c.Close()
	}
	for _, s := range d.servers {
		s.Close()
	}
	var first error
	for _, s := range d.segs {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (d *flDeploy) fsyncs() uint64 {
	var n uint64
	for _, s := range d.segs {
		n += s.FsyncCount()
	}
	return n
}

func (d *flDeploy) diskBytes() int64 {
	var n int64
	for _, s := range d.segs {
		_, b := s.DiskStats()
		n += b
	}
	return n
}

func (d *flDeploy) rejected() uint64 {
	var n uint64
	for _, m := range d.maints {
		n += m.Rejected.Value() + m.BacklogRejects.Value()
	}
	return n
}

// flLog is the generator's record of acknowledged appends: LId → the id of
// the operation whose payload it holds.
type flLog struct {
	seed   int64
	nextID atomic.Uint64
	mu     sync.Mutex
	byLId  map[uint64]uint64
	maxLId uint64
	dups   int
}

func (l *flLog) ack(lid, id uint64) {
	l.mu.Lock()
	if _, ok := l.byLId[lid]; ok {
		l.dups++
	}
	l.byLId[lid] = id
	if lid > l.maxLId {
		l.maxLId = lid
	}
	l.mu.Unlock()
}

func (l *flLog) max() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.maxLId
}

func (l *flLog) lookup(lid uint64) (uint64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	id, ok := l.byLId[lid]
	return id, ok
}

// appendOne appends one generated record and logs its acknowledgement.
func (l *flLog) appendOne(c *flstore.Client) (uint64, error) {
	id := l.nextID.Add(1)
	lid, err := c.Append(body(l.seed, id), nil)
	if err != nil {
		return 0, err
	}
	l.ack(lid, id)
	return lid, nil
}

// fill appends untimed records until the head of the log covers every
// acknowledged append, so the run ends on whole placement rounds.
func (l *flLog) fill(c *flstore.Client) error {
	for i := 0; i < 20*flMaintainers*flRound; i++ {
		h, err := c.HeadExact()
		if err != nil {
			return err
		}
		if h >= l.max() {
			return nil
		}
		if _, err := l.appendOne(c); err != nil {
			return err
		}
	}
	return errors.New("head of the log never covered the acknowledged appends")
}

// checkRecord verifies a read-back record against the log of acks.
func (l *flLog) checkRecord(lid uint64, r *core.Record) error {
	if r == nil || r.LId != lid {
		return fmt.Errorf("read of LId %d returned %v", lid, r)
	}
	id := bodyID(r.Body)
	if !bodyOK(l.seed, id, r.Body) {
		return fmt.Errorf("LId %d holds a corrupt payload", lid)
	}
	if want, ok := l.lookup(lid); ok && want != id {
		return fmt.Errorf("LId %d holds op %d, acknowledged for op %d", lid, id, want)
	}
	return nil
}

// flRun is one run of an FLStore workload.
type flRun struct {
	cfg  config
	p    flParams
	rec  *recorder
	d    *flDeploy
	log  *flLog
	dir  string
	out  *runOut
	span phaseSpans
}

// setup deploys, preloads and warms up one deployment.
func (r *flRun) setup(n int) error {
	r.dir = filepath.Join(r.cfg.workdir, fmt.Sprintf("deploy-%d", n))
	d, err := deployFL(r.dir, r.rec)
	if err != nil {
		return err
	}
	r.d = d
	r.log = &flLog{seed: r.cfg.seed, byLId: make(map[uint64]uint64)}
	c := d.client
	// Preload in 256-record batches, eight in flight.
	var next atomic.Int64
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func() {
			for next.Add(1) <= int64(r.p.preloadBatches) {
				recs := make([]*core.Record, preloadBatch)
				ids := make([]uint64, preloadBatch)
				for k := range recs {
					ids[k] = r.log.nextID.Add(1)
					recs[k] = &core.Record{Body: body(r.cfg.seed, ids[k])}
				}
				lids, err := c.AppendBatch(recs)
				if err != nil {
					errs <- fmt.Errorf("preload: %w", err)
					return
				}
				for k, lid := range lids {
					r.log.ack(lid, ids[k])
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < 8; w++ {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	if err != nil {
		return err
	}
	// Warm-up: connections, commit windows and read paths.
	for i := 0; i < 64; i++ {
		if _, err := r.log.appendOne(c); err != nil {
			return fmt.Errorf("warm-up append: %w", err)
		}
	}
	if err := r.log.fill(c); err != nil {
		return err
	}
	head := r.log.max()
	for i := uint64(0); i < 64; i++ {
		lid := 1 + (i*7919)%head
		rec, err := c.ReadLId(lid)
		if err != nil {
			return fmt.Errorf("warm-up read: %w", err)
		}
		if err := r.log.checkRecord(lid, rec); err != nil {
			return err
		}
	}
	return nil
}

func (r *flRun) teardown() error {
	err := r.d.close()
	r.d = nil
	if rerr := os.RemoveAll(r.dir); err == nil {
		err = rerr
	}
	return err
}

// run sets up three times, keeping the last deployment (set-up time is
// the median), then runs the phases and the checks.
func (r *flRun) run() error {
	if r.cfg.trace {
		r.rec = newRecorder()
	}
	var setups []float64
	for n := 0; n < 3; n++ {
		t0 := time.Now()
		if err := r.setup(n); err != nil {
			if r.d != nil {
				r.d.close()
			}
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if n < 2 {
			if err := r.teardown(); err != nil {
				return err
			}
		}
	}
	defer os.RemoveAll(r.dir)
	r.out.setE2E("setup_s", median(setups), "s")
	err := r.phases()
	if err == nil {
		err = r.verify()
	}
	if cerr := r.d.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if r.p.reopenCheck {
		if err := r.reopenCheck(); err != nil {
			return err
		}
	}
	r.out.setE2E("max_rss_mb", maxRSSMiB(), "MiB")
	if r.rec != nil {
		r.out.layers = flLayers(r)
	}
	return nil
}

// phases runs rounds of phase A (open loop), phase B (closed-loop appends)
// and phase C (closed-loop scans). Medians and rates are taken per round and
// reported as the median over rounds, so a transient stall of the host
// moves a minority of the values; p99s pool the rounds. An
// untimed collection before each phase starts every phase at the same point
// of the garbage collector's cycle, so how many collections land inside a
// phase does not depend on what ran before it.
func (r *flRun) phases() error {
	if r.rec != nil {
		r.rec.on.Store(true)
	}
	rej0 := r.d.rejected()
	slot := time.Duration(r.cfg.seconds) * time.Second / time.Duration(r.p.rounds)
	for round := 0; round < r.p.rounds; round++ {
		rng := rand.New(rand.NewSource(r.cfg.seed*1000 + int64(round)))
		runtime.GC()
		if err := r.phaseA(rng, time.Duration(r.p.fracA*float64(slot))); err != nil {
			return err
		}
		runtime.GC()
		if err := r.phaseB(time.Duration(r.p.fracB * float64(slot))); err != nil {
			return err
		}
		runtime.GC()
		if err := r.phaseC(rng, time.Duration(r.p.fracC*float64(slot))); err != nil {
			return err
		}
	}
	r.out.rejected = r.d.rejected() - rej0
	r.out.finishRounds()
	if r.rec != nil {
		return r.probe()
	}
	return nil
}

// phaseA runs open-loop appends and (read-tail only) point reads on seeded
// Poisson schedules, with one Tail subscriber timing when each append becomes
// visible. It ends on a whole placement round.
func (r *flRun) phaseA(rng *rand.Rand, dur time.Duration) error {
	c := r.d.client
	// Inputs come from the seed alone: arrival schedules and read targets.
	readHi := r.log.max()
	appendOffs := poisson(rng, r.p.appendRate, dur)
	readOffs := poisson(rng, r.p.readRate, dur)
	readLIds := make([]uint64, len(readOffs))
	for i := range readLIds {
		readLIds[i] = 1 + uint64(rng.Int63n(int64(readHi)))
	}

	tailCtx, stopTail := context.WithCancel(context.Background())
	defer stopTail()
	seen := make(map[uint64]time.Time)
	var tailAt atomic.Uint64
	var tailErr error
	tailDone := make(chan struct{})
	go func() {
		defer close(tailDone)
		next := readHi + 1
		tailErr = c.Tail(tailCtx, next, func(rec *core.Record) bool {
			now := time.Now()
			if err := r.log.checkRecord(next, rec); err != nil {
				tailErr = fmt.Errorf("tail: %w", err)
				return false
			}
			seen[rec.LId] = now
			next++
			tailAt.Store(rec.LId)
			return true
		})
	}()

	type acked struct {
		lid      uint64
		intended time.Time
	}
	var appendLat, readLat samples
	var mu sync.Mutex
	var ackedA []acked
	var failed, readsOK atomic.Int64
	var readErr atomic.Value
	start := time.Now().Add(10 * time.Millisecond)
	w := window{s: r.rec.stamp() + int64(10*time.Millisecond)}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		openLoop(start, appendOffs, &r.out.lag, func(i int, due time.Time) {
			lid, err := r.log.appendOne(c)
			if err != nil {
				failed.Add(1)
				return
			}
			appendLat.add(time.Since(due))
			mu.Lock()
			ackedA = append(ackedA, acked{lid, due})
			mu.Unlock()
		})
	}()
	go func() {
		defer wg.Done()
		openLoop(start, readOffs, &r.out.lag, func(i int, due time.Time) {
			lid := readLIds[i]
			rec, err := c.ReadLId(lid)
			if err != nil {
				failed.Add(1)
				return
			}
			readLat.add(time.Since(due))
			if err := r.log.checkRecord(lid, rec); err != nil {
				readErr.Store(err)
				return
			}
			readsOK.Add(1)
		})
	}()
	wg.Wait()
	w.e = r.rec.stamp()
	r.span.a = append(r.span.a, w)
	if err, _ := readErr.Load().(error); err != nil {
		return err
	}
	// End on a whole placement round, then give the subscriber a deadline
	// to deliver every acknowledged append.
	if err := r.log.fill(c); err != nil {
		return err
	}
	target := r.log.max()
	deadline := time.After(5 * time.Second)
wait:
	for tailAt.Load() < target {
		select {
		case <-tailDone:
			break wait
		case <-deadline:
			break wait
		case <-time.After(time.Millisecond):
		}
	}
	stopTail()
	<-tailDone
	if tailErr != nil && !errors.Is(tailErr, context.Canceled) {
		return tailErr
	}
	var visible samples
	notVisible := 0
	for _, a := range ackedA {
		if t, ok := seen[a.lid]; ok {
			visible.add(t.Sub(a.intended))
		} else {
			notVisible++
		}
	}
	r.out.visibleCount += len(visible.v)
	r.out.readsA += readsOK.Load()
	r.out.attempted += int64(len(appendOffs) + len(readOffs))
	r.out.failed += failed.Load() + int64(notVisible)
	r.out.latencies("append", appendLat.values())
	r.out.latencies("read", readLat.values())
	r.out.latencies("visible", visible.values())
	return nil
}

// phaseB runs closed-loop appends at the workload's in-flight window.
func (r *flRun) phaseB(dur time.Duration) error {
	c := r.d.client
	fsync0, disk0 := r.d.fsyncs(), r.d.diskBytes()
	cpu0 := cpuTime()
	w := window{s: r.rec.stamp()}
	ls := closedLoop(dur, r.p.appendWindow, func(int) error {
		_, err := r.log.appendOne(c)
		return err
	})
	w.e = r.rec.stamp()
	r.span.b = append(r.span.b, w)
	r.out.cpuB += cpuTime() - cpu0
	r.out.opsB += ls.started - ls.failed
	r.out.fsyncsB += r.d.fsyncs() - fsync0
	r.out.diskB += r.d.diskBytes() - disk0
	r.out.attempted += ls.started
	r.out.failed += ls.failed
	r.out.closed("append_ops_per_s", ls, 1)
	r.out.doneB += ls.completed
	return r.log.fill(c)
}

// phaseC runs closed-loop 256-record range scans at random offsets within
// the workload's scan span, checking every record returned.
func (r *flRun) phaseC(rng *rand.Rand, dur time.Duration) error {
	c := r.d.client
	head := r.log.max()
	first := uint64(1) // lowest LId a scan may start at
	if r.p.scanSpan > 0 && head > r.p.scanSpan {
		first = head - r.p.scanSpan + 1
	}
	rngs := make([]*rand.Rand, r.p.scanWindow)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(rng.Int63()))
	}
	var scanErr atomic.Value
	w := window{s: r.rec.stamp()}
	ls := closedLoop(dur, r.p.scanWindow, func(wk int) error {
		lo := first + uint64(rngs[wk].Int63n(int64(head-scanWidth+2-first)))
		recs, err := c.ReadRange(lo, lo+scanWidth-1)
		if err != nil {
			return err
		}
		if err := checkScan(r.log.seed, lo, recs); err != nil {
			scanErr.Store(err)
		}
		return nil
	})
	w.e = r.rec.stamp()
	r.span.c = append(r.span.c, w)
	if err, _ := scanErr.Load().(error); err != nil {
		return err
	}
	r.out.attempted += ls.started
	r.out.failed += ls.failed
	r.out.closed("scan_records_per_s", ls, scanWidth)
	return nil
}

// probe times single operations back to back (see runOut.probe): point
// reads in read-tail, appends otherwise.
func (r *flRun) probe() error {
	c, head := r.d.client, r.log.max()
	return r.out.probe(r.rec, func(i int) error {
		if !r.p.probeReads {
			_, err := r.log.appendOne(c)
			return err
		}
		lid := 1 + (uint64(i)*7919)%head
		rec, err := c.ReadLId(lid)
		if err != nil {
			return err
		}
		return r.log.checkRecord(lid, rec)
	})
}

// verify reads the whole log back: dense LIds from 1 to the head, every
// acknowledged append present with its payload, no operation stored twice.
func (r *flRun) verify() error {
	c, l := r.d.client, r.log
	if err := l.fill(c); err != nil {
		return err
	}
	if l.dups > 0 {
		return fmt.Errorf("%d LIds acknowledged twice", l.dups)
	}
	head, err := c.HeadExact()
	if err != nil {
		return err
	}
	ids := make(map[uint64]struct{}, head)
	found := 0
	for lo := uint64(1); lo <= head; lo += 4096 {
		hi := min(lo+4095, head)
		recs, err := c.ReadRange(lo, hi)
		if err != nil {
			return fmt.Errorf("read-back [%d,%d]: %w", lo, hi, err)
		}
		if uint64(len(recs)) != hi-lo+1 {
			return fmt.Errorf("read-back [%d,%d]: %d records, prefix not dense", lo, hi, len(recs))
		}
		for k, rec := range recs {
			lid := lo + uint64(k)
			if err := l.checkRecord(lid, rec); err != nil {
				return err
			}
			id := bodyID(rec.Body)
			if _, dup := ids[id]; dup {
				return fmt.Errorf("op %d stored twice (again at LId %d)", id, lid)
			}
			ids[id] = struct{}{}
			if _, ok := l.byLId[lid]; ok {
				found++
			}
		}
	}
	if found != len(l.byLId) {
		return fmt.Errorf("%d of %d acknowledged appends missing below head %d", len(l.byLId)-found, len(l.byLId), head)
	}
	return nil
}

// reopenCheck re-opens every closed segment store and checks that each
// acknowledged record survives on at least a majority of its replicas.
func (r *flRun) reopenCheck() error {
	copies := make(map[uint64]int, len(r.log.byLId))
	for _, dir := range r.d.dirs {
		seg, err := storage.OpenSegmentStore(dir, storage.SegmentStoreOptions{Sync: flSync})
		if err != nil {
			return fmt.Errorf("re-open %s: %w", filepath.Base(dir), err)
		}
		for lid := range r.log.byLId {
			rec, err := seg.Get(lid)
			if err != nil {
				continue
			}
			if err := r.log.checkRecord(lid, rec); err != nil {
				seg.Close()
				return fmt.Errorf("re-opened %s: %w", filepath.Base(dir), err)
			}
			copies[lid]++
		}
		if err := seg.Close(); err != nil {
			return err
		}
	}
	for lid := range r.log.byLId {
		if copies[lid] < flReplication/2+1 {
			return fmt.Errorf("acknowledged LId %d survives on %d of %d replicas after re-open", lid, copies[lid], flReplication)
		}
	}
	return nil
}
