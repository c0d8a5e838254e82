package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chariots"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/rpc"
	"repro/internal/storage"
)

// geo-2dc deployment: two datacenters with two in-memory maintainers each,
// snapshots shipped over loopback TCP behind a fixed one-way link delay.
const (
	geoDCs         = 2
	geoMaintainers = 2
	geoRound       = 64
	geoOneWay      = 10 * time.Millisecond
	geoAppendRate  = 5000 // per DC, phase A
	geoWindow      = 64   // per DC, phase B
	geoScanWindow  = 1    // per DC, phase C
	geoWarmup      = 2048 // appends per DC during set-up
	geoPoll        = 200 * time.Microsecond
	geoRounds      = 3
	// The in-memory logs keep every record, so the records a run appends set
	// its peak RSS. Phase A appends at a fixed rate for a fixed share of each
	// round, phase B appends a fixed count (about half a second's worth), and
	// phase C appends nothing: a faster pipeline finishes phase B sooner
	// without holding more records.
	geoFracA    = 0.2   // share of each round for phase A
	geoBAppends = 40000 // phase B appends per round, both DCs together
	geoFracC    = 0.16  // share of each round for phase C
)

type geoDeploy struct {
	dcs     [geoDCs]*chariots.Datacenter
	servers []*rpc.Server
	conns   []rpc.Client
	links   []*chariots.LatencyLink
}

// deployGeo stands up both datacenters composed as cmd/chariots composes
// one: a registry per datacenter (never scraped here) fed by the pipeline,
// the receiver server and the reconnecting peer connection.
func deployGeo(rec *recorder) (*geoDeploy, error) {
	g := &geoDeploy{}
	var addrs [geoDCs]string
	var regs [geoDCs]*metrics.Registry
	for i := 0; i < geoDCs; i++ {
		cfg := chariots.Config{Self: core.DCID(i), NumDCs: geoDCs, Maintainers: geoMaintainers, PlacementBatch: geoRound}
		if rec != nil {
			cfg.Stores = make([]storage.Store, geoMaintainers)
			for j := range cfg.Stores {
				cfg.Stores[j] = wrapStore(rec, storage.NewMemStore(), layerChariots, fmt.Sprintf("dc%d/m%d", i, j))
			}
		}
		dc, err := chariots.New(cfg)
		if err != nil {
			g.close()
			return nil, err
		}
		g.dcs[i] = dc
		regs[i] = metrics.NewRegistry()
		dc.EnableMetrics(regs[i]) // before Start
		srv := rpc.NewServer()
		srv.EnableMetrics(regs[i], "receiver-0")
		chariots.ServeReceiver(srv, wrapReceiver(rec, dc.Receivers()[0], opDeliver, fmt.Sprintf("dc%d rx", i)))
		g.servers = append(g.servers, srv)
		a, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			g.close()
			return nil, err
		}
		addrs[i] = a.String()
	}
	for i := 0; i < geoDCs; i++ {
		j := 1 - i
		c := rpc.NewReconnecting(addrs[j], true)
		c.EnableMetrics(regs[i], fmt.Sprintf("dc%d", j))
		g.conns = append(g.conns, c)
		who := fmt.Sprintf("dc%d->dc%d", i, j)
		rx := wrapReceiver(rec, chariots.NewReceiverClient(wrapConn(rec, c, who)), opSend, who)
		link := chariots.NewLatencyLink(rx, geoOneWay)
		g.links = append(g.links, link)
		g.dcs[i].ConnectTo(core.DCID(j), []chariots.ReceiverAPI{link})
	}
	for _, dc := range g.dcs {
		dc.Start()
	}
	return g, nil
}

func (g *geoDeploy) close() {
	for _, dc := range g.dcs {
		if dc != nil {
			dc.Stop()
		}
	}
	for _, l := range g.links {
		l.Close()
	}
	for _, s := range g.servers {
		s.Close()
	}
	for _, c := range g.conns {
		c.Close()
	}
}

// geoLog records acknowledged appends per origin DC: TOId → op id.
type geoLog struct {
	seed   int64
	nextID atomic.Uint64
	mu     sync.Mutex
	byTOId [geoDCs]map[uint64]uint64
	max    [geoDCs]uint64
	dups   int
}

func newGeoLog(seed int64) *geoLog {
	l := &geoLog{seed: seed}
	for i := range l.byTOId {
		l.byTOId[i] = make(map[uint64]uint64)
	}
	return l
}

func (l *geoLog) appendOne(dc *chariots.Datacenter) (chariots.AppendAck, error) {
	id := l.nextID.Add(1)
	ack, err := dc.Append(body(l.seed, id), nil)
	if err != nil {
		return ack, err
	}
	h := dc.Self()
	l.mu.Lock()
	if _, ok := l.byTOId[h][ack.TOId]; ok {
		l.dups++
	}
	l.byTOId[h][ack.TOId] = id
	if ack.TOId > l.max[h] {
		l.max[h] = ack.TOId
	}
	l.mu.Unlock()
	return ack, nil
}

func (l *geoLog) maxOf(h int) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.max[h]
}

func (l *geoLog) checkRecord(lid uint64, r *core.Record) error {
	if r == nil || r.LId != lid {
		return fmt.Errorf("read of LId %d returned %v", lid, r)
	}
	id := bodyID(r.Body)
	if !bodyOK(l.seed, id, r.Body) {
		return fmt.Errorf("LId %d holds a corrupt payload", lid)
	}
	if int(r.Host) >= geoDCs {
		return fmt.Errorf("LId %d has unknown host %d", lid, r.Host)
	}
	l.mu.Lock()
	want, ok := l.byTOId[r.Host][r.TOId]
	l.mu.Unlock()
	if ok && want != id {
		return fmt.Errorf("%v holds op %d, acknowledged for op %d", r.ID(), id, want)
	}
	return nil
}

// geoVis polls both datacenters' applied vectors and stamps the instant
// each remote record is first applied.
type geoVis struct {
	g      *geoDeploy
	stop   chan struct{}
	done   chan struct{}
	at     [geoDCs][]time.Time // origin → TOId → applied at the other DC
	maxLag uint64
}

// start launches the poller; the stamps persist across start/halt pairs.
func (v *geoVis) start() {
	v.stop, v.done = make(chan struct{}), make(chan struct{})
	go v.run()
}

func (v *geoVis) run() {
	defer close(v.done)
	t := time.NewTicker(geoPoll)
	defer t.Stop()
	for {
		select {
		case <-v.stop:
			return
		case <-t.C:
			v.poll()
		}
	}
}

func (v *geoVis) poll() {
	now := time.Now()
	for h := 0; h < geoDCs; h++ {
		remote := v.g.dcs[1-h].Applied().Get(core.DCID(h))
		origin := v.g.dcs[h].Applied().Get(core.DCID(h))
		if origin > remote && origin-remote > v.maxLag {
			v.maxLag = origin - remote
		}
		for uint64(len(v.at[h])) <= remote {
			v.at[h] = append(v.at[h], now)
		}
	}
}

// halt stops the poller after one last poll; its stamps are safe to read
// afterwards.
func (v *geoVis) halt() {
	close(v.stop)
	<-v.done
	v.poll()
}

// settle waits until both datacenters have applied every acknowledged
// append of both origins.
func (g *geoDeploy) settle(l *geoLog, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		ok := true
		for _, dc := range g.dcs {
			a := dc.Applied()
			for h := 0; h < geoDCs; h++ {
				if a.Get(core.DCID(h)) < l.maxOf(h) {
					ok = false
				}
			}
		}
		if ok {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

type geoRun struct {
	cfg  config
	rec  *recorder
	g    *geoDeploy
	log  *geoLog
	out  *runOut
	span phaseSpans
}

func (r *geoRun) setup() error {
	g, err := deployGeo(r.rec)
	if err != nil {
		return err
	}
	r.g = g
	r.log = newGeoLog(r.cfg.seed)
	// Warm-up: both pipelines, the TCP hop and the readers.
	errs := make(chan error, geoDCs*16)
	for i := 0; i < geoDCs; i++ {
		for w := 0; w < 16; w++ {
			go func(dc *chariots.Datacenter) {
				for k := 0; k < geoWarmup/16; k++ {
					if _, err := r.log.appendOne(dc); err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}(g.dcs[i])
		}
	}
	for k := 0; k < geoDCs*16; k++ {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if !g.settle(r.log, 10*time.Second) {
		return errors.New("warm-up appends never replicated")
	}
	return nil
}

// run sets up three times, keeping the last deployment (set-up time is
// the median), then runs the phases and the checks.
func (r *geoRun) run() error {
	if r.cfg.trace {
		r.rec = newRecorder()
	}
	var setups []float64
	for n := 0; n < 3; n++ {
		t0 := time.Now()
		if err := r.setup(); err != nil {
			if r.g != nil {
				r.g.close()
			}
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if n < 2 {
			r.g.close()
			r.g = nil
		}
	}
	defer r.g.close()
	r.out.setE2E("setup_s", median(setups), "s")
	if err := r.phases(); err != nil {
		return err
	}
	if err := r.verify(); err != nil {
		return err
	}
	r.out.setE2E("max_rss_mb", maxRSSMiB(), "MiB")
	if r.rec != nil {
		r.out.layers = geoLayers(r)
	}
	return nil
}

// phases runs rounds of phases A, B and C (see flRun.phases).
func (r *geoRun) phases() error {
	if r.rec != nil {
		r.rec.on.Store(true)
	}
	vis := &geoVis{g: r.g}
	slot := time.Duration(r.cfg.seconds) * time.Second / geoRounds
	for round := 0; round < geoRounds; round++ {
		rng := rand.New(rand.NewSource(r.cfg.seed*1000 + int64(round)))
		runtime.GC()
		if err := r.phaseA(rng, vis, time.Duration(geoFracA*float64(slot))); err != nil {
			return err
		}
		runtime.GC()
		if err := r.phaseB(); err != nil {
			return err
		}
		runtime.GC()
		if err := r.phaseC(rng, time.Duration(geoFracC*float64(slot))); err != nil {
			return err
		}
	}
	r.out.applyLagMax = vis.maxLag
	for _, dc := range r.g.dcs {
		if m := uint64(dc.CreditStats().MaxInUse); m > r.out.creditsMax {
			r.out.creditsMax = m
		}
	}
	r.out.finishRounds()
	if r.rec != nil {
		return r.probe()
	}
	return nil
}

// phaseA runs open-loop appends at both datacenters; visibility is the
// instant the other datacenter applied the append.
func (r *geoRun) phaseA(rng *rand.Rand, vis *geoVis, dur time.Duration) error {
	g := r.g
	var appendOffs [geoDCs][]time.Duration
	for i := 0; i < geoDCs; i++ {
		appendOffs[i] = poisson(rng, geoAppendRate, dur)
	}

	vis.start()
	type acked struct {
		toid     uint64
		intended time.Time
	}
	var appendLat samples
	var mu sync.Mutex
	var ackedA [geoDCs][]acked
	var failed atomic.Int64
	start := time.Now().Add(10 * time.Millisecond)
	w := window{s: r.rec.stamp() + int64(10*time.Millisecond)}
	var wg sync.WaitGroup
	for i := 0; i < geoDCs; i++ {
		dc := g.dcs[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			openLoop(start, appendOffs[i], &r.out.lag, func(_ int, due time.Time) {
				ack, err := r.log.appendOne(dc)
				if err != nil {
					failed.Add(1)
					return
				}
				appendLat.add(time.Since(due))
				mu.Lock()
				ackedA[i] = append(ackedA[i], acked{ack.TOId, due})
				mu.Unlock()
			})
		}()
	}
	wg.Wait()
	w.e = r.rec.stamp()
	r.span.a = append(r.span.a, w)
	g.settle(r.log, 10*time.Second)
	vis.halt()
	var visible samples
	notVisible := 0
	for h := 0; h < geoDCs; h++ {
		for _, a := range ackedA[h] {
			if a.toid < uint64(len(vis.at[h])) {
				visible.add(vis.at[h][a.toid].Sub(a.intended))
			} else {
				notVisible++
			}
		}
	}
	r.out.visibleCount += len(visible.v)
	r.out.attempted += int64(len(appendOffs[0]) + len(appendOffs[1]))
	r.out.failed += failed.Load() + int64(notVisible)
	r.out.latencies("append", appendLat.values())
	r.out.latencies("visible", visible.values())
	return nil
}

// phaseB runs geoBAppends closed-loop appends, a fixed window at each
// datacenter.
func (r *geoRun) phaseB() error {
	cpu0 := cpuTime()
	w := window{s: r.rec.stamp()}
	ls := closedLoopN(geoBAppends, geoDCs*geoWindow, func(wk int) error {
		_, err := r.log.appendOne(r.g.dcs[wk%geoDCs])
		return err
	})
	w.e = r.rec.stamp()
	r.span.b = append(r.span.b, w)
	r.out.cpuB += cpuTime() - cpu0
	r.out.opsB += ls.started - ls.failed
	r.out.attempted += ls.started
	r.out.failed += ls.failed
	r.out.closed("append_ops_per_s", ls, 1)
	r.out.doneB += ls.completed
	if !r.g.settle(r.log, 10*time.Second) {
		return errors.New("closed-loop appends never replicated")
	}
	return nil
}

// phaseC runs closed-loop 256-record range scans of each datacenter's log.
func (r *geoRun) phaseC(rng *rand.Rand, dur time.Duration) error {
	var heads [geoDCs]uint64
	for i, dc := range r.g.dcs {
		h, err := dc.Head()
		if err != nil {
			return err
		}
		heads[i] = h
	}
	rngs := make([]*rand.Rand, geoDCs*geoScanWindow)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(rng.Int63()))
	}
	var scanErr atomic.Value
	w := window{s: r.rec.stamp()}
	ls := closedLoop(dur, len(rngs), func(wk int) error {
		i := wk % geoDCs
		lo := 1 + uint64(rngs[wk].Int63n(int64(heads[i]-scanWidth+1)))
		recs, err := r.g.dcs[i].Reader().ReadRange(lo, lo+scanWidth-1)
		if err != nil {
			return err
		}
		if err := checkScan(r.log.seed, lo, recs); err != nil {
			scanErr.Store(fmt.Errorf("dc%d: %w", i, err))
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

// probe times single appends at DC 0 back to back (see runOut.probe).
func (r *geoRun) probe() error {
	return r.out.probe(r.rec, func(int) error {
		_, err := r.log.appendOne(r.g.dcs[0])
		return err
	})
}

// verify checks each datacenter's whole log: a causal linearization with
// dense LIds that holds every acknowledged append of both origins exactly
// once, with its payload.
func (r *geoRun) verify() error {
	l := r.log
	if !r.g.settle(l, 10*time.Second) {
		return errors.New("acknowledged appends never applied at both datacenters")
	}
	if l.dups > 0 {
		return fmt.Errorf("%d TOIds acknowledged twice", l.dups)
	}
	for i, dc := range r.g.dcs {
		recs, err := dc.LogRecords()
		if err != nil {
			return fmt.Errorf("dc%d log: %w", i, err)
		}
		if err := chariots.CheckCausalInvariant(recs); err != nil {
			return fmt.Errorf("dc%d log: %w", i, err)
		}
		var perHost [geoDCs]uint64
		for k, rec := range recs {
			if err := l.checkRecord(uint64(k+1), rec); err != nil {
				return fmt.Errorf("dc%d log: %w", i, err)
			}
			perHost[rec.Host]++
		}
		for h := 0; h < geoDCs; h++ {
			// CheckCausalInvariant already holds each origin's TOIds dense
			// from 1, so the count pins every acknowledged append present.
			if perHost[h] != l.maxOf(h) || uint64(len(l.byTOId[h])) != l.maxOf(h) {
				return fmt.Errorf("dc%d log holds %d records of dc%d, %d acknowledged (max TOId %d)",
					i, perHost[h], h, len(l.byTOId[h]), l.maxOf(h))
			}
		}
	}
	return nil
}
