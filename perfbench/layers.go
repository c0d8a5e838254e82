package main

import (
	"sort"
	"strings"
)

// Per-layer metrics of the traced run. Each is computed over the phase whose
// end-to-end metric it should move (see BENCHMARK.json): open-loop latency
// metrics over phase A, throughput and per-op costs over phase B, scan
// metrics over phase C. A layer a workload does not exercise reports 0.

// spanSet is a traced run's spans with the caller labels resolved.
type spanSet struct {
	spans  []span
	labels []string
}

func newSpanSet(r *recorder) spanSet {
	r.mu.Lock()
	defer r.mu.Unlock()
	ss := spanSet{spans: append([]span(nil), r.spans...), labels: append([]string(nil), r.labels...)}
	sort.Slice(ss.spans, func(i, j int) bool { return ss.spans[i].start < ss.spans[j].start })
	return ss
}

// pick returns the spans of layer that start inside one of ws and whose op
// is one of ops (any op when ops is empty).
func (ss spanSet) pick(layer uint8, ws windows, ops ...uint8) []span {
	var out []span
	for _, s := range ss.spans {
		if s.layer != layer || !ws.has(s.start) {
			continue
		}
		if len(ops) > 0 && !hasOp(ops, s.op) {
			continue
		}
		out = append(out, s)
	}
	return out
}

// within returns the spans that start inside w.
func (ss spanSet) within(w window) []span {
	lo := sort.Search(len(ss.spans), func(i int) bool { return ss.spans[i].start >= w.s })
	hi := sort.Search(len(ss.spans), func(i int) bool { return ss.spans[i].start > w.e })
	return ss.spans[lo:hi]
}

func hasOp(ops []uint8, op uint8) bool {
	for _, o := range ops {
		if o == op {
			return true
		}
	}
	return false
}

// gossip reports whether s is gossip traffic rather than client traffic.
func (ss spanSet) gossip(s span) bool {
	return strings.HasPrefix(ss.labels[s.who], "gossip") ||
		s.op == msgGossip || s.op == msgGossipVec || s.op == msgGossipVecs
}

// onPath reports whether s lies on a client operation's blocking path:
// gossip and parked tail long-polls do not.
func (ss spanSet) onPath(s span) bool {
	return !ss.gossip(s) && s.op != msgTailWait
}

func filter(in []span, keep func(span) bool) []span {
	var out []span
	for _, s := range in {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}

func durUs(in []span) []float64 {
	out := make([]float64, len(in))
	for i, s := range in {
		out[i] = float64(s.end-s.start) / 1e3
	}
	return out
}

func sumN(in []span) float64 {
	t := 0.0
	for _, s := range in {
		t += float64(s.n)
	}
	return t
}

func errCount(in []span) float64 {
	n := 0.0
	for _, s := range in {
		if s.err {
			n++
		}
	}
	return n
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// q is quantile with 0 for an empty sample.
func q(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(xs, p)
}

func (w window) dur() float64 { return float64(w.e - w.s) }

func (ws windows) has(t int64) bool {
	for _, w := range ws {
		if t >= w.s && t <= w.e {
			return true
		}
	}
	return false
}

func (ws windows) dur() float64 {
	t := 0.0
	for _, w := range ws {
		t += w.dur()
	}
	return t
}

// span returns the interval from the first window's start to the last's end.
func (ws windows) span() window {
	if len(ws) == 0 {
		return window{}
	}
	return window{ws[0].s, ws[len(ws)-1].e}
}

// unionLen is the length of the union of intervals clipped to w.
func unionLen(iv []window, w window) int64 {
	var c []window
	for _, x := range iv {
		if x.s < w.s {
			x.s = w.s
		}
		if x.e > w.e {
			x.e = w.e
		}
		if x.e > x.s {
			c = append(c, x)
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i].s < c[j].s })
	var total, curS, curE int64
	for i, x := range c {
		if i == 0 || x.s > curE {
			total += curE - curS
			curS, curE = x.s, x.e
		} else if x.e > curE {
			curE = x.e
		}
	}
	return total + curE - curS
}

// rpcWait is the mean of client call time minus server handler time of the
// same message type, weighted by client calls: the time a call spent on
// the wire and queued behind other requests of its connection.
func (ss spanSet) rpcWait(w windows, server func(msg uint8) (layer, op uint8)) float64 {
	type agg struct {
		n   int
		sum float64
	}
	client := map[uint8]*agg{}
	for _, s := range filter(ss.pick(layerRPC, w), ss.onPath) {
		a := client[s.op]
		if a == nil {
			a = &agg{}
			client[s.op] = a
		}
		a.n++
		a.sum += float64(s.end - s.start)
	}
	var total, weight float64
	for msg, c := range client {
		layer, op := server(msg)
		srv := ss.pick(layer, w, op)
		if len(srv) == 0 {
			continue
		}
		sd := 0.0
		for _, s := range srv {
			sd += float64(s.end - s.start)
		}
		total += float64(c.n) * (c.sum/float64(c.n) - sd/float64(len(srv)))
		weight += float64(c.n)
	}
	return ratio(total, weight) / 1e3
}

// inflight is the mean number of calls in flight per client connection
// over w (Little's law: summed call time over elapsed time).
func (ss spanSet) inflight(w windows) float64 {
	per := map[int32]float64{}
	for _, s := range filter(ss.pick(layerRPC, w), ss.onPath) {
		per[s.who] += float64(s.end - s.start)
	}
	if len(per) == 0 {
		return 0
	}
	t := 0.0
	for _, d := range per {
		t += d / w.dur()
	}
	return t / float64(len(per))
}

// probe computes, over the traced one-op-in-flight operations, the share of
// operation time the path spans cover and each layer's self time share.
// layers lists the path layers outermost first; time covered by several is
// charged to the innermost.
func (ss spanSet) probe(out *runOut, layers []uint8, m map[string]metric) {
	var total float64
	self := make([]float64, len(layers))
	var covered float64
	for _, op := range out.probeOps {
		total += op.dur()
		var inner []window
		prev := int64(0)
		for k := len(layers) - 1; k >= 0; k-- {
			for _, s := range ss.within(op) {
				if s.layer == layers[k] && s.end <= op.e && ss.onPath(s) {
					inner = append(inner, window{s.start, s.end})
				}
			}
			u := unionLen(inner, op)
			self[k] += float64(u - prev)
			prev = u
		}
		covered += float64(prev)
	}
	m["trace.span_coverage"] = metric{ratio(covered, total), "ratio"}
	for k, l := range layers {
		m[layerNames[l]+".self_share"] = metric{ratio(self[k], total), "ratio"}
	}
	m["trace.overhead_ratio"] = metric{ratio(median(out.probeOn), median(out.probeOff)) - 1, "ratio"}
}

// zero fills every per-layer metric a workload does not exercise.
func zero(m map[string]metric) {
	for _, d := range perLayerMetrics {
		if _, ok := m[d.name]; !ok {
			m[d.name] = metric{0, d.unit}
		}
	}
}

var perLayerMetrics = []struct{ name, unit string }{
	{"rpc.calls_per_op", "calls/op"}, {"rpc.bytes_per_op", "B/op"},
	{"rpc.call_us.p50", "us"}, {"rpc.call_us.p99", "us"},
	{"rpc.wait_us.mean", "us"}, {"rpc.inflight.mean", "calls"}, {"rpc.errors_per_op", "errors/op"},
	{"rpc.self_share", "ratio"},
	{"flstore.append.calls_per_op", "calls/op"}, {"flstore.append.records_per_call", "records/call"},
	{"flstore.append.us.p99", "us"}, {"flstore.replica_append.us.p99", "us"}, {"flstore.busy_frac", "ratio"},
	{"flstore.read.us.p50", "us"}, {"flstore.read.us.p99", "us"},
	{"flstore.range_read.records_per_call", "records/call"}, {"flstore.range_read.us.p99", "us"},
	{"flstore.tail_wait.calls_per_visible", "calls/record"}, {"flstore.tail_wait.us.mean", "us"},
	{"flstore.gossip.calls_per_s", "1/s"}, {"flstore.rejected_per_op", "records/op"},
	{"flstore.self_share", "ratio"},
	{"replica.copies_per_op", "records/op"}, {"replica.invalidations_per_op", "calls/op"},
	{"storage.batches_per_op", "batches/op"}, {"storage.records_per_batch", "records/batch"},
	{"storage.fsyncs_per_op", "fsyncs/op"}, {"storage.append_us.p50", "us"}, {"storage.append_us.p99", "us"},
	{"storage.bytes_per_user_byte", "ratio"}, {"storage.get_us.p99", "us"}, {"storage.gets_per_read", "gets/read"},
	{"storage.scan_records_per_call", "records/call"}, {"storage.self_share", "ratio"},
	{"chariots.deliver.records_per_call", "records/call"}, {"chariots.deliver.us.p99", "us"},
	{"chariots.send_us.p99", "us"}, {"chariots.store.records_per_batch", "records/batch"},
	{"chariots.credits_inflight.max", "records"}, {"chariots.apply_lag_records.max", "records"},
	{"chariots.self_share", "ratio"},
	{"trace.overhead_ratio", "ratio"}, {"trace.span_coverage", "ratio"},
	{"gen.late_us.p99", "us"},
}

func flLayers(r *flRun) map[string]metric {
	ss := newSpanSet(r.rec)
	out := r.out
	A, B, C := r.span.a, r.span.b, r.span.c
	all := windows{window{A.span().s, C.span().e}}
	opsB := float64(out.opsB)
	m := map[string]metric{}
	set := func(name string, v float64) { m[name] = metric{v, unitOf(name)} }

	rpcB := ss.pick(layerRPC, B)
	set("rpc.calls_per_op", ratio(float64(len(rpcB)), opsB))
	set("rpc.bytes_per_op", ratio(sumN(rpcB), opsB))
	callsA := durUs(filter(ss.pick(layerRPC, A), ss.onPath))
	set("rpc.call_us.p50", q(callsA, 0.5))
	set("rpc.call_us.p99", q(callsA, 0.99))
	set("rpc.wait_us.mean", ss.rpcWait(B, func(msg uint8) (uint8, uint8) { return layerFLStore, msg }))
	set("rpc.inflight.mean", ss.inflight(B))
	set("rpc.errors_per_op", ratio(errCount(ss.pick(layerRPC, all)), float64(out.attempted)))

	app := ss.pick(layerFLStore, B, msgAppend, msgAppendFor)
	set("flstore.append.calls_per_op", ratio(float64(len(app)), opsB))
	set("flstore.append.records_per_call", ratio(sumN(app), float64(len(app))))
	set("flstore.append.us.p99", q(durUs(app), 0.99))
	set("flstore.replica_append.us.p99", q(durUs(ss.pick(layerFLStore, B, msgReplicaAppend)), 0.99))
	busy := map[int32][]window{}
	for _, s := range filter(ss.pick(layerFLStore, B), ss.onPath) {
		busy[s.who] = append(busy[s.who], window{s.start, s.end})
	}
	bf := 0.0
	for _, iv := range busy {
		for _, w := range B {
			bf += float64(unionLen(iv, w))
		}
	}
	bf /= B.dur()
	set("flstore.busy_frac", ratio(bf, flMaintainers))
	reads := durUs(ss.pick(layerFLStore, A, msgRead))
	set("flstore.read.us.p50", q(reads, 0.5))
	set("flstore.read.us.p99", q(reads, 0.99))
	rr := ss.pick(layerFLStore, C, msgReadRange)
	set("flstore.range_read.records_per_call", ratio(sumN(rr), float64(len(rr))))
	set("flstore.range_read.us.p99", q(durUs(rr), 0.99))
	tw := ss.pick(layerFLStore, A, msgTailWait)
	set("flstore.tail_wait.calls_per_visible", ratio(float64(len(tw)), float64(out.visibleCount)))
	set("flstore.tail_wait.us.mean", mean(durUs(tw)))
	gossip := ss.pick(layerFLStore, all, msgGossip, msgGossipVec, msgGossipVecs)
	set("flstore.gossip.calls_per_s", ratio(float64(len(gossip)), all.dur()/1e9))
	set("flstore.rejected_per_op", ratio(float64(out.rejected), float64(out.attempted)))

	set("replica.copies_per_op", ratio(sumN(ss.pick(layerFLStore, B, msgReplicaAppend)), opsB))
	set("replica.invalidations_per_op", ratio(float64(len(ss.pick(layerFLStore, B, msgInvalidate))), opsB))

	stB := ss.pick(layerStorage, B, opStoreAppend, opStoreAppendBatch)
	set("storage.batches_per_op", ratio(float64(len(stB)), opsB))
	set("storage.records_per_batch", ratio(sumN(stB), float64(len(stB))))
	set("storage.fsyncs_per_op", ratio(float64(out.fsyncsB), opsB))
	stA := durUs(ss.pick(layerStorage, A, opStoreAppend, opStoreAppendBatch))
	set("storage.append_us.p50", q(stA, 0.5))
	set("storage.append_us.p99", q(stA, 0.99))
	set("storage.bytes_per_user_byte", ratio(float64(out.diskB), opsB*bodySize))
	gets := ss.pick(layerStorage, A, opStoreGet)
	set("storage.get_us.p99", q(durUs(gets), 0.99))
	set("storage.gets_per_read", ratio(float64(len(gets)), float64(out.readsA)))
	scans := ss.pick(layerStorage, C, opStoreScan)
	set("storage.scan_records_per_call", ratio(sumN(scans), float64(len(scans))))

	ss.probe(out, []uint8{layerRPC, layerFLStore, layerStorage}, m)
	zero(m)
	return m
}

func geoLayers(r *geoRun) map[string]metric {
	ss := newSpanSet(r.rec)
	out := r.out
	A, B, C := r.span.a, r.span.b, r.span.c
	all := windows{window{A.span().s, C.span().e}}
	opsB := float64(out.opsB)
	m := map[string]metric{}
	set := func(name string, v float64) { m[name] = metric{v, unitOf(name)} }

	rpcB := ss.pick(layerRPC, B)
	set("rpc.calls_per_op", ratio(float64(len(rpcB)), opsB))
	set("rpc.bytes_per_op", ratio(sumN(rpcB), opsB))
	callsA := durUs(ss.pick(layerRPC, A))
	set("rpc.call_us.p50", q(callsA, 0.5))
	set("rpc.call_us.p99", q(callsA, 0.99))
	set("rpc.wait_us.mean", ss.rpcWait(B, func(uint8) (uint8, uint8) { return layerChariots, opDeliver }))
	set("rpc.inflight.mean", ss.inflight(B))
	set("rpc.errors_per_op", ratio(errCount(ss.pick(layerRPC, all)), float64(out.attempted)))

	del := ss.pick(layerChariots, A, opDeliver)
	set("chariots.deliver.records_per_call", ratio(sumN(del), float64(len(del))))
	set("chariots.deliver.us.p99", q(durUs(del), 0.99))
	set("chariots.send_us.p99", q(durUs(ss.pick(layerChariots, A, opSend)), 0.99))
	st := ss.pick(layerChariots, B, opStoreAppend, opStoreAppendBatch)
	set("chariots.store.records_per_batch", ratio(sumN(st), float64(len(st))))
	set("chariots.credits_inflight.max", float64(out.creditsMax))
	set("chariots.apply_lag_records.max", float64(out.applyLagMax))

	ss.probe(out, []uint8{layerRPC, layerChariots}, m)
	zero(m)
	return m
}

func unitOf(name string) string {
	for _, d := range perLayerMetrics {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}
