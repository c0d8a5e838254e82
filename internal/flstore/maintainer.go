package flstore

import (
	"container/heap"
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/ratelimit"
	"repro/internal/replica"
	"repro/internal/storage"
	"repro/internal/trace"
)

// The package's error sentinels (ErrOverloaded, ErrWrongMaintainer,
// ErrNotReplica, ErrOrderBacklog) live in errors.go together with the
// typed OverloadError and the IsRetryable/RetryAfter helpers.

// MaintainerConfig configures one log maintainer.
type MaintainerConfig struct {
	// Index is this maintainer's position in the placement (0-based).
	Index     int
	Placement Placement

	// FirstLId is the first log position this maintainer's epoch covers
	// (§6.3 elasticity): a maintainer constructed for a newly announced
	// placement starts assigning at the epoch boundary instead of at LId 1.
	// Positions below it belong to earlier epochs and reach this maintainer
	// only through migration (SetLegacy/IngestLegacy). 0 and 1 both mean
	// the epoch starts at the beginning of the log. FirstLId−1 must be a
	// whole number of placement rounds (divisible by NumMaintainers ×
	// BatchSize) so every range's first owned slot sits exactly at the
	// boundary.
	FirstLId uint64

	// Replication is the replica-group size R: besides its own LId range,
	// the maintainer stores follower copies of the R−1 preceding ranges
	// (mod N) and can act as their primary during failover. 0 and 1 both
	// mean unreplicated.
	Replication int

	// Store persists the records; NewMemStore is used when nil.
	Store storage.Store

	// Limiter models the machine's append capacity; nil = unlimited.
	Limiter *ratelimit.Limiter
	// RejectPenalty is the token cost of turning away one record when
	// saturated (models wasted ingress work; see ratelimit.Penalize).
	RejectPenalty float64

	// Indexers receive tag postings for stored records. May be nil.
	Indexers []IndexerAPI

	// EnforceHead makes Read fail with core.ErrPastHead for positions
	// above the gossiped head of the log — the §5.4 requirement that a
	// record at position i is only readable once no gap exists below i.
	EnforceHead bool

	// MaxOrderBuffer bounds the records parked by AppendAfter; 0 uses a
	// default of 4096.
	MaxOrderBuffer int

	// MaxIngressBacklog bounds the total ingestion backlog — explicit-order
	// records plus out-of-order buffered slots across hosted ranges — above
	// which client-facing appends (Append/AppendFor) are rejected with a
	// retryable OverloadError instead of growing memory without bound. The
	// replica and assigned-LId paths are exempt: rejecting them could
	// deadlock the very drains that shrink the backlog. 0 uses a default of
	// 65536 records; negative disables the bound.
	MaxIngressBacklog int

	// TailCacheSize is the capacity (records) of the tail ring serving
	// range reads near the append frontier from memory. 0 uses a default
	// of 4096; negative disables the cache.
	TailCacheSize int

	// ReadBlockWait bounds how long Read parks on a locally-invalid
	// position — one an invalidation announced but whose payload has not
	// resolved here — before returning a retryable ReadBlockedError so
	// the session fails over to a fresher replica. The fan-out payload
	// normally lands within a round trip, so the default (2ms) resolves
	// the common race in place without stalling the serving goroutine.
	// 0 uses the default; negative disables blocking (immediate
	// ReadBlockedError).
	ReadBlockWait time.Duration
}

// rangeState is the per-hosted-range ingestion state: the dense slot
// frontier plus the out-of-order buffer feeding it. The store only ever
// holds the dense prefix of every hosted range, which is what makes
// restart recovery and catch-up gap-free.
type rangeState struct {
	// filled is the number of slots of this range filled so far; the next
	// LId assigned or accepted for the range is LIdOfSlot(range, filled).
	filled uint64
	// pending holds records that arrived ahead of the dense frontier,
	// keyed by slot.
	pending map[uint64][]*core.Record
	// durable is the contiguous count of this range's slots whose records
	// the local store has confirmed on stable storage (AppendBatch
	// returned, which for a durable store means fsynced — a group-commit
	// window resolved, not merely buffered). durable <= filled always:
	// filled advances at assignment, durable when the disk catches up.
	durable uint64
	// durDone holds store batches that completed out of order, ahead of
	// the contiguous durable frontier: start slot → end slot (exclusive).
	durDone map[uint64]uint64
}

// Maintainer is one FLStore log maintainer (§5.2): it owns the deterministic
// round-robin LId ranges of its index, assigns positions to records after
// they arrive, persists them, answers reads, and gossips its progress so
// every maintainer can compute the head of the log. Under replication it
// additionally follows the R−1 preceding ranges: it ingests copies via
// ReplicaAppend, serves failover reads for them, and can assign their
// positions (AppendFor) while acting as primary.
type Maintainer struct {
	cfg    MaintainerConfig
	store  storage.Store
	layout replica.Layout

	mu sync.Mutex
	// hosted maps each range this maintainer stores (own + followed) to
	// its ingestion state. The key set is fixed at construction.
	hosted map[int]*rangeState
	// nextVec[j] is the latest known next-unfilled LId of range j
	// (nextVec[Index] is maintained locally; hosted followers' entries
	// advance from replica ingestion, the rest from gossip).
	nextVec []uint64
	// durVec[j] is the highest known durable watermark of range j
	// anywhere in the cluster (LId form, exclusive): some member has
	// fsynced every position of range j below it. Hosted entries fold in
	// from the local durable frontiers; the rest ride the gossip vector
	// exchange exactly like nextVec.
	durVec []uint64
	// storeDurable caches whether the store reports durability-on-return
	// (storage.SegmentStore/TieredStore with a sync policy); stores that
	// don't (MemStore, SyncNever) never advance the durable watermark.
	storeDurable bool
	// orderBuf parks AppendAfter batches whose minimum-LId bound is not
	// yet satisfiable.
	orderBuf orderHeap
	// pendingCount mirrors the number of records buffered ahead of the
	// dense frontiers (Σ over hosted ranges of buffered slots) so the
	// admission check reads the backlog in O(1) under mu.
	pendingCount int
	// sealLId, when non-zero, is the first LId of the epoch that
	// supersedes this maintainer: appends that would assign at or past it
	// are rejected whole with an EpochSealedError. sealCaps caps each
	// hosted range's fill at its slot count below the boundary.
	sealLId  uint64
	sealCaps map[int]uint64
	// legacy, when non-nil, tracks old-epoch ranges migrated onto this
	// maintainer: records below cfg.FirstLId ingested under the previous
	// placement's geometry.
	legacy *legacyState

	// tail caches recently appended records for the batched read path;
	// nil when disabled.
	tail *tailRing
	// waitMu guards waitCh, the broadcast channel notifyProgressLocked
	// closes (and replaces) whenever a next-unfilled entry advances.
	// Always taken after mu when both are held.
	waitMu sync.Mutex
	waitCh chan struct{}

	// Appended counts records durably stored (exported for experiment
	// instrumentation).
	Appended metrics.Counter
	// Rejected counts records turned away by the capacity limiter.
	Rejected metrics.Counter
	// BacklogRejects counts records turned away because the ingestion
	// backlog was at MaxIngressBacklog (the admission-control companion to
	// the limiter-driven Rejected).
	BacklogRejects metrics.Counter
	// Read-path counters: range/multi-read calls and records served,
	// tail long-polls, tail-ring hits/misses, ring-miss store scans, and
	// full Scan calls (the legacy read path — a caught-up tail issues
	// none).
	RangeReads      metrics.Counter
	RangeRecords    metrics.Counter
	MultiReads      metrics.Counter
	TailWaits       metrics.Counter
	TailCacheHits   metrics.Counter
	TailCacheMisses metrics.Counter
	StoreScans      metrics.Counter
	ScanCalls       metrics.Counter
	// LocalReadHits counts single reads served from the local store (the
	// invalidation protocol's payoff: any valid replica answers without
	// an owner round trip); LocalReadBlocks counts reads that parked on a
	// locally-invalid position (announced, payload not yet resolved).
	LocalReadHits   metrics.Counter
	LocalReadBlocks metrics.Counter

	// appendLatency/readLatency are set by EnableMetrics (nil until then;
	// the serving paths skip observation when unset). EnableMetrics must
	// run before the maintainer serves traffic.
	appendLatency *metrics.BucketHistogram
	readLatency   *metrics.BucketHistogram
	rangeBatch    *metrics.BucketHistogram
	tailWake      *metrics.BucketHistogram
}

// EnableMetrics registers this maintainer's serving-path instrumentation
// with reg: append/read latency histograms, append/rejection counters, the
// explicit-order and out-of-order buffer depths, and the head-of-log and
// next-LId gauges. Every series carries maintainer=<index> plus any extra
// labels (deployments embedding several placements add e.g. dc=<id>).
// Call before the maintainer starts serving.
func (m *Maintainer) EnableMetrics(reg *metrics.Registry, extra ...metrics.Label) {
	lbls := append([]metrics.Label{metrics.L("maintainer", strconv.Itoa(m.cfg.Index))}, extra...)
	m.appendLatency = reg.Histogram("flstore_append_seconds", metrics.LatencyBuckets, lbls...)
	m.readLatency = reg.Histogram("flstore_read_seconds", metrics.LatencyBuckets, lbls...)
	reg.CounterFunc("flstore_appends_total", func() float64 { return float64(m.Appended.Value()) }, lbls...)
	reg.CounterFunc("flstore_rejected_total", func() float64 { return float64(m.Rejected.Value()) }, lbls...)
	reg.CounterFunc("flstore_admission_limiter_rejected_total", func() float64 { return float64(m.Rejected.Value()) }, lbls...)
	reg.CounterFunc("flstore_admission_backlog_rejected_total", func() float64 { return float64(m.BacklogRejects.Value()) }, lbls...)
	reg.GaugeFunc("flstore_admission_backlog_records", func() float64 { return float64(m.IngressBacklog()) }, lbls...)
	reg.GaugeFunc("flstore_admission_backlog_budget_records", func() float64 { return float64(m.cfg.MaxIngressBacklog) }, lbls...)
	reg.GaugeFunc("flstore_order_buffer_records", func() float64 { return float64(m.OrderBuffered()) }, lbls...)
	reg.GaugeFunc("flstore_pending_assigned_slots", func() float64 { return float64(m.PendingAssigned()) }, lbls...)
	reg.GaugeFunc("flstore_head_lid", func() float64 { return float64(m.currentHead()) }, lbls...)
	reg.GaugeFunc("flstore_next_lid", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(m.nextVec[m.cfg.Index])
	}, lbls...)
	reg.GaugeFunc("flstore_stored_records", func() float64 { return float64(m.store.Len()) }, lbls...)
	reg.GaugeFunc("flstore_hosted_ranges", func() float64 { return float64(len(m.hosted)) }, lbls...)
	m.rangeBatch = reg.Histogram("flstore_range_batch_records", metrics.BatchBuckets, lbls...)
	m.tailWake = reg.Histogram("flstore_tail_wake_seconds", metrics.LatencyBuckets, lbls...)
	reg.CounterFunc("flstore_range_reads_total", func() float64 { return float64(m.RangeReads.Value()) }, lbls...)
	reg.CounterFunc("flstore_range_records_total", func() float64 { return float64(m.RangeRecords.Value()) }, lbls...)
	reg.CounterFunc("flstore_multi_reads_total", func() float64 { return float64(m.MultiReads.Value()) }, lbls...)
	reg.CounterFunc("flstore_tail_waits_total", func() float64 { return float64(m.TailWaits.Value()) }, lbls...)
	reg.CounterFunc("flstore_tail_cache_hits_total", func() float64 { return float64(m.TailCacheHits.Value()) }, lbls...)
	reg.CounterFunc("flstore_tail_cache_misses_total", func() float64 { return float64(m.TailCacheMisses.Value()) }, lbls...)
	reg.CounterFunc("flstore_store_scans_total", func() float64 { return float64(m.StoreScans.Value()) }, lbls...)
	reg.CounterFunc("flstore_scan_calls_total", func() float64 { return float64(m.ScanCalls.Value()) }, lbls...)
	reg.CounterFunc("replica_local_read_hits_total", func() float64 { return float64(m.LocalReadHits.Value()) }, lbls...)
	reg.CounterFunc("replica_local_read_blocks_total", func() float64 { return float64(m.LocalReadBlocks.Value()) }, lbls...)
	// Per hosted range: the validity watermark (dense-prefix frontier LId
	// below which reads are served locally) and the invalidation backlog
	// (positions announced as assigned but not yet resolved here).
	for r := range m.hosted {
		r := r
		rl := append([]metrics.Label{metrics.L("range", strconv.Itoa(r))}, lbls...)
		reg.GaugeFunc("replica_valid_watermark", func() float64 {
			wm, _, _ := m.ValidityWatermark(r)
			return float64(wm)
		}, rl...)
		reg.GaugeFunc("replica_invalidation_backlog", func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(m.invalBacklogLocked(r))
		}, rl...)
		reg.GaugeFunc("replica_durable_watermark", func() float64 {
			wm, _ := m.DurableWatermark(r)
			return float64(wm)
		}, rl...)
	}
}

// NewMaintainer returns a ready maintainer.
func NewMaintainer(cfg MaintainerConfig) (*Maintainer, error) {
	if err := cfg.Placement.Validate(); err != nil {
		return nil, err
	}
	if cfg.Index < 0 || cfg.Index >= cfg.Placement.NumMaintainers {
		return nil, fmt.Errorf("flstore: maintainer index %d out of range [0,%d)", cfg.Index, cfg.Placement.NumMaintainers)
	}
	if cfg.FirstLId == 0 {
		cfg.FirstLId = 1
	}
	if rl := uint64(cfg.Placement.NumMaintainers) * cfg.Placement.BatchSize; (cfg.FirstLId-1)%rl != 0 {
		return nil, fmt.Errorf("flstore: epoch FirstLId %d is not round-aligned (round length %d)", cfg.FirstLId, rl)
	}
	if cfg.Replication < 1 {
		cfg.Replication = 1
	}
	layout := replica.Layout{N: cfg.Placement.NumMaintainers, R: cfg.Replication}
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	if cfg.Store == nil {
		cfg.Store = storage.NewMemStore()
	}
	if cfg.MaxOrderBuffer == 0 {
		cfg.MaxOrderBuffer = 4096
	}
	if cfg.MaxIngressBacklog == 0 {
		cfg.MaxIngressBacklog = 65536
	}
	if cfg.TailCacheSize == 0 {
		cfg.TailCacheSize = defaultTailCacheSize
	}
	if cfg.ReadBlockWait == 0 {
		cfg.ReadBlockWait = defaultReadBlockWait
	}
	m := &Maintainer{
		cfg:     cfg,
		store:   cfg.Store,
		layout:  layout,
		hosted:  make(map[int]*rangeState, cfg.Replication),
		nextVec: make([]uint64, cfg.Placement.NumMaintainers),
		durVec:  make([]uint64, cfg.Placement.NumMaintainers),

		storeDurable: cfg.Store.Durable(),
	}
	if cfg.TailCacheSize > 0 {
		m.tail = newTailRing(cfg.TailCacheSize)
	}
	// Hosted ranges start their dense frontiers at the epoch's base slot:
	// slot 0 for an epoch beginning the log, the boundary's slot count for
	// a grown placement's maintainer (everything below the boundary is the
	// previous epoch's, reachable here only via migration). Because the
	// boundary is round-aligned the base is a whole number of rounds.
	for _, r := range layout.Hosts(cfg.Index) {
		base := slotsBelowP(cfg.Placement, r, cfg.FirstLId)
		m.hosted[r] = &rangeState{
			filled:  base,
			durable: base,
			pending: make(map[uint64][]*core.Record),
			durDone: make(map[uint64]uint64),
		}
	}
	// Initialize every entry to the corresponding maintainer's first owned
	// LId of this epoch, so the new member set's Head() starts exactly at
	// FirstLId−1 (head continuity across a switchover) and at 0 for an
	// epoch-0 set, until real gossip arrives.
	for j := range m.nextVec {
		m.nextVec[j] = cfg.Placement.LIdOfSlot(j, slotsBelowP(cfg.Placement, j, cfg.FirstLId))
		m.durVec[j] = m.nextVec[j]
	}
	// Recover the dense frontiers from a pre-populated store (restart).
	// The store may hold several hosted ranges' records, so every record
	// is attributed to its range; a non-dense range (possible only after a
	// torn batch tail) keeps its frontier at the dense prefix, and the
	// remainder is re-fetched by catch-up.
	if max := cfg.Store.MaxLId(); max > 0 {
		seen := make(map[int]map[uint64]bool)
		err := cfg.Store.Scan(1, max, func(r *core.Record) bool {
			if r.LId < cfg.FirstLId {
				// Previous-epoch records (a restart mid-migration): they
				// belong to the legacy geometry, not this epoch's frontiers.
				// SetLegacy re-derives their dense prefix from the store.
				return true
			}
			rangeIdx := cfg.Placement.Owner(r.LId)
			if _, ok := m.hosted[rangeIdx]; ok {
				if seen[rangeIdx] == nil {
					seen[rangeIdx] = make(map[uint64]bool)
				}
				seen[rangeIdx][cfg.Placement.SlotOf(r.LId)] = true
			}
			return true
		})
		if err != nil {
			return nil, fmt.Errorf("flstore: recovering frontiers: %w", err)
		}
		for rangeIdx, slots := range seen {
			st := m.hosted[rangeIdx]
			for slots[st.filled] {
				st.filled++
			}
			m.advanceNextLocked(rangeIdx, st)
			// Whatever the recovery scan read back came off stable
			// storage, so the durable frontier restarts at the dense
			// prefix — no re-fsync needed for survivors. A volatile
			// store's contents are not durable, so its frontier must
			// not feed the gossiped durability vector.
			if m.storeDurable {
				st.durable = st.filled
				m.advanceDurableLocked(rangeIdx, st)
			}
		}
	}
	return m, nil
}

// Index returns the maintainer's placement index.
func (m *Maintainer) Index() int { return m.cfg.Index }

// advanceNextLocked folds a hosted range's local frontier into nextVec.
// Caller holds mu (or is still constructing the maintainer).
func (m *Maintainer) advanceNextLocked(rangeIdx int, st *rangeState) {
	if next := m.cfg.Placement.LIdOfSlot(rangeIdx, st.filled); next > m.nextVec[rangeIdx] {
		m.nextVec[rangeIdx] = next
		m.notifyProgressLocked()
	}
}

// advanceDurableLocked folds a hosted range's local durable frontier into
// durVec. Caller holds mu (or is still constructing the maintainer).
func (m *Maintainer) advanceDurableLocked(rangeIdx int, st *rangeState) {
	if lid := m.cfg.Placement.LIdOfSlot(rangeIdx, st.durable); lid > m.durVec[rangeIdx] {
		m.durVec[rangeIdx] = lid
	}
}

// markDurable records that the local store confirmed rangeIdx's slots
// [start, end) on stable storage (its AppendBatch returned) and advances
// the range's contiguous durable frontier. Store batches for one range
// are disjoint slot intervals but may *complete* out of order — two
// appends can reach the store in either order, and group-commit windows
// resolve when their fsync does — so completions ahead of the frontier
// park in durDone until the gap closes. Stores without durability-on-
// return never advance the watermark.
func (m *Maintainer) markDurable(rangeIdx int, start, end uint64) {
	if !m.storeDurable || end <= start {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.hosted[rangeIdx]
	if !ok {
		return
	}
	if end <= st.durable {
		return
	}
	if start <= st.durable {
		st.durable = end
	} else {
		st.durDone[start] = end
	}
	for {
		advanced := false
		for s, e := range st.durDone {
			if s <= st.durable {
				if e > st.durable {
					st.durable = e
				}
				delete(st.durDone, s)
				advanced = true
			}
		}
		if !advanced {
			break
		}
	}
	m.advanceDurableLocked(rangeIdx, st)
}

// DurableWatermark returns a hosted range's local durable watermark: the
// LId below which every position of the range is on THIS member's stable
// storage (fsynced, not merely buffered), in next-unfilled form like
// RangeFrontier. It reports 0 when the member's store is volatile — the
// watermark would be meaningless. The quorum-durability status view probes
// it per member; contrast ValidityWatermark, which tracks what is locally
// readable.
func (m *Maintainer) DurableWatermark(rangeIdx int) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.hosted[rangeIdx]
	if !ok {
		return 0, fmt.Errorf("%w: range %d at maintainer %d", ErrNotReplica, rangeIdx, m.cfg.Index)
	}
	if !m.storeDurable {
		return 0, nil
	}
	return m.cfg.Placement.LIdOfSlot(rangeIdx, st.durable), nil
}

// DurableVec returns a copy of the cluster-durability vector: per range,
// the highest durable watermark any member is known (via gossip) to have.
func (m *Maintainer) DurableVec() []uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]uint64, len(m.durVec))
	copy(out, m.durVec)
	return out
}

// admit applies the capacity limiter to n records. The success path is
// allocation-free; on rejection the error carries the limiter's token
// deficit as the retry-after hint.
func (m *Maintainer) admit(n int) error {
	if m.cfg.Limiter.Allow(n) {
		return nil
	}
	m.cfg.Limiter.Penalize(m.cfg.RejectPenalty * float64(n))
	m.Rejected.Add(uint64(n))
	return &OverloadError{RetryAfter: m.cfg.Limiter.Delay(n)}
}

// backlogOverloadLocked applies the ingestion-backlog budget to an n-record
// client-facing append. Caller holds mu; returns nil when within budget.
// The retry-after hint is the limiter's deficit when one is configured,
// else a fixed drain guess — the backlog shrinks as replica/assigned
// drains land, which admission cannot time precisely.
func (m *Maintainer) backlogOverloadLocked(n int) error {
	max := m.cfg.MaxIngressBacklog
	if max <= 0 || m.orderBuf.size+m.pendingCount+n <= max {
		return nil
	}
	m.BacklogRejects.Add(uint64(n))
	hint := m.cfg.Limiter.Delay(n)
	if hint <= 0 {
		hint = time.Millisecond
	}
	return &OverloadError{RetryAfter: hint}
}

// IngressBacklog returns the current ingestion backlog the admission budget
// is charged against: explicit-order records plus out-of-order buffered
// slots.
func (m *Maintainer) IngressBacklog() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.orderBuf.size + m.pendingCount
}

// Append implements MaintainerAPI: post-assignment of log positions in the
// maintainer's own range.
func (m *Maintainer) Append(recs []*core.Record) ([]uint64, error) {
	return m.AppendFor(m.cfg.Index, recs)
}

// AppendFor post-assigns positions in any hosted range — rangeIdx equal to
// the maintainer's own index is the normal append path, other hosted
// ranges are the failover path where this maintainer acts as primary for a
// dead owner's range.
func (m *Maintainer) AppendFor(rangeIdx int, recs []*core.Record) ([]uint64, error) {
	if len(recs) == 0 {
		return nil, nil
	}
	tc := batchTrace(recs)
	if h := m.appendLatency; h != nil {
		defer h.ObserveSinceEx(time.Now(), uint64(tc.T))
	}
	if err := m.admit(len(recs)); err != nil {
		tc.Hop(trace.Default(), "maint.admit", 0, "overload", 0, len(recs))
		return nil, err
	}
	m.mu.Lock()
	st, ok := m.hosted[rangeIdx]
	if !ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: range %d at maintainer %d", ErrNotReplica, rangeIdx, m.cfg.Index)
	}
	if err := m.backlogOverloadLocked(len(recs)); err != nil {
		m.mu.Unlock()
		tc.Hop(trace.Default(), "maint.admit", 0, "overload", 0, len(recs))
		return nil, err
	}
	for i, r := range recs {
		if r.LId != 0 {
			m.mu.Unlock()
			return nil, fmt.Errorf("flstore: Append record %d already has LId %d", i, r.LId)
		}
	}
	// A sealed epoch caps every hosted range at its slot count below the
	// announced boundary. Batches that would cross the cap are rejected
	// whole — splitting one would hand part of an atomic batch to each
	// epoch — with the typed error carrying the boundary so the client
	// refreshes its configuration and resumes against the new owners.
	if m.sealLId != 0 {
		if cap := m.sealCaps[rangeIdx]; st.filled+uint64(len(recs)) > cap {
			boundary := m.sealLId
			m.mu.Unlock()
			tc.Hop(trace.Default(), "maint.assign", 0, "sealed", 0, len(recs))
			return nil, &EpochSealedError{FirstLId: boundary}
		}
	}
	// One range assignment for the whole batch: the range fills its slots
	// densely, so the batch occupies slots [filled, filled+len).
	startSlot := st.filled
	lids := make([]uint64, len(recs))
	m.cfg.Placement.LIdsOfSlots(rangeIdx, st.filled, lids)
	for i, r := range recs {
		r.LId = lids[i]
		if r.TOId == 0 {
			// Standalone FLStore deployments have a single total
			// order, so the LId doubles as the TOId. Chariots
			// deployments assign TOIds upstream and use
			// AppendAssigned instead.
			r.TOId = lids[i]
		}
	}
	st.filled += uint64(len(recs))
	m.advanceNextLocked(rangeIdx, st)
	var released []orderBatch
	if rangeIdx == m.cfg.Index {
		released = m.releasableOrderBatchesLocked()
	}
	m.mu.Unlock()

	// The assign hop covers arrival (transit restamped by the wire
	// handler, or the in-process hand-off) through position assignment;
	// the store span wraps persistence, with fsync nested inside it by
	// the segment store.
	tc.Hop(trace.Default(), "maint.assign", 0, "", lids[0], len(recs))
	sw := trace.Begin(tc, "maint.store")
	if err := m.store.AppendBatch(recs); err != nil {
		sw.End(trace.Default(), "error", lids[0], len(recs))
		return nil, err
	}
	sw.End(trace.Default(), "", lids[0], len(recs))
	m.markDurable(rangeIdx, startSlot, startSlot+uint64(len(recs)))
	m.cacheAppended(recs)
	m.Appended.Add(uint64(len(recs)))
	if err := m.postTags(recs); err != nil {
		return nil, err
	}
	for _, b := range released {
		if _, err := m.Append(b.recs); err != nil {
			return nil, fmt.Errorf("flstore: releasing ordered batch: %w", err)
		}
	}
	return lids, nil
}

// AppendAfter implements MaintainerAPI: explicit cross-maintainer ordering
// (§5.4). If the next LId this maintainer would assign already exceeds
// minLId the records are appended immediately; otherwise they are buffered
// and released once the maintainer's frontier passes the bound.
func (m *Maintainer) AppendAfter(minLId uint64, recs []*core.Record) ([]uint64, error) {
	if len(recs) == 0 {
		return nil, nil
	}
	m.mu.Lock()
	next := m.cfg.Placement.LIdOfSlot(m.cfg.Index, m.hosted[m.cfg.Index].filled)
	if next > minLId {
		m.mu.Unlock()
		return m.Append(recs)
	}
	if m.orderBuf.size+len(recs) > m.cfg.MaxOrderBuffer {
		m.mu.Unlock()
		return nil, ErrOrderBacklog
	}
	heap.Push(&m.orderBuf, orderBatch{minLId: minLId, recs: recs})
	m.orderBuf.size += len(recs)
	m.mu.Unlock()
	return nil, nil // buffered; LIds assigned on release
}

// releasableOrderBatchesLocked pops buffered batches whose bound is now
// below the frontier. Caller holds mu.
func (m *Maintainer) releasableOrderBatchesLocked() []orderBatch {
	var out []orderBatch
	next := m.cfg.Placement.LIdOfSlot(m.cfg.Index, m.hosted[m.cfg.Index].filled)
	for m.orderBuf.Len() > 0 && m.orderBuf.batches[0].minLId < next {
		b := heap.Pop(&m.orderBuf).(orderBatch)
		m.orderBuf.size -= len(b.recs)
		out = append(out, b)
	}
	return out
}

// AppendAssigned implements MaintainerAPI: ingestion of records whose LIds
// were assigned upstream by Chariots' queues (§6.2). Records ahead of the
// dense frontier are buffered so the frontier only advances contiguously,
// keeping the head-of-log computation exact.
func (m *Maintainer) AppendAssigned(recs []*core.Record) error {
	if len(recs) == 0 {
		return nil
	}
	tc := batchTrace(recs)
	if h := m.appendLatency; h != nil {
		defer h.ObserveSinceEx(time.Now(), uint64(tc.T))
	}
	if err := m.admit(len(recs)); err != nil {
		tc.Hop(trace.Default(), "maint.admit", 0, "overload", 0, len(recs))
		return err
	}
	m.mu.Lock()
	st := m.hosted[m.cfg.Index]
	for _, r := range recs {
		if r.LId == 0 {
			m.mu.Unlock()
			return errors.New("flstore: AppendAssigned record without LId")
		}
		if m.cfg.Placement.Owner(r.LId) != m.cfg.Index {
			m.mu.Unlock()
			return fmt.Errorf("%w: %d", ErrWrongMaintainer, r.LId)
		}
		if m.sealLId != 0 && r.LId >= m.sealLId {
			boundary := m.sealLId
			m.mu.Unlock()
			return &EpochSealedError{FirstLId: boundary}
		}
		slot := m.cfg.Placement.SlotOf(r.LId)
		if slot < st.filled {
			m.mu.Unlock()
			return fmt.Errorf("%w: %d", storage.ErrDuplicate, r.LId)
		}
		st.pending[slot] = append(st.pending[slot], r)
		m.pendingCount++
	}
	// Drain the contiguous prefix.
	drainStart := st.filled
	var ready []*core.Record
	for {
		rs, ok := st.pending[st.filled]
		if !ok {
			break
		}
		if len(rs) > 1 {
			m.mu.Unlock()
			return fmt.Errorf("%w: slot %d assigned twice", storage.ErrDuplicate, st.filled)
		}
		ready = append(ready, rs[0])
		delete(st.pending, st.filled)
		m.pendingCount--
		st.filled++
	}
	drainEnd := st.filled
	m.advanceNextLocked(m.cfg.Index, st)
	m.mu.Unlock()

	if len(ready) == 0 {
		// Parked ahead of the dense frontier: the batch is buffered, not
		// stored — its store span is recorded by whichever later batch
		// drains it.
		tc.Hop(trace.Default(), "maint.ingest", 0, "buffered", recs[0].LId, len(recs))
		return nil
	}
	tc.Hop(trace.Default(), "maint.ingest", 0, "", recs[0].LId, len(ready))
	sw := trace.Begin(tc, "maint.store")
	if err := m.store.AppendBatch(ready); err != nil {
		sw.End(trace.Default(), "error", recs[0].LId, len(ready))
		return err
	}
	sw.End(trace.Default(), "", recs[0].LId, len(ready))
	m.markDurable(m.cfg.Index, drainStart, drainEnd)
	m.cacheAppended(ready)
	m.Appended.Add(uint64(len(ready)))
	return m.postTags(ready)
}

// ReplicaAppend ingests copies of records whose positions were assigned by
// a range's acting primary; the range is derived from each record's LId,
// and every named range must be hosted here. Delivery is idempotent:
// records at or below the dense frontier (and duplicates of buffered
// slots) are silently skipped, so fan-out retries and duplicated network
// frames are harmless. Tag postings are not re-sent — the acting primary
// already streamed them to the indexers.
func (m *Maintainer) ReplicaAppend(recs []*core.Record) error {
	if len(recs) == 0 {
		return nil
	}
	tc := batchTrace(recs)
	if h := m.appendLatency; h != nil {
		defer h.ObserveSinceEx(time.Now(), uint64(tc.T))
	}
	if err := m.admit(len(recs)); err != nil {
		tc.Hop(trace.Default(), "maint.admit", 0, "overload", 0, len(recs))
		return err
	}
	m.mu.Lock()
	touched := make(map[int]*rangeState)
	for _, r := range recs {
		if r.LId == 0 {
			m.mu.Unlock()
			return errors.New("flstore: ReplicaAppend record without LId")
		}
		rangeIdx := m.cfg.Placement.Owner(r.LId)
		st, ok := m.hosted[rangeIdx]
		if !ok {
			m.mu.Unlock()
			return fmt.Errorf("%w: range %d at maintainer %d", ErrNotReplica, rangeIdx, m.cfg.Index)
		}
		slot := m.cfg.Placement.SlotOf(r.LId)
		if slot < st.filled {
			continue // already stored
		}
		if _, buffered := st.pending[slot]; buffered {
			continue // duplicate of an in-flight copy
		}
		st.pending[slot] = []*core.Record{r}
		m.pendingCount++
		touched[rangeIdx] = st
	}
	var ready []*core.Record
	drained := make(map[int][2]uint64, len(touched))
	for rangeIdx, st := range touched {
		start := st.filled
		for {
			rs, ok := st.pending[st.filled]
			if !ok {
				break
			}
			ready = append(ready, rs[0])
			delete(st.pending, st.filled)
			m.pendingCount--
			st.filled++
		}
		drained[rangeIdx] = [2]uint64{start, st.filled}
		m.advanceNextLocked(rangeIdx, st)
	}
	m.mu.Unlock()

	if len(ready) == 0 {
		tc.Hop(trace.Default(), "replica.ingest", 0, "buffered", recs[0].LId, len(recs))
		return nil
	}
	tc.Hop(trace.Default(), "replica.ingest", 0, "", recs[0].LId, len(ready))
	sw := trace.Begin(tc, "maint.store")
	if err := m.store.AppendBatch(ready); err != nil {
		sw.End(trace.Default(), "error", recs[0].LId, len(ready))
		return err
	}
	sw.End(trace.Default(), "", recs[0].LId, len(ready))
	for rangeIdx, span := range drained {
		m.markDurable(rangeIdx, span[0], span[1])
	}
	m.cacheAppended(ready)
	m.Appended.Add(uint64(len(ready)))
	return nil
}

// RangeFrontier returns the next-unfilled LId of a hosted range as known
// locally: for the own range this is the assignment frontier, for followed
// ranges the replicated frontier (everything below it is durably stored
// here).
func (m *Maintainer) RangeFrontier(rangeIdx int) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.hosted[rangeIdx]
	if !ok {
		return 0, fmt.Errorf("%w: range %d at maintainer %d", ErrNotReplica, rangeIdx, m.cfg.Index)
	}
	return m.cfg.Placement.LIdOfSlot(rangeIdx, st.filled), nil
}

// PullRange streams up to limit stored records of a hosted range with
// LId >= fromLId, in ascending LId order — the catch-up feed a restarted
// peer drains to rebuild its copy.
func (m *Maintainer) PullRange(rangeIdx int, fromLId uint64, limit int) ([]*core.Record, error) {
	m.mu.Lock()
	_, ok := m.hosted[rangeIdx]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: range %d at maintainer %d", ErrNotReplica, rangeIdx, m.cfg.Index)
	}
	if fromLId == 0 {
		fromLId = 1
	}
	var out []*core.Record
	err := m.store.Scan(fromLId, 0, func(r *core.Record) bool {
		if m.cfg.Placement.Owner(r.LId) != rangeIdx {
			return true
		}
		out = append(out, r)
		return limit <= 0 || len(out) < limit
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// postTags streams this batch's tag postings to the owning indexers.
func (m *Maintainer) postTags(recs []*core.Record) error {
	if len(m.cfg.Indexers) == 0 {
		return nil
	}
	batches := make(map[int][]Posting)
	for _, r := range recs {
		for _, t := range r.Tags {
			idx := IndexerFor(t.Key, len(m.cfg.Indexers))
			batches[idx] = append(batches[idx], Posting{Key: t.Key, Value: t.Value, LId: r.LId})
		}
	}
	for idx, b := range batches {
		if err := m.cfg.Indexers[idx].Post(b); err != nil {
			return fmt.Errorf("flstore: posting to indexer %d: %w", idx, err)
		}
	}
	return nil
}

// IndexerFor returns the indexer partition owning a tag key.
func IndexerFor(key string, numIndexers int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(numIndexers))
}

// defaultReadBlockWait bounds Read's park on a locally-invalid position;
// readBlockHint is the pacing hint attached when the wait expires (the
// payload is one fan-out round trip behind the announcement, so a
// millisecond is normally enough for a retry to land after it).
const (
	defaultReadBlockWait = 2 * time.Millisecond
	readBlockHint        = time.Millisecond
)

// Invalidate implements the Hermes-style announcement: every position of
// rangeIdx strictly below upTo has been assigned by the range's acting
// primary. The bound folds into nextVec — the same vector gossip and
// replica ingestion advance — so the head of the log sees the assignment
// immediately while the positions between the local frontier and the
// bound become locally *invalid*: Read blocks or fails over for them
// instead of reporting them absent. Idempotent and monotone; stale
// announcements are no-ops.
func (m *Maintainer) Invalidate(rangeIdx int, upTo uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.hosted[rangeIdx]; !ok {
		return fmt.Errorf("%w: range %d at maintainer %d", ErrNotReplica, rangeIdx, m.cfg.Index)
	}
	// Normalize the bound to frontier form (the next-unfilled LId of the
	// range given the announced slot count) so nextVec stays comparable
	// with the values local fills and gossip write.
	bound := m.cfg.Placement.LIdOfSlot(rangeIdx, m.slotsBelow(rangeIdx, upTo))
	if bound > m.nextVec[rangeIdx] {
		m.nextVec[rangeIdx] = bound
		m.notifyProgressLocked()
	}
	return nil
}

// slotsBelow counts how many of rangeIdx's positions lie strictly below
// bound — the slot-space form of an announced LId bound.
func (m *Maintainer) slotsBelow(rangeIdx int, bound uint64) uint64 {
	return slotsBelowP(m.cfg.Placement, rangeIdx, bound)
}

// slotsBelowP counts how many of rangeIdx's positions lie strictly below
// bound under placement p. Besides normalizing invalidation bounds, this
// is the switchover arithmetic: an epoch boundary F caps each old range at
// slotsBelowP(oldP, r, F) slots, and a new maintainer's ranges base at
// slotsBelowP(newP, r, F).
func slotsBelowP(p Placement, rangeIdx int, bound uint64) uint64 {
	if bound <= 1 {
		return 0
	}
	lid := bound - 1 // last position the bound covers
	chunk := (lid - 1) / p.BatchSize
	round := chunk / uint64(p.NumMaintainers)
	switch cpos := int(chunk % uint64(p.NumMaintainers)); {
	case cpos > rangeIdx:
		return (round + 1) * p.BatchSize
	case cpos < rangeIdx:
		return round * p.BatchSize
	default:
		return round*p.BatchSize + (lid-1)%p.BatchSize + 1
	}
}

// ValidityWatermark implements InvalidationAPI: a hosted range's validity
// watermark (the dense-prefix frontier LId — every position below it is
// resolved and served locally) and its announced assignment bound (every
// position below it is assigned somewhere in the group). The span between
// the two is this member's invalidation backlog.
func (m *Maintainer) ValidityWatermark(rangeIdx int) (watermark, announced uint64, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.hosted[rangeIdx]
	if !ok {
		return 0, 0, fmt.Errorf("%w: range %d at maintainer %d", ErrNotReplica, rangeIdx, m.cfg.Index)
	}
	watermark = m.cfg.Placement.LIdOfSlot(rangeIdx, st.filled)
	announced = m.nextVec[rangeIdx]
	if announced < watermark {
		announced = watermark
	}
	return watermark, announced, nil
}

// invalBacklogLocked returns how many of rangeIdx's positions are
// announced but unresolved here. Caller holds mu.
func (m *Maintainer) invalBacklogLocked(rangeIdx int) uint64 {
	st, ok := m.hosted[rangeIdx]
	if !ok {
		return 0
	}
	if ann := m.slotsBelow(rangeIdx, m.nextVec[rangeIdx]); ann > st.filled {
		return ann - st.filled
	}
	return 0
}

// Read implements MaintainerAPI. It serves every hosted range: below the
// range's validity watermark the record comes straight from the local
// store (any valid replica answers, no owner round trip); between the
// watermark and the announced assignment bound the position is invalid
// here — Read parks up to ReadBlockWait for the in-flight payload, then
// returns a retryable ReadBlockedError so the caller fails over to a
// fresher replica; above the announced bound the position does not exist
// yet and the legacy core.ErrNoSuchRecord semantics apply.
func (m *Maintainer) Read(lid uint64) (*core.Record, error) {
	if h := m.readLatency; h != nil {
		defer h.ObserveSince(time.Now())
	}
	if lid == 0 {
		return nil, core.ErrNoSuchRecord
	}
	// Positions below the epoch boundary belong to a previous placement's
	// geometry: they are served from the migrated legacy copy, not routed
	// by this epoch's layout.
	if lid < m.cfg.FirstLId {
		return m.legacyRead(lid)
	}
	if !m.layout.Replicas(m.cfg.Index, m.cfg.Placement.Owner(lid)) {
		return nil, fmt.Errorf("%w: %d", ErrWrongMaintainer, lid)
	}
	if m.cfg.EnforceHead {
		if head := m.currentHead(); lid > head {
			return nil, fmt.Errorf("%w: LId %d > head %d", core.ErrPastHead, lid, head)
		}
	}
	rec, err := m.store.Get(lid)
	if err == nil {
		m.LocalReadHits.Inc()
		return rec, nil
	}
	if !errors.Is(err, core.ErrNoSuchRecord) {
		return nil, err
	}
	return m.blockedRead(lid)
}

// blockedRead resolves a store miss against the invalidation state: a
// position below the announced bound is assigned — locally invalid, not
// absent — so the read parks on the progress channel for the in-flight
// payload (bounded by ReadBlockWait) rather than serving a stale
// no-such-record. Positions at or above the bound keep the legacy absent
// semantics.
func (m *Maintainer) blockedRead(lid uint64) (*core.Record, error) {
	rangeIdx := m.cfg.Placement.Owner(lid)
	var deadline time.Time
	blocked := false
	for {
		// Grab the channel before checking state: progress between the
		// check and the select closes this channel, so no wakeup is lost.
		ch := m.waitChan()
		m.mu.Lock()
		announced := m.nextVec[rangeIdx]
		m.mu.Unlock()
		if lid >= announced {
			return nil, core.ErrNoSuchRecord
		}
		// Assigned but missed above: either the payload is still in
		// flight, or it resolved (frontier advance → store write) between
		// the miss and now — re-check the store each pass.
		if rec, err := m.store.Get(lid); err == nil {
			m.LocalReadHits.Inc()
			return rec, nil
		}
		if !blocked {
			blocked = true
			m.LocalReadBlocks.Inc()
			if m.cfg.ReadBlockWait < 0 {
				return nil, &ReadBlockedError{LId: lid, RetryAfter: readBlockHint}
			}
			deadline = time.Now().Add(m.cfg.ReadBlockWait)
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, &ReadBlockedError{LId: lid, RetryAfter: readBlockHint}
		}
		timer := time.NewTimer(remain)
		select {
		case <-ch:
			timer.Stop()
		case <-timer.C:
		}
	}
}

// Scan implements MaintainerAPI. It serves only this maintainer's stored
// records (including follower copies); the client library merges scans
// across maintainers, deduplicates by LId, and applies head-of-log bounds.
func (m *Maintainer) Scan(rule core.Rule) ([]*core.Record, error) {
	m.ScanCalls.Inc()
	var out []*core.Record
	err := m.store.Scan(rule.MinLId, rule.EffectiveMaxLId(), func(r *core.Record) bool {
		if rule.Match(r) {
			out = append(out, r)
			// For ascending scans the limit can stop the scan
			// early; descending ("most recent") needs the full
			// window before trimming.
			if !rule.MostRecent && rule.Limit > 0 && len(out) == rule.Limit {
				return false
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if rule.MostRecent {
		for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
		if rule.Limit > 0 && len(out) > rule.Limit {
			out = out[:rule.Limit]
		}
	}
	return out, nil
}

func (m *Maintainer) currentHead() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Head(m.nextVec)
}

// Head implements MaintainerAPI.
func (m *Maintainer) Head() (uint64, error) { return m.currentHead(), nil }

// NextUnfilled implements MaintainerAPI.
func (m *Maintainer) NextUnfilled() (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nextVec[m.cfg.Index], nil
}

// Gossip implements MaintainerAPI: absorb a peer's next-unfilled value and
// return our own (§5.4's fixed-size gossip).
func (m *Maintainer) Gossip(from int, next uint64) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if from < 0 || from >= len(m.nextVec) {
		return 0, fmt.Errorf("flstore: gossip from unknown maintainer %d", from)
	}
	if next > m.nextVec[from] {
		m.nextVec[from] = next
		m.notifyProgressLocked()
	}
	return m.nextVec[m.cfg.Index], nil
}

// GossipVec merges a peer's whole next-unfilled vector element-wise and
// returns a copy of ours — the replication-aware gossip: a follower (or
// acting primary) advances a dead owner's entry from its replicated
// frontier, and the vector exchange spreads that progress so the head of
// the log keeps moving without the owner. The message stays fixed-size
// (N LIds), preserving §5.4's throughput-independence.
func (m *Maintainer) GossipVec(vec []uint64) ([]uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	changed := false
	for j, v := range vec {
		if j < len(m.nextVec) && v > m.nextVec[j] {
			m.nextVec[j] = v
			changed = true
		}
	}
	// Fold hosted frontiers in before replying so followers advertise
	// replicated progress for ranges whose owner may be dead.
	for rangeIdx, st := range m.hosted {
		m.advanceNextLocked(rangeIdx, st)
	}
	if changed {
		m.notifyProgressLocked()
	}
	out := make([]uint64, len(m.nextVec))
	copy(out, m.nextVec)
	return out, nil
}

// GossipVecs is GossipVec extended with the durable-watermark vector: a
// second fixed-size (N LIds) vector whose entry j is the highest LId of
// range j known fsynced on this member's quorum view. Both vectors merge
// element-wise max; both replies fold in local hosted progress first. The
// durable vector is monotone and advisory — it never gates appends, it
// tells readers and operators how far behind the fsync horizon trails the
// assignment frontier.
func (m *Maintainer) GossipVecs(next, dur []uint64) ([]uint64, []uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	changed := false
	for j, v := range next {
		if j < len(m.nextVec) && v > m.nextVec[j] {
			m.nextVec[j] = v
			changed = true
		}
	}
	for j, v := range dur {
		if j < len(m.durVec) && v > m.durVec[j] {
			m.durVec[j] = v
		}
	}
	for rangeIdx, st := range m.hosted {
		m.advanceNextLocked(rangeIdx, st)
		if m.storeDurable {
			m.advanceDurableLocked(rangeIdx, st)
		}
	}
	if changed {
		m.notifyProgressLocked()
	}
	outNext := make([]uint64, len(m.nextVec))
	copy(outNext, m.nextVec)
	outDur := make([]uint64, len(m.durVec))
	copy(outDur, m.durVec)
	return outNext, outDur, nil
}

// NextVec returns a copy of the maintainer's next-unfilled vector.
func (m *Maintainer) NextVec() []uint64 {
	out, _ := m.GossipVec(nil)
	return out
}

// PendingAssigned returns how many out-of-order records are buffered
// across hosted ranges (test/ops introspection).
func (m *Maintainer) PendingAssigned() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, st := range m.hosted {
		n += len(st.pending)
	}
	return n
}

// OrderBuffered returns how many explicit-order records are parked.
func (m *Maintainer) OrderBuffered() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.orderBuf.size
}

// Store exposes the underlying store (used by senders and tests).
func (m *Maintainer) Store() storage.Store { return m.store }

// orderBatch is an AppendAfter batch waiting for its LId lower bound.
type orderBatch struct {
	minLId uint64
	recs   []*core.Record
}

// orderHeap is a min-heap of orderBatches by minLId.
type orderHeap struct {
	batches []orderBatch
	size    int
}

func (h orderHeap) Len() int            { return len(h.batches) }
func (h orderHeap) Less(i, j int) bool  { return h.batches[i].minLId < h.batches[j].minLId }
func (h orderHeap) Swap(i, j int)       { h.batches[i], h.batches[j] = h.batches[j], h.batches[i] }
func (h *orderHeap) Push(x interface{}) { h.batches = append(h.batches, x.(orderBatch)) }
func (h *orderHeap) Pop() interface{} {
	old := h.batches
	n := len(old)
	x := old[n-1]
	h.batches = old[:n-1]
	return x
}
