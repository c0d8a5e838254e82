package cluster

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/flstore"
	"repro/internal/rpc"
)

// ReadPathOptions configures the read-path experiment: a closed-loop tail
// (each record is appended only after the tailing consumer has seen the
// previous one — the append→visible latency expressed as a rate) measured
// on the push-subscription path (Client.Tail) and on a client-side poll
// loop (pollTail), plus a bulk read of the resulting log via one
// scatter-gather ReadRange versus single-record round trips.
type ReadPathOptions struct {
	Maintainers int
	BatchSize   uint64
	Records     int
	RecordSize  int
	// Budget caps the wall clock per measured mode; a mode that does not
	// reach Records within the budget reports the rate it sustained.
	Budget time.Duration
}

// ReadPathResult is the measured comparison. Rates are records/second.
type ReadPathResult struct {
	Maintainers     int     `json:"maintainers"`
	Records         int     `json:"records"`
	TailPushRecords int     `json:"tail_push_records"`
	TailPushPerSec  float64 `json:"tail_push_recs_per_sec"`
	TailPollRecords int     `json:"tail_poll_records"`
	TailPollPerSec  float64 `json:"tail_poll_recs_per_sec"`
	// TailSpeedup is push/poll — the acceptance bar is ≥ 5×.
	TailSpeedup      float64 `json:"tail_speedup"`
	RangeReadPerSec  float64 `json:"range_read_recs_per_sec"`
	SingleReadPerSec float64 `json:"single_read_recs_per_sec"`
	RangeSpeedup     float64 `json:"range_speedup"`
	// ReadScaling is the replica-count sweep: aggregate hot-range read
	// throughput as the group size R grows, every replica serving valid
	// reads locally under the invalidation protocol. Filled by the repro
	// driver from RunReadScaling, not by RunReadPath.
	ReadScaling []ReadScalingPoint `json:"read_scaling,omitempty"`
	// ReadScalingX is the largest-R/smallest-R aggregate throughput ratio
	// — the acceptance bar is ≥ 2× for R 1→3.
	ReadScalingX float64 `json:"read_scaling_x,omitempty"`
}

// ReadScalingPoint is one point of the replica read-scaling sweep.
type ReadScalingPoint struct {
	Replication int     `json:"replication"`
	Records     int     `json:"records"`
	ReadsPerSec float64 `json:"reads_per_sec"`
}

// newReadPathStack wires client→rpc→maintainers in-process: real dispatch
// and codec work on every hop, so the poll/push difference reflects the
// protocol, not the transport.
func newReadPathStack(opts ReadPathOptions) (*flstore.Client, error) {
	p := flstore.Placement{NumMaintainers: opts.Maintainers, BatchSize: opts.BatchSize}
	apis := make([]flstore.MaintainerAPI, opts.Maintainers)
	for i := range apis {
		m, err := flstore.NewMaintainer(flstore.MaintainerConfig{Index: i, Placement: p})
		if err != nil {
			return nil, err
		}
		srv := rpc.NewServer()
		flstore.ServeMaintainer(srv, m)
		apis[i] = flstore.NewMaintainerClient(rpc.NewLocalClient(srv))
	}
	return flstore.NewDirectClient(p, apis, nil)
}

// runClosedLoopTail appends up to opts.Records records one at a time and,
// after each append, waits until the tailing consumer has delivered every
// record the head of the log now covers. Placement is post-assignment —
// the dense prefix lags the append count by up to a round-robin cycle — so
// the producer gates on HeadExact rather than on its own count; waiting
// for its exact append to surface could deadlock on a not-yet-dense LId.
// On the poll path every head advance pays the poll tick before the
// consumer sees it; on the push path the consumer is woken directly by the
// maintainer's frontier advance.
func runClosedLoopTail(c *flstore.Client, tail tailFunc, opts ReadPathOptions) (int, time.Duration, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	acks := make(chan uint64, opts.Records)
	tailErr := make(chan error, 1)
	go func() {
		tailErr <- tail(ctx, 1, func(r *core.Record) bool {
			acks <- r.LId
			return true
		})
	}()
	body := make([]byte, opts.RecordSize)
	start := time.Now()
	deadline := start.Add(opts.Budget)
	seen := uint64(0) // highest LId the consumer has delivered
	appended := 0
	for appended < opts.Records && time.Now().Before(deadline) {
		if _, err := c.Append(body, nil); err != nil {
			return int(seen), time.Since(start), err
		}
		appended++
		head, err := c.HeadExact()
		if err != nil {
			return int(seen), time.Since(start), err
		}
		for seen < head {
			select {
			case lid := <-acks:
				seen = lid
			case err := <-tailErr:
				return int(seen), time.Since(start), fmt.Errorf("cluster: tail exited early: %v", err)
			case <-time.After(5 * time.Second):
				return int(seen), time.Since(start), fmt.Errorf("cluster: LId %d never became visible (head %d)", seen+1, head)
			}
		}
	}
	elapsed := time.Since(start)
	cancel()
	<-tailErr // consumer exits on context cancellation
	return int(seen), elapsed, nil
}

// tailFunc streams the log from a position in LId order until ctx ends or
// fn returns false — the shape of Client.Tail.
type tailFunc func(ctx context.Context, fromLId uint64, fn func(*core.Record) bool) error

// pollTick is the poll arm's sleep between head checks.
const pollTick = 2 * time.Millisecond

// pollTail is the poll arm of the experiment: a tail built from the
// client's point operations alone, as a subscriber without the TailWait
// long-poll would write it. Every tick it re-derives the exact head and
// fetches the newly covered window by position with ReadLIds.
func pollTail(c *flstore.Client) tailFunc {
	return func(ctx context.Context, fromLId uint64, fn func(*core.Record) bool) error {
		cursor := fromLId
		for {
			head, err := c.HeadExact()
			if err != nil {
				return err
			}
			if head >= cursor {
				lids := make([]uint64, 0, head-cursor+1)
				for lid := cursor; lid <= head; lid++ {
					lids = append(lids, lid)
				}
				recs, err := c.ReadLIdsCtx(ctx, lids)
				if err != nil {
					return err
				}
				for _, rec := range recs {
					if !fn(rec) {
						return nil
					}
				}
				cursor = head + 1
			}
			timer := time.NewTimer(pollTick)
			select {
			case <-ctx.Done():
				timer.Stop()
				return ctx.Err()
			case <-timer.C:
			}
		}
	}
}

// RunReadPath measures the four read-path rates.
func RunReadPath(opts ReadPathOptions) (ReadPathResult, error) {
	if opts.Maintainers <= 0 {
		opts.Maintainers = 3
	}
	if opts.BatchSize == 0 {
		opts.BatchSize = 8
	}
	if opts.Records <= 0 {
		opts.Records = 10_000
	}
	if opts.RecordSize <= 0 {
		opts.RecordSize = 128
	}
	if opts.Budget <= 0 {
		opts.Budget = 2 * time.Second
	}
	res := ReadPathResult{Maintainers: opts.Maintainers, Records: opts.Records}

	// Closed-loop tail, push then poll, each on a fresh log.
	push, err := newReadPathStack(opts)
	if err != nil {
		return res, err
	}
	n, elapsed, err := runClosedLoopTail(push, push.Tail, opts)
	if err != nil {
		return res, err
	}
	res.TailPushRecords = n
	res.TailPushPerSec = float64(n) / elapsed.Seconds()

	poll, err := newReadPathStack(opts)
	if err != nil {
		return res, err
	}
	n, elapsed, err = runClosedLoopTail(poll, pollTail(poll), opts)
	if err != nil {
		return res, err
	}
	res.TailPollRecords = n
	res.TailPollPerSec = float64(n) / elapsed.Seconds()
	if res.TailPollPerSec > 0 {
		res.TailSpeedup = res.TailPushPerSec / res.TailPollPerSec
	}

	// Bulk read of the push run's log: one scatter-gather window versus
	// one round trip per record, both capped by the budget.
	head, err := push.HeadExact()
	if err != nil {
		return res, err
	}
	start := time.Now()
	recs, err := push.ReadRange(1, head)
	if err != nil {
		return res, err
	}
	if uint64(len(recs)) != head {
		return res, fmt.Errorf("cluster: range read returned %d of %d records", len(recs), head)
	}
	res.RangeReadPerSec = float64(len(recs)) / time.Since(start).Seconds()

	start = time.Now()
	deadline := start.Add(opts.Budget)
	read := 0
	for lid := uint64(1); lid <= head && time.Now().Before(deadline); lid++ {
		if _, err := push.ReadLId(lid); err != nil {
			return res, err
		}
		read++
	}
	res.SingleReadPerSec = float64(read) / time.Since(start).Seconds()
	if res.SingleReadPerSec > 0 {
		res.RangeSpeedup = res.RangeReadPerSec / res.SingleReadPerSec
	}
	return res, nil
}
