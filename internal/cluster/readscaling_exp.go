package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/flstore"
	"repro/internal/replica"
	"repro/internal/rpc"
)

// ReadScalingOptions configures the replica read-scaling sweep: the same
// hot range read under growing replica-group sizes. Every point runs over
// real loopback TCP with one shared connection per maintainer, so each
// member models a fixed serving capacity (the server handles one
// connection's requests in order); the sweep measures how much aggregate
// read throughput the invalidation protocol unlocks by letting any valid
// replica answer locally instead of funneling every read to the owner.
type ReadScalingOptions struct {
	Maintainers int
	BatchSize   uint64
	// Records is the preloaded log size per point.
	Records    int
	RecordSize int
	// Readers is the number of concurrent reader goroutines per point.
	Readers int
	// Budget caps the measured wall clock per point.
	Budget time.Duration
	// Replicas are the R values swept, ascending (default 1, 2, 3).
	Replicas []int
	// ServiceDelay is each member's per-read service time (default
	// 100µs): the serving loop holds the connection for this long per
	// request, modeling a member whose reads cost real work (storage,
	// WAN hop) rather than a loopback cache hit. Sleeping instead of
	// spinning keeps the model honest on small machines — per-member
	// capacity is 1/ServiceDelay regardless of host core count, so the
	// sweep measures protocol-level read spreading, not scheduler noise.
	ServiceDelay time.Duration
}

// pacedMember fronts a maintainer with a fixed per-read service time. It
// embeds the maintainer for the rest of the surface; only Read — the swept
// call — is paced. Reads are served inline in connection order, so the delay bounds
// one connection's read throughput exactly like a busy member would.
type pacedMember struct {
	*flstore.Maintainer
	delay time.Duration
}

func (p *pacedMember) Read(lid uint64) (*core.Record, error) {
	if p.delay > 0 {
		time.Sleep(p.delay)
	}
	return p.Maintainer.Read(lid)
}

// RunReadScaling measures aggregate single-record read throughput against
// one hot range for each configured replica-group size.
func RunReadScaling(opts ReadScalingOptions) ([]ReadScalingPoint, error) {
	if opts.Maintainers <= 0 {
		opts.Maintainers = 3
	}
	if opts.BatchSize == 0 {
		opts.BatchSize = 8
	}
	if opts.Records <= 0 {
		opts.Records = 3_000
	}
	if opts.RecordSize <= 0 {
		opts.RecordSize = 128
	}
	if opts.Readers <= 0 {
		opts.Readers = 16
	}
	if opts.Budget <= 0 {
		opts.Budget = time.Second
	}
	if opts.ServiceDelay == 0 {
		opts.ServiceDelay = 100 * time.Microsecond
	}
	if len(opts.Replicas) == 0 {
		opts.Replicas = []int{1, 2, 3}
	}
	points := make([]ReadScalingPoint, 0, len(opts.Replicas))
	for _, r := range opts.Replicas {
		if r < 1 || r > opts.Maintainers {
			return nil, fmt.Errorf("cluster: replication %d out of range [1,%d]", r, opts.Maintainers)
		}
		pt, err := runReadScalingPoint(opts, r)
		if err != nil {
			return nil, fmt.Errorf("cluster: read scaling R=%d: %w", r, err)
		}
		points = append(points, pt)
	}
	return points, nil
}

func runReadScalingPoint(opts ReadScalingOptions, r int) (ReadScalingPoint, error) {
	pt := ReadScalingPoint{Replication: r}
	p := flstore.Placement{NumMaintainers: opts.Maintainers, BatchSize: opts.BatchSize}

	// Real TCP stack, one shared pipelined connection per maintainer: the
	// server serves a connection's requests in order, so per-member
	// throughput is bounded no matter how many client goroutines pile on —
	// the capacity model that makes replica spreading measurable. (The
	// in-process LocalClient dispatches on the caller's goroutine and would
	// show no scaling at all.)
	servers := make([]*rpc.Server, opts.Maintainers)
	conns := make([]*rpc.TCPClient, opts.Maintainers)
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
		for _, s := range servers {
			if s != nil {
				s.Close()
			}
		}
	}()
	apis := make([]flstore.MaintainerAPI, opts.Maintainers)
	for i := range apis {
		m, err := flstore.NewMaintainer(flstore.MaintainerConfig{Index: i, Placement: p, Replication: r})
		if err != nil {
			return pt, err
		}
		srv := rpc.NewServer()
		flstore.ServeMaintainer(srv, &pacedMember{Maintainer: m, delay: opts.ServiceDelay})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return pt, err
		}
		servers[i] = srv
		conn, err := rpc.Dial(addr.String())
		if err != nil {
			return pt, err
		}
		conns[i] = conn
		apis[i] = flstore.NewMaintainerClient(conn)
	}

	// AckAll preloading: every group member holds every payload before the
	// measurement starts, so reads never block on an in-flight
	// invalidation and the sweep isolates read-path capacity.
	client, err := flstore.NewReplicatedDirectClient(p, apis, nil, r, replica.AckAll,
		flstore.WithReadPolicy(replica.SpreadReads()))
	if err != nil {
		return pt, err
	}
	body := make([]byte, opts.RecordSize)
	for appended := 0; appended < opts.Records; appended++ {
		if _, err := client.Append(body, nil); err != nil {
			return pt, err
		}
	}

	// The hot set is range 0's positions: with R=1 only maintainer 0 can
	// answer them; with R=3 all three members serve them from local store.
	head, err := client.HeadExact()
	if err != nil {
		return pt, err
	}
	hot := make([]uint64, 0, int(head)/opts.Maintainers+1)
	for lid := uint64(1); lid <= head; lid++ {
		if p.Owner(lid) == 0 {
			hot = append(hot, lid)
		}
	}
	if len(hot) == 0 {
		return pt, fmt.Errorf("no records landed in range 0 (head %d)", head)
	}
	pt.Records = len(hot)

	var (
		next  atomic.Uint64 // round-robin cursor over the hot set
		reads atomic.Uint64
		stop  atomic.Bool
		fail  atomic.Pointer[error]
	)
	var wg sync.WaitGroup
	for w := 0; w < opts.Readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				lid := hot[next.Add(1)%uint64(len(hot))]
				if _, err := client.ReadLId(lid); err != nil {
					err := fmt.Errorf("read LId %d: %w", lid, err)
					fail.CompareAndSwap(nil, &err)
					return
				}
				reads.Add(1)
			}
		}()
	}
	start := time.Now()
	time.Sleep(opts.Budget)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	if ep := fail.Load(); ep != nil {
		return pt, *ep
	}
	pt.ReadsPerSec = float64(reads.Load()) / elapsed.Seconds()
	return pt, nil
}
