package flstore

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/replica"
	"repro/internal/rpc"
)

// TestReplicatedLinearizableReadsUnderFaults is the invalidation
// protocol's linearizability check (name matches the tier-1 race gate):
// one writer appends through seeded lossy links (drops, duplicates,
// delays) while readers hammer every acknowledged position through the
// any-replica spread-read policy. The invariant under test is that an
// acknowledged append is never read stale from any replica — a lagging
// member must block or fail the read over (invalidation semantics), never
// answer "no such record" or an old body. Evicted members are readmitted
// mid-run, so the watermark invariant also survives the
// suspect/evict/catch-up/readmit lifecycle.
func TestReplicatedLinearizableReadsUnderFaults(t *testing.T) {
	const (
		n    = 3
		seed = 42
	)
	p := Placement{NumMaintainers: n, BatchSize: 2}
	ctl := faultinject.New(faultinject.Options{
		Seed:   seed,
		DropP:  0.05,
		DupP:   0.05,
		DelayP: 0.10,
		Delay:  200 * time.Microsecond,
	})
	var ms []*Maintainer
	var srvs []*rpc.Server
	for i := 0; i < n; i++ {
		m, err := NewMaintainer(MaintainerConfig{
			Index: i, Placement: p, Replication: n, EnforceHead: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := rpc.NewServer()
		ServeMaintainer(srv, m)
		ms = append(ms, m)
		srvs = append(srvs, srv)
	}
	// The writer's links are lossy; the readers' links are clean, so a
	// read failure is a protocol violation, not an injected fault.
	var faulty, clean []MaintainerAPI
	for i := 0; i < n; i++ {
		faulty = append(faulty, NewMaintainerClient(ctl.Wrap(fmt.Sprintf("w->m%d", i), rpc.NewLocalClient(srvs[i]))))
		clean = append(clean, NewMaintainerClient(rpc.NewLocalClient(srvs[i])))
	}
	writer, err := NewReplicatedDirectClient(p, faulty, nil, n, replica.AckMajority,
		WithAppendRetries(100), WithAppendBackoff(100*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	reader, err := NewReplicatedDirectClient(p, clean, nil, n, replica.AckMajority,
		WithReadPolicy(replica.SpreadReads()),
		WithReadRetries(500), WithRetryBackoff(200*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}

	// acked maps every acknowledged LId to the body the writer stored
	// there; ackedLIds is the readers' sampling population.
	var (
		mu       sync.Mutex
		acked    = map[uint64]string{}
		ackedLId []uint64
	)
	deadline := time.Now().Add(800 * time.Millisecond)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; time.Now().Before(deadline); i++ {
			body := fmt.Sprintf("rec-%d", i)
			lid, err := writer.Append([]byte(body), nil)
			if err != nil {
				// An under-acked or dropped append is an availability
				// event, not a correctness one: the record is simply not
				// registered as acknowledged. Readmit anyone the session
				// evicted and move on.
				for mi := 0; mi < n; mi++ {
					if writer.Session().Health().State(mi) == replica.Evicted {
						_, _ = writer.Session().Rejoin(mi, 0)
					}
				}
				continue
			}
			mu.Lock()
			acked[lid] = body
			ackedLId = append(ackedLId, lid)
			mu.Unlock()
			if i%64 == 63 { // periodic repair, like an operator cron
				for mi := 0; mi < n; mi++ {
					if writer.Session().Health().State(mi) == replica.Evicted {
						_, _ = writer.Session().Rejoin(mi, 0)
					}
				}
			}
		}
	}()

	readAcked := func(rnd *rand.Rand) error {
		mu.Lock()
		if len(ackedLId) == 0 {
			mu.Unlock()
			return nil
		}
		lid := ackedLId[rnd.Intn(len(ackedLId))]
		want := acked[lid]
		mu.Unlock()
		rec, err := reader.ReadLId(lid)
		if err != nil {
			return fmt.Errorf("acked LId %d unreadable: %w", lid, err)
		}
		if string(rec.Body) != want {
			return fmt.Errorf("stale read at LId %d: got %q, want %q", lid, rec.Body, want)
		}
		return nil
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(seed + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := readAcked(rnd); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Heal the frontier vectors (the writer's last announcements to a
	// member may have been dropped, freezing its head estimate), then
	// verify every acknowledged record one final time from every angle
	// the spread policy can take.
	var gs []*Gossiper
	for i := 0; i < n; i++ {
		peers := make([]MaintainerAPI, n)
		for j := 0; j < n; j++ {
			if j != i {
				peers[j] = clean[j]
			}
		}
		gs = append(gs, NewGossiper(ms[i], peers, 0))
	}
	for k := 0; k < 3; k++ {
		for _, g := range gs {
			g.Round()
		}
	}
	mu.Lock()
	total := len(ackedLId)
	mu.Unlock()
	if total < 30 {
		t.Fatalf("only %d acknowledged appends; the fault schedule starved the run", total)
	}
	for _, lid := range ackedLId {
		rec, err := reader.ReadLId(lid)
		if err != nil {
			t.Fatalf("final check: acked LId %d unreadable: %v", lid, err)
		}
		if string(rec.Body) != acked[lid] {
			t.Fatalf("final check: stale read at LId %d: got %q, want %q", lid, rec.Body, acked[lid])
		}
	}
	t.Logf("%d acked appends, %d spread reads served, %d blocked-read events across members",
		total, sumCounters(ms, func(m *Maintainer) uint64 { return m.LocalReadHits.Value() }),
		sumCounters(ms, func(m *Maintainer) uint64 { return m.LocalReadBlocks.Value() }))
}

func sumCounters(ms []*Maintainer, f func(*Maintainer) uint64) uint64 {
	var total uint64
	for _, m := range ms {
		total += f(m)
	}
	return total
}
