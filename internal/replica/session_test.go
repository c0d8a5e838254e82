package replica

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
)

// fakeMember is a deterministic in-memory Member for session unit tests:
// it mimics the maintainer's per-range dense slot assignment over a
// round-robin placement of batch size 1 (range i owns LIds i+1, i+1+N, …).
type fakeMember struct {
	mu     sync.Mutex
	idx    int
	layout Layout
	// frontier[r] = slots filled for range r.
	frontier map[int]uint64
	recs     map[uint64]*core.Record
	down     bool
	calls    int
}

func newFakeMember(idx int, l Layout) *fakeMember {
	f := &fakeMember{idx: idx, layout: l, frontier: map[int]uint64{}, recs: map[uint64]*core.Record{}}
	for _, r := range l.Hosts(idx) {
		f.frontier[r] = 0
	}
	return f
}

// lidOfSlot mirrors Placement.LIdOfSlot with BatchSize 1.
func (f *fakeMember) lidOfSlot(r int, slot uint64) uint64 {
	return slot*uint64(f.layout.N) + uint64(r) + 1
}

var errDown = errors.New("fake: member down")

func (f *fakeMember) gate() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if f.down {
		return errDown
	}
	return nil
}

func (f *fakeMember) Append(recs []*core.Record) ([]uint64, error) {
	return f.AppendFor(f.idx, recs)
}

func (f *fakeMember) AppendFor(rangeIdx int, recs []*core.Record) ([]uint64, error) {
	if err := f.gate(); err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.frontier[rangeIdx]; !ok {
		return nil, fmt.Errorf("fake: member %d does not host range %d", f.idx, rangeIdx)
	}
	lids := make([]uint64, len(recs))
	for i, r := range recs {
		lid := f.lidOfSlot(rangeIdx, f.frontier[rangeIdx])
		f.frontier[rangeIdx]++
		r.LId = lid
		f.recs[lid] = r
		lids[i] = lid
	}
	return lids, nil
}

func (f *fakeMember) ReplicaAppend(recs []*core.Record) error {
	if err := f.gate(); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, r := range recs {
		rangeIdx := int((r.LId - 1) % uint64(f.layout.N))
		if _, ok := f.frontier[rangeIdx]; !ok {
			return fmt.Errorf("fake: member %d does not host range %d", f.idx, rangeIdx)
		}
		if _, dup := f.recs[r.LId]; dup {
			continue
		}
		f.recs[r.LId] = r
		if want := f.lidOfSlot(rangeIdx, f.frontier[rangeIdx]); r.LId == want {
			f.frontier[rangeIdx]++
			// Drain any buffered successors (fakes receive in order, so
			// a simple forward walk suffices).
			for {
				next := f.lidOfSlot(rangeIdx, f.frontier[rangeIdx])
				if _, ok := f.recs[next]; !ok {
					break
				}
				f.frontier[rangeIdx]++
			}
		}
	}
	return nil
}

func (f *fakeMember) Read(lid uint64) (*core.Record, error) {
	if err := f.gate(); err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	r, ok := f.recs[lid]
	if !ok {
		return nil, core.ErrNoSuchRecord
	}
	return r, nil
}

func (f *fakeMember) RangeFrontier(rangeIdx int) (uint64, error) {
	if err := f.gate(); err != nil {
		return 0, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	slots, ok := f.frontier[rangeIdx]
	if !ok {
		return 0, fmt.Errorf("fake: member %d does not host range %d", f.idx, rangeIdx)
	}
	return f.lidOfSlot(rangeIdx, slots), nil
}

func (f *fakeMember) PullRange(rangeIdx int, fromLId uint64, limit int) ([]*core.Record, error) {
	if err := f.gate(); err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var lids []uint64
	for lid := range f.recs {
		if int((lid-1)%uint64(f.layout.N)) == rangeIdx && lid >= fromLId {
			lids = append(lids, lid)
		}
	}
	sort.Slice(lids, func(i, j int) bool { return lids[i] < lids[j] })
	if limit > 0 && len(lids) > limit {
		lids = lids[:limit]
	}
	out := make([]*core.Record, len(lids))
	for i, lid := range lids {
		out[i] = f.recs[lid]
	}
	return out, nil
}

// Invalidate and ValidityWatermark are no-ops: the plain fake resolves
// every position as soon as its payload lands. invalidatingFake overrides
// both to record announcements.
func (f *fakeMember) Invalidate(rangeIdx int, upTo uint64) error { return nil }

func (f *fakeMember) ValidityWatermark(rangeIdx int) (uint64, uint64, error) { return 0, 0, nil }

func (f *fakeMember) setDown(d bool) {
	f.mu.Lock()
	f.down = d
	f.mu.Unlock()
}

func buildSession(t *testing.T, n, r int, ack AckPolicy, evictAfter int) (*Session, []*fakeMember) {
	t.Helper()
	l := Layout{N: n, R: r}
	fakes := make([]*fakeMember, n)
	members := make([]Member, n)
	for i := range fakes {
		fakes[i] = newFakeMember(i, l)
		members[i] = fakes[i]
	}
	s, err := NewSession(members, SessionConfig{
		Layout:     l,
		Ack:        ack,
		Owner:      func(lid uint64) int { return int((lid - 1) % uint64(n)) },
		EvictAfter: evictAfter,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, fakes
}

func TestSessionAppendReplicatesToGroup(t *testing.T) {
	s, fakes := buildSession(t, 3, 3, AckAll, 2)
	lids, err := s.Append([]*core.Record{{Body: []byte("a")}, {Body: []byte("b")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(lids) != 2 {
		t.Fatalf("lids = %v", lids)
	}
	// Every member of the owning group holds both records.
	for _, lid := range lids {
		for _, f := range fakes {
			if _, ok := f.recs[lid]; !ok {
				t.Errorf("member %d missing lid %d", f.idx, lid)
			}
		}
	}
}

func TestSessionAckMajoritySurvivesOneDown(t *testing.T) {
	s, fakes := buildSession(t, 3, 3, AckMajority, 2)
	fakes[1].setDown(true)
	// Appends keep succeeding: ranges 0 and 2 have live primaries, and
	// when round-robin lands on range 1 the session fails over to its
	// next group member.
	for i := 0; i < 12; i++ {
		if _, err := s.Append([]*core.Record{{Body: []byte("x")}}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if st := s.Health().State(1); st != Evicted {
		t.Fatalf("member 1 state = %v, want evicted", st)
	}
	// Range 1's acting primary is member 2 (group [1 2 0]).
	ap, ok := s.ActingPrimary(1)
	if !ok || ap != 2 {
		t.Fatalf("ActingPrimary(1) = %d,%v, want 2,true", ap, ok)
	}
	if s.appendFailovers.Value() == 0 {
		t.Error("no append failovers recorded")
	}
}

func TestSessionAckAllFailsWithMemberDown(t *testing.T) {
	s, fakes := buildSession(t, 3, 3, AckOne, 2)
	_ = fakes
	// Sanity under AckOne first: one down member doesn't matter.
	fakes[2].setDown(true)
	if _, err := s.Append([]*core.Record{{Body: []byte("x")}}); err != nil {
		t.Fatalf("ack-one append with a down member: %v", err)
	}

	s2, fakes2 := buildSession(t, 3, 3, AckAll, 10)
	fakes2[2].setDown(true)
	// Member 2 is down but not yet evicted (high threshold): the fan-out
	// misses it and ack-all cannot be satisfied.
	_, err := s2.Append([]*core.Record{{Body: []byte("x")}})
	if !errors.Is(err, ErrInsufficientAcks) {
		t.Fatalf("ack-all append = %v, want ErrInsufficientAcks", err)
	}
}

func TestSessionReadFailsOver(t *testing.T) {
	s, fakes := buildSession(t, 3, 2, AckAll, 2)
	lids, err := s.Append([]*core.Record{{Body: []byte("payload")}})
	if err != nil {
		t.Fatal(err)
	}
	lid := lids[0]
	owner := int((lid - 1) % 3)
	fakes[owner].setDown(true)
	rec, err := s.Read(lid)
	if err != nil {
		t.Fatalf("failover read: %v", err)
	}
	if string(rec.Body) != "payload" {
		t.Errorf("body = %q", rec.Body)
	}
	if s.readFailovers.Value() != 1 {
		t.Errorf("read failovers = %d, want 1", s.readFailovers.Value())
	}
	// A missing record is a logic error from the freshest member, but the
	// session keeps trying followers before giving up; with all up it
	// surfaces ErrNoSuchRecord.
	fakes[owner].setDown(false)
	if _, err := s.Read(999_999); !errors.Is(err, core.ErrNoSuchRecord) {
		t.Errorf("read of absent lid = %v", err)
	}
}

func TestSessionFrontiersComputedOverGroups(t *testing.T) {
	s, fakes := buildSession(t, 3, 3, AckMajority, 1)
	for i := 0; i < 9; i++ {
		if _, err := s.Append([]*core.Record{{Body: []byte("x")}}); err != nil {
			t.Fatal(err)
		}
	}
	before, err := s.Frontiers()
	if err != nil {
		t.Fatal(err)
	}
	// Kill member 0: the group max for range 0 must still be reported by
	// its followers.
	fakes[0].setDown(true)
	s.Health().ReportFailure(0) // evict (threshold 1)
	after, err := s.Frontiers()
	if err != nil {
		t.Fatal(err)
	}
	for r := range before {
		if after[r] < before[r] {
			t.Errorf("range %d frontier regressed: %d -> %d", r, before[r], after[r])
		}
	}
}

func TestSessionCatchUpAndRejoin(t *testing.T) {
	s, fakes := buildSession(t, 3, 3, AckMajority, 1)
	appendN := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := s.Append([]*core.Record{{Body: []byte(fmt.Sprintf("r%d", i))}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendN(6)
	// Member 1 dies; appends continue without it.
	fakes[1].setDown(true)
	s.Health().ReportFailure(1)
	appendN(9)
	missing := len(fakes[0].recs) - len(fakes[1].recs)
	if missing <= 0 {
		t.Fatalf("member 1 unexpectedly kept up (missing=%d)", missing)
	}
	// Restart: reachable again, then rejoin = catch-up + readmit.
	fakes[1].setDown(false)
	n, err := s.Rejoin(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if n != missing {
		t.Errorf("catch-up transferred %d records, want %d", n, missing)
	}
	if s.Health().State(1) != Healthy {
		t.Error("member 1 not readmitted")
	}
	// Every record the group holds is now at member 1 too (it hosts all
	// ranges under R=3).
	if len(fakes[1].recs) != len(fakes[0].recs) {
		t.Errorf("member 1 has %d records, member 0 has %d", len(fakes[1].recs), len(fakes[0].recs))
	}
	if s.catchupRecords.Value() != uint64(missing) {
		t.Errorf("catchup counter = %d, want %d", s.catchupRecords.Value(), missing)
	}
}

func TestSessionNoUsableGroup(t *testing.T) {
	s, fakes := buildSession(t, 2, 1, AckOne, 1)
	for _, f := range fakes {
		f.setDown(true)
	}
	s.Health().ReportFailure(0)
	s.Health().ReportFailure(1)
	if _, err := s.Append([]*core.Record{{Body: []byte("x")}}); !errors.Is(err, ErrNoUsableGroup) {
		t.Fatalf("append with all evicted = %v, want ErrNoUsableGroup", err)
	}
	if _, err := s.Read(1); !errors.Is(err, ErrNoUsableGroup) {
		t.Fatalf("read with all evicted = %v, want ErrNoUsableGroup", err)
	}
}
