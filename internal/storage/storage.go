// Package storage implements the persistence substrate of a log
// maintainer: an append-only, segment-file store of log records keyed by
// LId, with checksummed entries, torn-write recovery, and whole-segment
// garbage collection.
//
// A maintainer owns sparse, deterministic ranges of the datacenter's log
// (round-robin rounds of BatchSize positions, §5.2), so the store indexes
// records by LId rather than assuming contiguity: entries are written in
// arrival order and an in-memory index maps LId → (segment, offset).
package storage

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("storage: store is closed")

// ErrDuplicate is returned when appending a record whose LId is already
// present. Log records are immutable; a duplicate append is a protocol
// error upstream.
var ErrDuplicate = errors.New("storage: duplicate LId")

// Store is the persistence interface a log maintainer programs against.
// Implementations must be safe for concurrent use.
type Store interface {
	// Append durably adds a record (the record must carry a nonzero
	// LId). Appending an LId that already exists fails with
	// ErrDuplicate.
	Append(r *core.Record) error
	// AppendBatch adds many records with one durability point.
	AppendBatch(rs []*core.Record) error
	// Get returns the record at lid, or core.ErrNoSuchRecord.
	Get(lid uint64) (*core.Record, error)
	// Scan calls fn for each stored record with minLId ≤ LId ≤ maxLId
	// (maxLId 0 = unbounded) in ascending LId order; fn returning false
	// stops the scan.
	Scan(minLId, maxLId uint64, fn func(*core.Record) bool) error
	// MaxLId returns the highest LId stored, or 0 if empty.
	MaxLId() uint64
	// Len returns the number of stored records.
	Len() int
	// GC removes records with LId ≤ upTo that are safe to drop,
	// returning how many were removed. Implementations may retain more
	// than asked (e.g. whole-segment granularity).
	GC(upTo uint64) (int, error)
	// Close releases resources; further operations fail with ErrClosed.
	Close() error
	// Durable reports whether AppendBatch implies stable storage on
	// return. The maintainer's durable watermark only advances over
	// stores that report true.
	Durable() bool
}

// MemStore is an in-memory Store used by simulations and as the index tier
// of the segment store. The zero value is not ready; use NewMemStore.
type MemStore struct {
	mu     sync.RWMutex
	byLId  map[uint64]*core.Record
	lids   []uint64 // sorted
	sorted bool
	closed bool
	max    uint64
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{byLId: make(map[uint64]*core.Record), sorted: true}
}

// Append implements Store.
func (s *MemStore) Append(r *core.Record) error {
	return s.AppendBatch([]*core.Record{r})
}

// AppendBatch implements Store.
func (s *MemStore) AppendBatch(rs []*core.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	for _, r := range rs {
		if r.LId == 0 {
			return errors.New("storage: record has no LId")
		}
		if _, ok := s.byLId[r.LId]; ok {
			return fmt.Errorf("%w: %d", ErrDuplicate, r.LId)
		}
	}
	for _, r := range rs {
		s.byLId[r.LId] = r
		s.lids = append(s.lids, r.LId)
		if len(s.lids) > 1 && r.LId < s.lids[len(s.lids)-2] {
			s.sorted = false
		}
		if r.LId > s.max {
			s.max = r.LId
		}
	}
	return nil
}

// Get implements Store.
func (s *MemStore) Get(lid uint64) (*core.Record, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	r, ok := s.byLId[lid]
	if !ok {
		return nil, core.ErrNoSuchRecord
	}
	return r, nil
}

// ensureSortedLocked sorts the lid slice if appends arrived out of order.
// Caller must hold the write lock or guarantee exclusion.
func (s *MemStore) ensureSorted() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.sorted {
		sort.Slice(s.lids, func(i, j int) bool { return s.lids[i] < s.lids[j] })
		s.sorted = true
	}
}

// Scan implements Store.
func (s *MemStore) Scan(minLId, maxLId uint64, fn func(*core.Record) bool) error {
	s.ensureSorted()
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	// Copy the window so fn runs without the lock held.
	i := sort.Search(len(s.lids), func(i int) bool { return s.lids[i] >= minLId })
	var window []*core.Record
	for ; i < len(s.lids); i++ {
		lid := s.lids[i]
		if maxLId != 0 && lid > maxLId {
			break
		}
		window = append(window, s.byLId[lid])
	}
	s.mu.RUnlock()
	for _, r := range window {
		if !fn(r) {
			return nil
		}
	}
	return nil
}

// Durable implements Store: memory does not survive a crash.
func (s *MemStore) Durable() bool { return false }

// MaxLId implements Store.
func (s *MemStore) MaxLId() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.max
}

// Len implements Store.
func (s *MemStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byLId)
}

// GC implements Store.
func (s *MemStore) GC(upTo uint64) (int, error) {
	s.ensureSorted()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	n := sort.Search(len(s.lids), func(i int) bool { return s.lids[i] > upTo })
	for _, lid := range s.lids[:n] {
		delete(s.byLId, lid)
	}
	s.lids = append([]uint64(nil), s.lids[n:]...)
	return n, nil
}

// Close implements Store.
func (s *MemStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}
