package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
)

const bodySize = 256

// mix is splitmix64's finalizer.
func mix(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// body is the generated payload of operation id: the id, then words derived
// from (seed, id), so a read-back can be checked against the operation
// that wrote it.
func body(seed int64, id uint64) []byte {
	b := make([]byte, bodySize)
	binary.LittleEndian.PutUint64(b, id)
	w := mix(uint64(seed) ^ mix(id))
	for off := 8; off < bodySize; off += 8 {
		binary.LittleEndian.PutUint64(b[off:], w)
		w = mix(w)
	}
	return b
}

// bodyOK reports whether b is the payload operation id generated.
func bodyOK(seed int64, id uint64, b []byte) bool {
	if len(b) != bodySize || binary.LittleEndian.Uint64(b) != id {
		return false
	}
	w := mix(uint64(seed) ^ mix(id))
	for off := 8; off < bodySize; off += 8 {
		if binary.LittleEndian.Uint64(b[off:]) != w {
			return false
		}
		w = mix(w)
	}
	return true
}

// bodyID returns the operation id a payload carries.
func bodyID(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// checkScan verifies a 256-record range scan from lo: dense LIds in order,
// each payload intact. (Which operation wrote each LId is checked once, in
// the read-back after the run.)
func checkScan(seed int64, lo uint64, recs []*core.Record) error {
	if len(recs) != scanWidth {
		return fmt.Errorf("scan from LId %d returned %d records, want %d", lo, len(recs), scanWidth)
	}
	for k, r := range recs {
		if r.LId != lo+uint64(k) || !bodyOK(seed, bodyID(r.Body), r.Body) {
			return fmt.Errorf("scan from LId %d: position %d holds LId %d with a payload that fails its check", lo, k, r.LId)
		}
	}
	return nil
}

// poisson returns the intended start offsets of a Poisson arrival stream
// of the given rate over dur (none at rate 0).
func poisson(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	if rate <= 0 {
		return out
	}
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

// lagLog collects how late an open-loop generator started its operations.
type lagLog struct {
	mu  sync.Mutex
	lag []float64 // µs
}

func (l *lagLog) add(d time.Duration) {
	l.mu.Lock()
	l.lag = append(l.lag, float64(d)/1e3)
	l.mu.Unlock()
}

// openLoop starts op(i, intended) at start+offs[i], each in its own
// goroutine so a slow operation never delays the next one, and returns once
// every operation has finished. Latency is the caller's to take from
// intended, which charges a stalled generator to the operations it delayed.
// The runtime's timers can oversleep a sub-millisecond wait by up to about a
// millisecond; that lag is part of every latency and is reported.
func openLoop(start time.Time, offs []time.Duration, lag *lagLog, op func(i int, intended time.Time)) {
	var wg sync.WaitGroup
	for i, off := range offs {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lag.add(time.Since(due))
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			op(i, due)
		}(i, due)
	}
	wg.Wait()
}

// loopStats summarises a closed-loop phase.
type loopStats struct {
	started, completed, failed int64
	// rates are completions per second in each tenth of the phase; their
	// median is robust to a transient stall.
	rates []float64
}

const rateSlices = 10

// closedLoop runs window workers, each calling op back to back until dur
// has passed. Operations in flight at the deadline finish before it returns
// but do not count as completed.
func closedLoop(dur time.Duration, window int, op func(worker int) error) loopStats {
	var st, done, fail atomic.Int64
	buckets := make([]atomic.Int64, rateSlices)
	slice := dur / rateSlices
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < window; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				st.Add(1)
				err := op(w)
				at := time.Since(start)
				if err != nil {
					fail.Add(1)
				} else if at < dur {
					done.Add(1)
					if i := int(at / slice); i < len(buckets) {
						buckets[i].Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	ls := loopStats{started: st.Load(), completed: done.Load(), failed: fail.Load()}
	for i := range buckets {
		ls.rates = append(ls.rates, float64(buckets[i].Load())/slice.Seconds())
	}
	return ls
}

// closedLoopN runs window workers, each calling op back to back, until n
// operations have been started and all have finished. Its rates are
// completions per second over each tenth of the n operations.
func closedLoopN(n int64, window int, op func(worker int) error) loopStats {
	var st, fail atomic.Int64
	var mu sync.Mutex
	var done int64
	var marks []time.Duration // when each tenth of the operations had completed
	per := max(n/rateSlices, 1)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < window; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for st.Add(1) <= n {
				if err := op(w); err != nil {
					fail.Add(1)
					continue
				}
				mu.Lock()
				done++
				if done%per == 0 {
					marks = append(marks, time.Since(start))
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	ls := loopStats{started: n, completed: done, failed: fail.Load()}
	prev := time.Duration(0)
	for _, m := range marks {
		ls.rates = append(ls.rates, float64(per)/(m-prev).Seconds())
		prev = m
	}
	return ls
}

// samples is a concurrency-safe list of latencies in milliseconds.
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.v = append(s.v, float64(d)/1e6)
	s.mu.Unlock()
}

func (s *samples) values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.v...)
}

// quantile returns the nearest-rank q-quantile of xs (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB returns the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
