// Command perfbench is the repository benchmark. It stands up one
// workload's deployment inside this process on loopback TCP, drives it from
// a seeded generator through the program's own client handles, checks every
// output, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics from timing wrappers at the program's interface seams)
// as the last line of standard output.
//
//	go run . -workload append-durable -seed 1 -seconds 36 -trace 0 -workdir scratch
//
// BENCHMARK.json at the repository root lists the workloads and metrics;
// README.md in this directory defines them. perfbench/run.py builds and
// runs this command from the root of a checkout.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/trace"
)

// maxLagP99 is the generator honesty bound: a run whose open-loop
// generator started its 99th-percentile operation later than this behind
// schedule is rejected rather than reported. Timer slack keeps the median
// lag near 0.5ms and host stalls put the 99th percentile at 1-15ms; a
// generator that cannot keep up falls behind by far more.
const maxLagP99 = 50 * time.Millisecond

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// A run repeats its phases in rounds. Medians and rates are the median of
// their per-round values; p99s pool the rounds' samples.
//
// The p99s, read_p50_ms and the failure ratio are printed on the report
// line, not as bounded metrics. On a shared 2-vCPU host the run-to-run
// spread (interquartile range over median) of the p99s is 0.2 to over 1,
// and that of read-tail's read_p50_ms about 0.3: point reads queue behind
// durable appends on the shared per-maintainer connection. Both are wider
// than any bound a regression check could use. The failure ratio is 0 on a
// correct run.

type window struct{ s, e int64 } // recorder nanoseconds

// windows is one phase's per-round intervals.
type windows []window

type phaseSpans struct{ a, b, c windows }

var e2eUnits = map[string]string{
	"setup_s": "s", "max_rss_mb": "MiB",
	"append_p50_ms": "ms", "append_ops_per_s": "records/s",
	"read_p50_ms": "ms", "scan_records_per_s": "records/s", "visible_p50_ms": "ms",
}

// reportOnly per-round metrics go on the report line (see above).
var reportOnly = map[string]bool{"read_p50_ms": true}

// boundedE2E lists the end-to-end metrics every untraced run reports.
func boundedE2E() []string {
	names := []string{"cpu_us_per_op"}
	for name := range e2eUnits {
		if !reportOnly[name] {
			names = append(names, name)
		}
	}
	return names
}

// runOut is what a workload run hands back: its metrics plus the counts the
// per-layer metrics are normalised by.
type runOut struct {
	e2e       map[string]metric
	unbounded map[string]metric // reported on the report line only
	layers    map[string]metric
	perRound  map[string][]float64
	pooled    map[string][]float64 // latency samples of every round, ms
	samples   map[string]int       // samples behind each latency and rate, summed over rounds
	lag       lagLog
	attempted int64
	failed    int64

	visibleCount int           // phase A appends seen visible
	readsA       int64         // phase A point reads completed
	opsB         int64         // phase B appends acknowledged
	doneB        int64         // phase B appends completed before each deadline
	cpuB         time.Duration // process CPU during phase B
	fsyncsB      uint64        // fsyncs during phase B
	diskB        int64         // bytes written to segment files during phase B
	rejected     uint64        // records maintainers turned away
	applyLagMax  uint64        // geo: largest applied-TOId gap between origin and remote
	creditsMax   uint64        // geo: pipeline credit high-water mark

	probeOn, probeOff []float64 // one-op-in-flight latencies, ns
	probeOps          []window  // traced probe operations
}

func newRunOut() *runOut {
	return &runOut{e2e: make(map[string]metric), unbounded: make(map[string]metric), layers: make(map[string]metric),
		perRound: make(map[string][]float64), pooled: make(map[string][]float64),
		samples: make(map[string]int)}
}

func (o *runOut) setE2E(name string, v float64, unit string) { o.e2e[name] = metric{v, unit} }

// round records one round's value of an end-to-end metric.
func (o *runOut) round(name string, v float64) { o.perRound[name] = append(o.perRound[name], v) }

// latencies records one round's latencies of an operation: its p50 joins
// the per-round medians, and the samples join the pool the p99 is taken
// from (every round's samples, so the p99 rests on 30 or more beyond it).
// A workload without the operation records nothing.
func (o *runOut) latencies(op string, ms []float64) {
	if len(ms) == 0 {
		return
	}
	o.round(op+"_p50_ms", quantile(ms, 0.5))
	o.pooled[op] = append(o.pooled[op], ms...)
}

// closed records one round's closed-loop rate: the median over the
// phase's slices of completions per second, times the records each
// operation carries.
func (o *runOut) closed(name string, ls loopStats, per float64) {
	o.round(name, median(ls.rates)*per)
	o.samples[name] += int(ls.completed)
}

// finishRounds reports every per-round metric as its median, every pooled
// latency's p99, and the CPU per append over all of phase B.
func (o *runOut) finishRounds() {
	o.setE2E("cpu_us_per_op", float64(o.cpuB)/1e3/float64(max(o.doneB, 1)), "us")
	for name, vs := range o.perRound {
		m := metric{median(vs), e2eUnits[name]}
		if reportOnly[name] {
			o.unbounded[name] = m
		} else {
			o.e2e[name] = m
		}
	}
	for op, ms := range o.pooled {
		o.unbounded[op+"_p99_ms"] = metric{quantile(ms, 0.99), "ms"}
		o.samples[op] = len(ms)
	}
}

// probe runs op back to back in ten blocks of 40, alternating the recorder
// off and on. The blocks give the tracing overhead; the traced operations'
// spans, attributed unambiguously by containment with one operation in
// flight, give the span coverage.
func (o *runOut) probe(rec *recorder, op func(i int) error) error {
	defer rec.on.Store(false)
	for b := 0; b < 10; b++ {
		traced := b%2 == 1
		rec.on.Store(traced)
		for k := 0; k < 40; k++ {
			s, t0 := rec.now(), time.Now()
			if err := op(b*40 + k); err != nil {
				return fmt.Errorf("probe: %w", err)
			}
			d := float64(time.Since(t0))
			if traced {
				o.probeOn = append(o.probeOn, d)
				o.probeOps = append(o.probeOps, window{s, rec.now()})
			} else {
				o.probeOff = append(o.probeOff, d)
			}
		}
	}
	return nil
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]bool{"append-durable": true, "read-tail": true, "geo-2dc": true}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		cfg     config
		traceOn int
		commit  string
		spans   string
	)
	flag.StringVar(&cfg.workload, "workload", "", "append-durable | read-tail | geo-2dc")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: arrival schedules, read targets and payloads derive from it")
	flag.IntVar(&cfg.seconds, "seconds", 36, "measured seconds, split across the workload's phases")
	flag.IntVar(&traceOn, "trace", 0, "1 = install the seam wrappers and report per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", "", "scratch directory for segment stores (removed at exit)")
	flag.StringVar(&commit, "commit", "unknown", "source revision, recorded on the report line")
	flag.StringVar(&spans, "spans", "", "with -trace 1, write every recorded span to this CSV file")
	flag.Parse()
	cfg.trace = traceOn == 1
	if !workloads[cfg.workload] || cfg.seconds < 1 || (traceOn != 0 && traceOn != 1) || cfg.workdir == "" {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload append-durable|read-tail|geo-2dc, -seconds >= 1, -trace 0|1, -workdir")
		return 2
	}
	// The program's own tracer stays off: its 50ms slow-op force-sampler
	// would otherwise fire on closed-loop appends and the benchmark would
	// measure the flight recorder.
	trace.SetSampling(0)
	trace.SetSlowOpThreshold(0)
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.workdir)

	out, rec, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	lag := out.lag.lag
	late99 := quantile(lag, 0.99)
	if late99 > float64(maxLagP99.Microseconds()) {
		fmt.Fprintf(os.Stderr, "perfbench: generator fell behind: p99 lateness %.0fus > bound %s; run rejected\n", late99, maxLagP99)
		return 1
	}
	metrics := out.e2e
	if cfg.trace {
		metrics = out.layers
		metrics["gen.late_us.p99"] = metric{late99, "us"}
		if spans != "" {
			if err := rec.writeCSV(spans); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
				return 1
			}
		}
	}
	if !cfg.trace {
		for _, name := range boundedE2E() {
			if _, ok := metrics[name]; !ok {
				fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", name)
				return 1
			}
		}
	}
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s has no value\n", name)
			return 1
		}
		if !cfg.trace && m.Value <= 0 {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", name, m.Value)
			return 1
		}
	}
	fsync := "SyncGroupCommit"
	if cfg.workload == "geo-2dc" {
		fsync = "none (in-memory stores)"
	}
	if !cfg.trace {
		out.unbounded["fail_ratio"] = metric{float64(out.failed) / float64(max(out.attempted, 1)), "ratio"}
	}
	report, _ := json.Marshal(map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": traceOn,
		"commit": commit, "go": runtime.Version(), "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "fsync": fsync, "samples": out.samples,
		"generator_late_us": map[string]float64{
			"p50": quantile(lag, 0.5), "p99": late99, "max": quantile(lag, 1), "bound_p99": float64(maxLagP99.Microseconds()),
		},
		"unbounded": out.unbounded, "rounds": out.perRound,
	})
	fmt.Printf("perfbench report %s\n", report)
	line, err := json.Marshal(result{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func runWorkload(cfg config) (*runOut, *recorder, error) {
	switch cfg.workload {
	case "append-durable", "read-tail":
		p := appendDurable
		if cfg.workload == "read-tail" {
			p = readTail
		}
		r := &flRun{cfg: cfg, p: p, out: newRunOut()}
		if err := r.run(); err != nil {
			return nil, nil, err
		}
		return r.out, r.rec, nil
	case "geo-2dc":
		r := &geoRun{cfg: cfg, out: newRunOut()}
		if err := r.run(); err != nil {
			return nil, nil, err
		}
		return r.out, r.rec, nil
	}
	return nil, nil, errors.New("unknown workload")
}
