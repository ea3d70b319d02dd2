// Package harness regenerates every figure of the paper's evaluation
// (Figures 6–15 plus the in-text headline numbers) from this
// reproduction's runtimes and benchmark suite.
//
// Measurement strategy on the reference environment (a single-CPU
// host): everything the paper measures on one core — task-creation
// overheads, compilation/polling overheads, interrupt and promotion
// overheads, heartbeat delivery rates, task counts — is measured for
// real. At-scale results (speedups and utilization at 15 cores) are
// projected from the same instrumented single-core runs via the greedy
// scheduler bound T_P ≤ T₁/P + T∞, with T₁ (total task self time) and
// T∞ (critical-path span, including promotion latencies imposed by the
// modeled interrupt mechanism) measured during execution. DESIGN.md
// documents this substitution; EXPERIMENTS.md compares shapes against
// the paper per figure.
package harness

import (
	"fmt"
	"io"
	"time"

	"tpal/internal/bench"
	"tpal/internal/cilk"
	"tpal/internal/heartbeat"
	"tpal/internal/interrupt"
	"tpal/internal/stats"
)

// Options configures a harness session.
type Options struct {
	// Out receives the rendered tables.
	Out io.Writer
	// Scale multiplies benchmark input sizes (1.0 = defaults, which are
	// scaled down from the paper's 16-core inputs).
	Scale float64
	// Reps is the number of repetitions per measurement; the median run
	// is kept. Default 3.
	Reps int
	// Cores is the simulated machine size for at-scale figures.
	// Default 15, matching the paper's 15 worker cores.
	Cores int
	// Benchmarks optionally restricts the suite by name.
	Benchmarks []string
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Reps <= 0 {
		o.Reps = 3
	}
	if o.Cores <= 0 {
		o.Cores = 15
	}
	return o
}

// Session runs experiments, memoizing measurements so related figures
// (7, 11, 14, 15) share runs.
type Session struct {
	opt    Options
	benchs []bench.Benchmark

	serialSamples map[string][]time.Duration
	cilkR         map[string]cilk.Stats
	hbR           map[hbKey]heartbeat.Stats
}

type hbKey struct {
	bench     string
	mech      string
	heartbeat time.Duration
	promote   bool
}

// NewSession prepares benchmarks (running Setup and the serial reference
// lazily). It fails when Options.Benchmarks names an unknown benchmark.
func NewSession(opt Options) (*Session, error) {
	opt = opt.withDefaults()
	s := &Session{
		opt:           opt,
		serialSamples: make(map[string][]time.Duration),
		cilkR:         make(map[string]cilk.Stats),
		hbR:           make(map[hbKey]heartbeat.Stats),
	}
	if len(opt.Benchmarks) == 0 {
		s.benchs = bench.All()
	} else {
		for _, name := range opt.Benchmarks {
			b, err := bench.ByName(name)
			if err != nil {
				return nil, err
			}
			s.benchs = append(s.benchs, b)
		}
	}
	return s, nil
}

// Benchmarks returns the session's benchmark set.
func (s *Session) Benchmarks() []bench.Benchmark { return s.benchs }

func (s *Session) printf(format string, args ...any) {
	if s.opt.Out != nil {
		fmt.Fprintf(s.opt.Out, format, args...)
	}
}

// setup lazily prepares a benchmark's inputs and serial reference.
func (s *Session) setup(b bench.Benchmark) {
	if _, done := s.serialSamples[b.Name()]; done {
		return
	}
	b.Setup(s.opt.Scale)
	b.RunSerial() // untimed warmup: fault in pages, warm caches
	s.serialSamples[b.Name()] = nil
	for r := 0; r < s.opt.Reps; r++ {
		s.timeSerialOnce(b)
	}
}

// timeSerialOnce times one serial run and records the sample. Parallel
// measurements call this too, interleaving serial re-timings with their
// own reps: on shared hosts, background steal time hits temporally
// clustered samples together, and interleaving keeps a noisy window from
// distorting the serial baseline (or any one variant) alone.
func (s *Session) timeSerialOnce(b bench.Benchmark) {
	t0 := time.Now()
	b.RunSerial()
	s.serialSamples[b.Name()] = append(s.serialSamples[b.Name()], time.Since(t0))
}

// Serial returns the benchmark's serial reference time: the median of
// every interleaved sample. Medians, unlike minima, do not drift with
// sample count, so the serial baseline (sampled alongside every parallel
// measurement) and the parallel configurations (sampled Reps times) stay
// comparable on noisy hosts.
func (s *Session) Serial(b bench.Benchmark) time.Duration {
	s.setup(b)
	samples := s.serialSamples[b.Name()]
	xs := make([]float64, len(samples))
	for i, d := range samples {
		xs[i] = d.Seconds()
	}
	return time.Duration(stats.Median(xs) * 1e9)
}

// Cilk measures the Cilk-style variant on one real core with the grain
// heuristic tuned for the simulated machine size.
func (s *Session) Cilk(b bench.Benchmark) cilk.Stats {
	s.setup(b)
	if st, ok := s.cilkR[b.Name()]; ok {
		return st
	}
	var runs []cilk.Stats
	for r := 0; r < s.opt.Reps; r++ {
		st := cilk.Run(cilk.Config{Workers: 1, HeuristicWorkers: s.opt.Cores}, func(c *cilk.Ctx) {
			b.RunCilk(c)
		})
		if err := b.Verify(); err != nil {
			panic(fmt.Sprintf("harness: cilk %s failed verification: %v", b.Name(), err))
		}
		runs = append(runs, st)
		s.timeSerialOnce(b)
	}
	med := medianRun(runs, func(st cilk.Stats) time.Duration { return st.Elapsed })
	s.cilkR[b.Name()] = med
	return med
}

// medianRun picks the run with the median elapsed time, so the reported
// statistics (work, span, task counts) all come from one representative
// execution.
func medianRun[T any](runs []T, elapsed func(T) time.Duration) T {
	idx := make([]int, len(runs))
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && elapsed(runs[idx[j-1]]) > elapsed(runs[idx[j]]); j-- {
			idx[j-1], idx[j] = idx[j], idx[j-1]
		}
	}
	return runs[idx[len(idx)/2]]
}

// MechProfile names the modeled interrupt mechanisms.
type MechProfile string

// Mechanism names.
const (
	MechNone     MechProfile = "none"
	MechLinux    MechProfile = "linux-ping"
	MechPAPI     MechProfile = "linux-papi"
	MechNautilus MechProfile = "nautilus"
)

func (s *Session) mechanism(p MechProfile) interrupt.Mechanism {
	switch p {
	case MechLinux:
		return interrupt.NewVirtualSim(interrupt.LinuxPingThread, s.opt.Cores)
	case MechPAPI:
		return interrupt.NewVirtualSim(interrupt.LinuxPAPI, s.opt.Cores)
	case MechNautilus:
		return interrupt.NewVirtualSim(interrupt.Nautilus, s.opt.Cores)
	default:
		return interrupt.None{}
	}
}

// Heartbeat measures the TPAL variant on one real core under the given
// mechanism model and ♥, with or without promotions enabled.
func (s *Session) Heartbeat(b bench.Benchmark, mech MechProfile, hb time.Duration, promote bool) heartbeat.Stats {
	s.setup(b)
	key := hbKey{bench: b.Name(), mech: string(mech), heartbeat: hb, promote: promote}
	if st, ok := s.hbR[key]; ok {
		return st
	}
	var runs []heartbeat.Stats
	for r := 0; r < s.opt.Reps; r++ {
		st := heartbeat.Run(heartbeat.Config{
			Workers:          1,
			Heartbeat:        hb,
			Mechanism:        s.mechanism(mech),
			DisablePromotion: !promote,
		}, func(c *heartbeat.Ctx) {
			b.RunHeartbeat(c)
		})
		if err := b.Verify(); err != nil {
			panic(fmt.Sprintf("harness: heartbeat %s failed verification: %v", b.Name(), err))
		}
		runs = append(runs, st)
		s.timeSerialOnce(b)
	}
	med := medianRun(runs, func(st heartbeat.Stats) time.Duration { return st.Elapsed })
	s.hbR[key] = med
	return med
}

// SerialWithInterrupts measures the serial-program-plus-interrupts
// configuration of Figures 9/13: the TPAL binary with promotion disabled
// under a live mechanism, paying poll and handler costs only.
func (s *Session) SerialWithInterrupts(b bench.Benchmark, mech MechProfile, hb time.Duration) heartbeat.Stats {
	return s.Heartbeat(b, mech, hb, false)
}

// geomeansByKind returns (iterative, recursive) geometric means of a
// per-benchmark metric.
func (s *Session) geomeansByKind(metric func(bench.Benchmark) float64) (float64, float64) {
	var it, rec []float64
	for _, b := range s.benchs {
		v := metric(b)
		if b.Kind() == bench.Recursive {
			rec = append(rec, v)
		} else {
			it = append(it, v)
		}
	}
	return stats.Geomean(it), stats.Geomean(rec)
}
