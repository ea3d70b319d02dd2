// Command tpal-trace records and inspects runtime traces.
//
// Two modes:
//
//	tpal-trace -bench mergesort-uniform          # trace one benchmark run
//	tpal-trace -bench plus-reduce-array -chrome trace.json
//	tpal-trace -prog prod                        # machine trace vs static bound
//
// -bench runs a benchmark under heartbeat scheduling with the tracer
// attached and prints the per-worker timeline, lane summaries, and the
// promotion service-latency histogram; -chrome additionally exports the
// trace in Chrome trace_event JSON (load via chrome://tracing or
// Perfetto).
//
// -prog runs a corpus TPAL program on the abstract machine with the
// tracer attached and cross-checks the observed promotion-gap histogram
// against the static TP050 latency bound from internal/tpal/analysis:
// for latency-finite programs the max observed gap must not exceed the
// proved bound, and the command exits nonzero if it does.
//
// What the tracer costs is not measured here: the front-door benchmark
// reports it as trace.overhead_ratio on the native-kernels workload
// (DESIGN.md §11).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"tpal/internal/bench"
	"tpal/internal/heartbeat"
	"tpal/internal/interrupt"
	"tpal/internal/tpal"
	"tpal/internal/tpal/analysis"
	"tpal/internal/tpal/machine"
	"tpal/internal/tpal/programs"
	"tpal/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("tpal-trace", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		benchName = fs.String("bench", "", "benchmark to trace (see tpal-bench -list)")
		progName  = fs.String("prog", "", "corpus program to trace on the abstract machine (prod, pow, fib)")
		chrome    = fs.String("chrome", "", "export the trace as Chrome trace_event JSON to this file")
		workers   = fs.Int("workers", 1, "scheduler workers for -bench")
		scale     = fs.Float64("scale", 1.0, "benchmark input scale multiplier")
		hbMachine = fs.Int64("hb", 8, "abstract-machine heartbeat in instructions for -prog")
		capacity  = fs.Int("cap", 0, "per-lane ring capacity in events (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	switch {
	case *benchName != "" && *workers < 1:
		// The tracer needs one lane per worker, so the count cannot be
		// left for the runtime to pick.
		fmt.Fprintln(out, "tpal-trace: -workers must be at least 1")
		return 2
	case *benchName != "":
		return runBench(out, *benchName, *workers, *scale, *capacity, *chrome)
	case *progName != "":
		return runProg(out, *progName, *hbMachine, *capacity, *chrome)
	}
	fmt.Fprintln(out, "tpal-trace: one of -bench or -prog is required")
	fs.Usage()
	return 2
}

// runBench traces one heartbeat-scheduled benchmark run and prints the
// timeline.
func runBench(out io.Writer, name string, workers int, scale float64, capacity int, chromePath string) int {
	b, err := bench.ByName(name)
	if err != nil {
		fmt.Fprintln(out, err)
		return 1
	}
	b.Setup(scale)
	b.RunSerial() // establish the verification reference

	tr := trace.New(workers, capacity)
	st := heartbeat.Run(heartbeat.Config{
		Workers:   workers,
		Mechanism: interrupt.NewPingThread(),
		Tracer:    tr,
	}, b.RunHeartbeat)
	if err := b.Verify(); err != nil {
		fmt.Fprintf(out, "verification failed: %v\n", err)
		return 1
	}

	d := tr.Drain()
	tl := trace.BuildTimeline(d)
	fmt.Fprintf(out, "%s: %v wall, %d promotions, work %v span %v\n\n",
		name, st.Elapsed.Round(time.Microsecond), st.Promotions,
		time.Duration(st.WorkNanos).Round(time.Microsecond),
		time.Duration(st.SpanNanos).Round(time.Microsecond))
	tl.WriteText(out)

	if lat := trace.ServiceLatencies(d); len(lat) > 0 {
		fmt.Fprint(out, "\npromotion service latency (beat observed -> promotion):\n")
		buckets, maxLat := trace.HistogramOf(lat)
		trace.WriteHistogram(out, buckets[:], "ns")
		fmt.Fprintf(out, "max observed service latency: %v\n", time.Duration(maxLat))
	}
	if chromePath != "" {
		if err := writeChromeFile(chromePath, d); err != nil {
			fmt.Fprintln(out, err)
			return 1
		}
		fmt.Fprintf(out, "\nchrome trace written to %s (%d events, %d dropped)\n",
			chromePath, len(d.Events), d.Dropped)
	}
	return 0
}

// corpusEntry pairs a corpus program with machine-ready entry registers
// (the same files the analysis test suite uses).
type corpusEntry struct {
	name string
	prog *tpal.Program
	regs machine.RegFile
}

func corpus() []corpusEntry {
	return []corpusEntry{
		{"prod", programs.Prod(), machine.RegFile{"a": machine.IntV(9), "b": machine.IntV(4)}},
		{"pow", programs.Pow(), machine.RegFile{"d": machine.IntV(2), "e": machine.IntV(6)}},
		{"fib", programs.Fib(), machine.RegFile{"n": machine.IntV(9)}},
	}
}

func corpusByName(name string) (corpusEntry, error) {
	for _, c := range corpus() {
		if c.name == name {
			return c, nil
		}
	}
	return corpusEntry{}, fmt.Errorf("tpal-trace: unknown corpus program %q (want prod, pow, or fib)", name)
}

// gapCheck is one program's observed-vs-proved promotion-latency result.
type gapCheck struct {
	Program     string
	Class       string
	StaticBound int64
	MaxObserved int64
	Promotions  int64
	// WithinBound is the hard check for latency-finite programs; for
	// stack-bounded classes the bound is per consumed frame, not global,
	// so the class alone is verified and WithinBound is reported true.
	WithinBound bool
}

// checkGap runs one corpus program on the machine with the tracer
// attached and compares the observed promotion-gap maximum against the
// static liveness bound.
func checkGap(c corpusEntry, hb int64, capacity int) (gapCheck, *trace.Trace, error) {
	entry := make([]tpal.Reg, 0, len(c.regs))
	for r := range c.regs {
		entry = append(entry, r)
	}
	rep := analysis.Analyze(c.prog, analysis.Options{EntryRegs: entry})
	if len(rep.Diags) != 0 {
		return gapCheck{}, nil, fmt.Errorf("%s: analysis diagnostics: %v", c.name, rep.Diags)
	}

	tr := trace.New(1, capacity)
	res, err := machine.Run(c.prog, machine.Config{
		Heartbeat: hb,
		Regs:      c.regs,
		Trace:     machine.Record(tr),
	})
	if err != nil {
		return gapCheck{}, nil, fmt.Errorf("%s: machine: %w", c.name, err)
	}
	d := tr.Drain()

	g := gapCheck{
		Program:     c.name,
		Class:       rep.Latency.Class.String(),
		StaticBound: rep.Latency.Bound,
		MaxObserved: d.MaxGap,
		Promotions:  res.Stats.HandlerRuns,
		WithinBound: true,
	}
	if rep.Latency.Class == analysis.LatencyFinite && d.MaxGap > rep.Latency.Bound {
		g.WithinBound = false
	}
	return g, d, nil
}

// runProg traces one corpus program on the abstract machine and checks
// the observed gaps against the static bound.
func runProg(out io.Writer, name string, hb int64, capacity int, chromePath string) int {
	c, err := corpusByName(name)
	if err != nil {
		fmt.Fprintln(out, err)
		return 1
	}
	g, d, err := checkGap(c, hb, capacity)
	if err != nil {
		fmt.Fprintln(out, err)
		return 1
	}

	fmt.Fprintf(out, "%s: latency %s(%d), observed max gap %d over %d promotions\n",
		g.Program, g.Class, g.StaticBound, g.MaxObserved, g.Promotions)
	fmt.Fprintln(out, "\npromotion-gap histogram (machine steps between promotion-ready points):")
	writeGapHist(out, d)
	if chromePath != "" {
		if err := writeChromeFile(chromePath, d); err != nil {
			fmt.Fprintln(out, err)
			return 1
		}
		fmt.Fprintf(out, "\nchrome trace written to %s\n", chromePath)
	}
	if !g.WithinBound {
		fmt.Fprintf(out, "\nFAIL: observed gap %d exceeds the static bound %d\n", g.MaxObserved, g.StaticBound)
		return 1
	}
	fmt.Fprint(out, "\nPASS: observed gaps respect the static bound\n")
	return 0
}

// writeGapHist prints the nonzero log2 promotion-gap buckets, each
// labelled with its lower bound.
func writeGapHist(out io.Writer, d *trace.Trace) {
	for i, n := range d.GapHist {
		if n != 0 {
			fmt.Fprintf(out, "  >=%-6d %d\n", int64(1)<<i, n)
		}
	}
}

func writeChromeFile(path string, d *trace.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, d); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
