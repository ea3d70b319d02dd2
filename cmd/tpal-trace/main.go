// Command tpal-trace records and inspects runtime traces.
//
// Three modes:
//
//	tpal-trace -bench mergesort-uniform          # trace one benchmark run
//	tpal-trace -bench plus-reduce-array -chrome trace.json
//	tpal-trace -prog prod                        # machine trace vs static bound
//	tpal-trace -bench-rt -out BENCH_rt.json      # canonical perf baseline
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
// -bench-rt is the canonical `make bench-rt` entry: it runs
// plus-reduce-array and mergesort-uniform with the tracer disabled and
// enabled, the corpus gap check, and writes BENCH_rt.json. It exits
// nonzero if the disabled-vs-enabled tracer delta on plus-reduce-array
// exceeds 5% (the overhead contract of DESIGN.md §11) or a gap check
// fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"time"

	"tpal/internal/bench"
	"tpal/internal/heartbeat"
	"tpal/internal/interrupt"
	"tpal/internal/minipar"
	"tpal/internal/tpal"
	"tpal/internal/tpal/analysis"
	"tpal/internal/tpal/machine"
	"tpal/internal/tpal/machine/compile"
	"tpal/internal/tpal/opt"
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
		benchRT   = fs.Bool("bench-rt", false, "run the canonical runtime baseline and write BENCH_rt.json")
		outPath   = fs.String("out", "BENCH_rt.json", "output path for -bench-rt")
		chrome    = fs.String("chrome", "", "export the trace as Chrome trace_event JSON to this file")
		workers   = fs.Int("workers", 1, "scheduler workers for -bench/-bench-rt")
		scale     = fs.Float64("scale", 1.0, "benchmark input scale multiplier")
		reps      = fs.Int("reps", 3, "repetitions per measurement (minimum kept)")
		hbMachine = fs.Int64("hb", 8, "abstract-machine heartbeat in instructions for -prog")
		capacity  = fs.Int("cap", 0, "per-lane ring capacity in events (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	switch {
	case *benchRT:
		return runBenchRT(out, *outPath, *workers, *scale, *reps, *capacity)
	case *benchName != "":
		return runBench(out, *benchName, *workers, *scale, *capacity, *chrome)
	case *progName != "":
		return runProg(out, *progName, *hbMachine, *capacity, *chrome)
	}
	fmt.Fprintln(out, "tpal-trace: one of -bench, -prog, or -bench-rt is required")
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
	Program     string `json:"program"`
	Class       string `json:"latency_class"`
	StaticBound int64  `json:"static_bound"`
	MaxObserved int64  `json:"max_observed_gap"`
	Promotions  int64  `json:"promotions"`
	// WithinBound is the hard check for latency-finite programs; for
	// stack-bounded classes the bound is per consumed frame, not global,
	// so the class alone is verified and WithinBound is reported true.
	WithinBound bool             `json:"within_bound"`
	GapHist     map[string]int64 `json:"gap_hist,omitempty"`
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
		Tracer:    tr,
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
		GapHist:     d.GapHistMap(),
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
	writeGapHist(out, g.GapHist)
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

func writeGapHist(out io.Writer, hist map[string]int64) {
	keys := make([]int64, 0, len(hist))
	for k := range hist {
		var v int64
		fmt.Sscanf(k, "%d", &v)
		keys = append(keys, v)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		fmt.Fprintf(out, "  >=%-6d %d\n", k, hist[fmt.Sprintf("%d", k)])
	}
}

// rtResult is one benchmark's row in BENCH_rt.json.
type rtResult struct {
	Name           string  `json:"name"`
	WallSerialNS   int64   `json:"wall_serial_ns"`
	WallDisabledNS int64   `json:"wall_tracer_disabled_ns"`
	WallEnabledNS  int64   `json:"wall_tracer_enabled_ns"`
	TracerDelta    float64 `json:"tracer_delta"` // (enabled-disabled)/disabled
	WorkNS         int64   `json:"work_ns"`
	SpanNS         int64   `json:"span_ns"`
	Promotions     int64   `json:"promotions"`
	Utilization    float64 `json:"utilization"`
	TraceEvents    int     `json:"trace_events"`
	TraceDropped   int64   `json:"trace_dropped"`
	HeartbeatsSeen int64   `json:"heartbeats_seen"`
	TasksCreated   int64   `json:"tasks_created"`
}

// benchRTDoc is the schema of BENCH_rt.json.
type benchRTDoc struct {
	GeneratedBy string `json:"generated_by"`
	Config      struct {
		Workers   int     `json:"workers"`
		Scale     float64 `json:"scale"`
		Reps      int     `json:"reps"`
		Mechanism string  `json:"mechanism"`
	} `json:"config"`
	Benchmarks []rtResult `json:"benchmarks"`
	// MachineBackend is the interp-vs-compiled wall comparison over the
	// abstract-machine kernels, with the interpreted and compiled walls
	// as separate fields per row (sanitizer off and on).
	MachineBackend []backendRow `json:"machine_backend"`
	CorpusGaps     []gapCheck   `json:"corpus_gap_check"`
	OptDeltas      []optCheck   `json:"optimizer_delta"`
	OverheadGate   struct {
		Benchmark string  `json:"benchmark"`
		Limit     float64 `json:"limit"`
		Delta     float64 `json:"delta"`
		Pass      bool    `json:"pass"`
	} `json:"overhead_gate"`
	// BackendGate enforces the dispatch contract: the compiled backend's
	// cost per step on the plus-reduce-array machine kernel (sanitizer
	// off) must be no worse than the baseline this run replaces, beyond
	// measured noise.
	BackendGate backendGate `json:"backend_gate"`
}

// backendGate is the compiled-dispatch regression gate. It is stated
// on the compiled backend's own ns/step, never as a ratio to the
// interpreter: both lowerings run on one engine, so an engine
// improvement speeds the reference up too and would trip a ratio floor
// without the compiled backend having slowed at all.
type backendGate struct {
	Benchmark string  `json:"benchmark"`
	NSPerStep float64 `json:"ns_per_step"`
	// BaselineNSPerStep is the same measurement from the file being
	// overwritten, when it exists and was taken at the same scale; zero
	// means there was nothing comparable and the gate passes vacuously.
	BaselineNSPerStep float64 `json:"baseline_ns_per_step"`
	// Tolerance is the allowed relative excess over the baseline: this
	// run's own lap-to-lap spread on the compiled backend, floored at
	// backendNoiseFloor.
	Tolerance float64 `json:"tolerance"`
	Pass      bool    `json:"pass"`
}

// backendNoiseFloor is the least run-to-run variation the gate assumes
// for a min-of-reps wall on a shared box, whatever one run's laps show.
const backendNoiseFloor = 0.10

// gateBackend evaluates the dispatch gate for this run's first kernel
// row against the baseline document being replaced (nil when none).
func gateBackend(row backendRow, scale float64, baseline *benchRTDoc) backendGate {
	g := backendGate{
		Benchmark: row.Name,
		NSPerStep: row.compiledNSPerStep(),
		Tolerance: max(row.CompiledSpread, backendNoiseFloor),
		Pass:      true,
	}
	if baseline != nil && baseline.Config.Scale == scale {
		for _, b := range baseline.MachineBackend {
			if b.Name == row.Name {
				g.BaselineNSPerStep = b.compiledNSPerStep()
			}
		}
	}
	if g.BaselineNSPerStep > 0 {
		g.Pass = g.NSPerStep <= g.BaselineNSPerStep*(1+g.Tolerance)
	}
	return g
}

// optCheck is one corpus program's certified-optimizer delta: the same
// heartbeat run (race sanitizer on) executed on the submitted and the
// optimized form. The certifier guarantees the result registers agree;
// the step delta is the measured payoff.
type optCheck struct {
	Program     string `json:"program"`
	Rewrites    int    `json:"rewrites"`
	StepsBefore int64  `json:"steps_before"`
	StepsAfter  int64  `json:"steps_after"`
	// Delta is (after-before)/before: negative means the optimized form
	// runs fewer machine steps.
	Delta float64 `json:"delta"`
}

// checkOpt measures one corpus program's optimizer delta under the same
// heartbeat as the gap check, with the determinacy-race sanitizer on.
func checkOpt(c corpusEntry, hb int64) (optCheck, error) {
	entry := make([]tpal.Reg, 0, len(c.regs))
	for r := range c.regs {
		entry = append(entry, r)
	}
	res, err := opt.Optimize(c.prog, opt.Options{EntryRegs: entry})
	if err != nil {
		return optCheck{}, fmt.Errorf("%s: optimize: %w", c.name, err)
	}
	cfg := machine.Config{Heartbeat: hb, RaceDetect: true, Regs: c.regs}
	before, err := machine.Run(c.prog, cfg)
	if err != nil {
		return optCheck{}, fmt.Errorf("%s: machine (submitted): %w", c.name, err)
	}
	after, err := machine.Run(res.Program, cfg)
	if err != nil {
		return optCheck{}, fmt.Errorf("%s: machine (optimized): %w", c.name, err)
	}
	o := optCheck{
		Program:     c.name,
		Rewrites:    res.Rewrites(),
		StepsBefore: before.Stats.Steps,
		StepsAfter:  after.Stats.Steps,
	}
	if o.StepsBefore > 0 {
		o.Delta = float64(o.StepsAfter-o.StepsBefore) / float64(o.StepsBefore)
	}
	return o, nil
}

// overheadLimit is the disabled-vs-enabled tracer delta the bench-rt
// gate enforces on plus-reduce-array, the finest-grained benchmark in
// the suite (a one-addition loop body maximizes per-event visibility).
const overheadLimit = 0.05

// plusReduceMP is the plus-reduce-array kernel as a minipar reduction
// loop: the machine-level analogue of the native benchmark, one
// addition per iteration through the parfor promotion machinery.
const plusReduceMP = `params n
var total = 0
parfor i in 0 .. n reduce(total, +) {
    total = total + i
}
return total
`

// backendRow is one machine kernel's interp-vs-compiled measurement in
// BENCH_rt.json. The two backends are observably identical (the
// equivalence suite holds them to the same results, faults, and
// stats), so Steps is a single column; the walls are where they
// differ. The race columns rerun the same configuration with the
// determinacy-race sanitizer on — the canonical serve admission mode —
// where shadow-memory cost dilutes the dispatch win.
type backendRow struct {
	Name          string `json:"name"`
	Steps         int64  `json:"steps"`
	ChecksHoisted int    `json:"checks_hoisted"`

	WallInterpNS   int64   `json:"wall_interp_ns"`
	WallCompiledNS int64   `json:"wall_compiled_ns"`
	Speedup        float64 `json:"speedup"` // interp wall / compiled wall
	// CompiledSpread is (median-min)/min over the timed sanitizer-off
	// compiled laps: this run's own estimate of measurement noise (the
	// median, not the max, so one descheduled lap does not open the
	// gate).
	CompiledSpread float64 `json:"compiled_spread"`

	WallInterpRaceNS   int64   `json:"wall_interp_race_ns"`
	WallCompiledRaceNS int64   `json:"wall_compiled_race_ns"`
	SpeedupRace        float64 `json:"speedup_race"`
}

func (r backendRow) compiledNSPerStep() float64 {
	if r.Steps == 0 {
		return 0
	}
	return float64(r.WallCompiledNS) / float64(r.Steps)
}

// machineKernels are the abstract-machine programs measured on both
// backends: the plus-reduce-array reduction kernel compiled from
// minipar plus the paper corpus at argument sizes that make dispatch,
// not startup, the measured quantity.
func machineKernels(scale float64) ([]corpusEntry, error) {
	mp, err := minipar.Parse(plusReduceMP)
	if err != nil {
		return nil, fmt.Errorf("plus-reduce-array kernel: %w", err)
	}
	prog, err := minipar.Compile(mp)
	if err != nil {
		return nil, fmt.Errorf("plus-reduce-array kernel: %w", err)
	}
	scaled := func(n int64) int64 {
		n = int64(float64(n) * scale)
		if n < 16 {
			n = 16
		}
		return n
	}
	return []corpusEntry{
		{"plus-reduce-array", prog, machine.RegFile{"n": machine.IntV(scaled(60_000))}},
		{"prod", programs.Prod(), machine.RegFile{"a": machine.IntV(scaled(20_000)), "b": machine.IntV(3)}},
		{"pow", programs.Pow(), machine.RegFile{"d": machine.IntV(1), "e": machine.IntV(scaled(20_000))}},
		{"fib", programs.Fib(), machine.RegFile{"n": machine.IntV(18)}},
	}, nil
}

// measureBackends times one kernel on the interpreter and the compiled
// backend (min of reps), sanitizer off and on, cross-checking that the
// two backends agree on the step count every run.
func measureBackends(c corpusEntry, reps int) (backendRow, error) {
	entry := make([]tpal.Reg, 0, len(c.regs))
	for r := range c.regs {
		entry = append(entry, r)
	}
	report := analysis.Analyze(c.prog, analysis.Options{EntryRegs: entry})
	opts := compile.Options{}
	if !analysis.HasErrors(report.Diags) {
		opts.Report = report
	}
	cp, err := compile.Compile(c.prog, opts)
	if err != nil {
		return backendRow{}, fmt.Errorf("%s: compile: %w", c.name, err)
	}
	row := backendRow{Name: c.name, ChecksHoisted: cp.Hoisted()}

	measure := func(race bool) (interpWall, compiledWall, compiledMedian time.Duration, steps int64, err error) {
		cfg := machine.Config{Heartbeat: 100, RaceDetect: race, SkipVerify: true}
		var laps []time.Duration      // timed compiled laps
		for r := 0; r < reps+1; r++ { // first lap is an untimed warm-up
			icfg := cfg
			icfg.Regs = c.regs.Clone()
			start := time.Now()
			ires, ierr := machine.Run(c.prog, icfg)
			iw := time.Since(start)

			ccfg := cfg
			ccfg.Regs = c.regs.Clone()
			start = time.Now()
			cres, cerr := cp.Run(ccfg)
			cw := time.Since(start)

			if ierr != nil || cerr != nil {
				return 0, 0, 0, 0, fmt.Errorf("%s: interp=%v compiled=%v", c.name, ierr, cerr)
			}
			if ires.Stats.Steps != cres.Stats.Steps {
				return 0, 0, 0, 0, fmt.Errorf("%s: step divergence: interp=%d compiled=%d",
					c.name, ires.Stats.Steps, cres.Stats.Steps)
			}
			if r == 0 {
				continue
			}
			if interpWall == 0 || iw < interpWall {
				interpWall = iw
			}
			laps = append(laps, cw)
			steps = ires.Stats.Steps
		}
		if len(laps) == 0 { // -reps 0: warm-up only
			return 0, 0, 0, steps, nil
		}
		slices.Sort(laps)
		return interpWall, laps[0], laps[len(laps)/2], steps, nil
	}

	iw, cw, cmed, steps, err := measure(false)
	if err != nil {
		return backendRow{}, err
	}
	row.Steps = steps
	row.WallInterpNS = iw.Nanoseconds()
	row.WallCompiledNS = cw.Nanoseconds()
	if cw > 0 {
		row.Speedup = float64(iw) / float64(cw)
		row.CompiledSpread = float64(cmed-cw) / float64(cw)
	}

	iw, cw, _, _, err = measure(true)
	if err != nil {
		return backendRow{}, err
	}
	row.WallInterpRaceNS = iw.Nanoseconds()
	row.WallCompiledRaceNS = cw.Nanoseconds()
	if cw > 0 {
		row.SpeedupRace = float64(iw) / float64(cw)
	}
	return row, nil
}

// rtBenchmarks are the canonical baseline benchmarks: the finest-
// grained loop (every overhead maximally visible), an irregular
// nested loop (spmv's per-row work varies by structure), the skewed
// spmv variant (powerlaw's giant rows stress promotion under load
// imbalance), a dense phase-barriered loop nest (floyd-warshall), and
// the sort under both input distributions (exponential pre-sorted-ness
// shifts the recursion shape).
var rtBenchmarks = []string{
	"plus-reduce-array", "spmv-random", "spmv-powerlaw",
	"floyd-warshall-1K", "mergesort-uniform", "mergesort-exp",
}

// measureRT measures one benchmark: min-of-reps wall with the tracer
// disabled (nil) and enabled, keeping the enabled run's drained trace
// for utilization.
func measureRT(name string, workers int, scale float64, reps, capacity int) (rtResult, error) {
	b, err := bench.ByName(name)
	if err != nil {
		return rtResult{}, err
	}
	b.Setup(scale)

	serialStart := time.Now()
	b.RunSerial()
	serialWall := time.Since(serialStart)

	once := func(tr *trace.Tracer) (heartbeat.Stats, error) {
		st := heartbeat.Run(heartbeat.Config{
			Workers:   workers,
			Mechanism: interrupt.NewPingThread(),
			Tracer:    tr,
		}, b.RunHeartbeat)
		if err := b.Verify(); err != nil {
			return heartbeat.Stats{}, fmt.Errorf("%s: %w", name, err)
		}
		return st, nil
	}

	// One untimed warm-up, then run both configurations every rep,
	// swapping which goes first each time, so cache state, heap growth,
	// and CPU frequency drift hit both sides equally.
	if _, err := once(nil); err != nil {
		return rtResult{}, err
	}
	var disabledWall, enabledWall time.Duration
	var st heartbeat.Stats
	var d *trace.Trace
	runDisabled := func() error {
		dst, err := once(nil)
		if err != nil {
			return err
		}
		if disabledWall == 0 || dst.Elapsed < disabledWall {
			disabledWall = dst.Elapsed
		}
		return nil
	}
	runEnabled := func() error {
		etr := trace.New(workers, capacity)
		est, err := once(etr)
		if err != nil {
			return err
		}
		if enabledWall == 0 || est.Elapsed < enabledWall {
			// Drain now, not after the loop: the trace duration feeds the
			// utilization denominator and must cover only this run.
			enabledWall, st, d = est.Elapsed, est, etr.Drain()
		}
		return nil
	}
	for r := 0; r < reps; r++ {
		first, second := runDisabled, runEnabled
		if r%2 == 1 {
			first, second = runEnabled, runDisabled
		}
		if err := first(); err != nil {
			return rtResult{}, err
		}
		if err := second(); err != nil {
			return rtResult{}, err
		}
	}

	res := rtResult{
		Name:           name,
		WallSerialNS:   serialWall.Nanoseconds(),
		WallDisabledNS: disabledWall.Nanoseconds(),
		WallEnabledNS:  enabledWall.Nanoseconds(),
		WorkNS:         st.WorkNanos,
		SpanNS:         st.SpanNanos,
		Promotions:     st.Promotions,
		Utilization:    trace.BuildTimeline(d).Utilization(),
		TraceEvents:    len(d.Events),
		TraceDropped:   d.Dropped,
		HeartbeatsSeen: st.Sched.HeartbeatsSeen,
		TasksCreated:   st.Sched.TasksCreated,
	}
	if disabledWall > 0 {
		res.TracerDelta = float64(enabledWall-disabledWall) / float64(disabledWall)
	}
	return res, nil
}

// runBenchRT produces BENCH_rt.json and enforces the overhead gate.
func runBenchRT(out io.Writer, outPath string, workers int, scale float64, reps, capacity int) int {
	doc := benchRTDoc{GeneratedBy: "tpal-trace -bench-rt"}
	doc.Config.Workers = workers
	doc.Config.Scale = scale
	doc.Config.Reps = reps
	doc.Config.Mechanism = "ping-thread"

	for _, name := range rtBenchmarks {
		fmt.Fprintf(out, "measuring %s (scale %g, %d reps)...\n", name, scale, reps)
		res, err := measureRT(name, workers, scale, reps, capacity)
		if err != nil {
			fmt.Fprintln(out, err)
			return 1
		}
		fmt.Fprintf(out, "  wall %v disabled, %v enabled (delta %+.2f%%), %d promotions, utilization %.3f\n",
			time.Duration(res.WallDisabledNS).Round(time.Microsecond),
			time.Duration(res.WallEnabledNS).Round(time.Microsecond),
			res.TracerDelta*100, res.Promotions, res.Utilization)
		doc.Benchmarks = append(doc.Benchmarks, res)
	}

	kernels, err := machineKernels(scale)
	if err != nil {
		fmt.Fprintln(out, err)
		return 1
	}
	for _, c := range kernels {
		fmt.Fprintf(out, "measuring machine backend on %s (%d reps)...\n", c.name, reps)
		row, err := measureBackends(c, reps)
		if err != nil {
			fmt.Fprintln(out, err)
			return 1
		}
		fmt.Fprintf(out, "  %d steps: interp %v, compiled %v (%.2fx); with sanitizer %v vs %v (%.2fx); %d checks hoisted\n",
			row.Steps,
			time.Duration(row.WallInterpNS).Round(time.Microsecond),
			time.Duration(row.WallCompiledNS).Round(time.Microsecond),
			row.Speedup,
			time.Duration(row.WallInterpRaceNS).Round(time.Microsecond),
			time.Duration(row.WallCompiledRaceNS).Round(time.Microsecond),
			row.SpeedupRace, row.ChecksHoisted)
		doc.MachineBackend = append(doc.MachineBackend, row)
	}

	gapsOK := true
	for _, c := range corpus() {
		g, _, err := checkGap(c, 8, capacity)
		if err != nil {
			fmt.Fprintln(out, err)
			return 1
		}
		fmt.Fprintf(out, "gap check %s: %s(%d), observed max %d: %s\n",
			g.Program, g.Class, g.StaticBound, g.MaxObserved, passFail(g.WithinBound))
		if !g.WithinBound {
			gapsOK = false
		}
		doc.CorpusGaps = append(doc.CorpusGaps, g)
	}

	for _, c := range corpus() {
		o, err := checkOpt(c, 8)
		if err != nil {
			fmt.Fprintln(out, err)
			return 1
		}
		fmt.Fprintf(out, "opt delta %s: %d rewrites, steps %d -> %d (%+.2f%%)\n",
			o.Program, o.Rewrites, o.StepsBefore, o.StepsAfter, o.Delta*100)
		doc.OptDeltas = append(doc.OptDeltas, o)
	}

	doc.OverheadGate.Benchmark = rtBenchmarks[0]
	doc.OverheadGate.Limit = overheadLimit
	doc.OverheadGate.Delta = doc.Benchmarks[0].TracerDelta
	doc.OverheadGate.Pass = doc.Benchmarks[0].TracerDelta <= overheadLimit

	// The file about to be overwritten is the baseline: in canonical
	// mode (make bench-rt) that is the committed BENCH_rt.json.
	var baseline *benchRTDoc
	if prev, err := os.ReadFile(outPath); err == nil {
		baseline = new(benchRTDoc)
		if json.Unmarshal(prev, baseline) != nil {
			baseline = nil
		}
	}
	doc.BackendGate = gateBackend(doc.MachineBackend[0], scale, baseline)

	data, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		fmt.Fprintln(out, err)
		return 1
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(out, err)
		return 1
	}
	fmt.Fprintf(out, "wrote %s\n", outPath)

	if !doc.OverheadGate.Pass {
		fmt.Fprintf(out, "FAIL: tracer delta %+.2f%% on %s exceeds the %.0f%% overhead contract\n",
			doc.OverheadGate.Delta*100, doc.OverheadGate.Benchmark, overheadLimit*100)
		return 1
	}
	if !gapsOK {
		fmt.Fprintln(out, "FAIL: an observed promotion gap exceeds its static bound")
		return 1
	}
	if g := doc.BackendGate; !g.Pass {
		fmt.Fprintf(out, "FAIL: compiled backend at %.1f ns/step on %s is worse than the %.1f ns/step baseline by more than %.0f%%\n",
			g.NSPerStep, g.Benchmark, g.BaselineNSPerStep, g.Tolerance*100)
		return 1
	}
	fmt.Fprintf(out, "PASS: tracer delta %+.2f%% within %.0f%%; compiled backend %.1f ns/step on %s (baseline %.1f, tolerance %.0f%%); all observed gaps respect their static bounds\n",
		doc.OverheadGate.Delta*100, overheadLimit*100, doc.BackendGate.NSPerStep, doc.BackendGate.Benchmark,
		doc.BackendGate.BaselineNSPerStep, doc.BackendGate.Tolerance*100)
	return 0
}

func passFail(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
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
