package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"tpal/internal/bench"
	"tpal/internal/cilk"
	"tpal/internal/heartbeat"
	"tpal/internal/interrupt"
	"tpal/internal/stats"
	"tpal/internal/tpal"
	"tpal/internal/tpal/analysis"
	"tpal/internal/tpal/asm"
	"tpal/internal/tpal/machine"
	"tpal/internal/tpal/machine/compile"
	"tpal/internal/tpal/programs"
	"tpal/internal/trace"
)

// The two workloads with no daemon. An operation is one run of one
// class (a kernel on one engine or in one variant); classes run
// interleaved, one after the other, sweep after sweep, until the
// measuring time is up.

// classTimes holds the wall times of one class, in milliseconds.
type classTimes struct {
	name string
	e2e  bool // counts toward the end-to-end latency figures
	ms   []float64
}

// sweepMetrics turns per-class samples into the end-to-end figures.
// Classes differ in size by design, so a plain percentile over all runs
// would sit on a class boundary: the median figure is the geometric
// mean of the class medians, and the tail figure is the 95th percentile
// of every run's wall over its own class's median.
//
// speed is the box's slowness index over the measuring time (speed.go):
// both figures are scaled to the reference speed.
func sweepMetrics(res *result, classes []*classTimes, elapsed time.Duration, speed float64) {
	var medians, rel []float64
	runs := 0
	for _, c := range classes {
		runs += len(c.ms)
		if !c.e2e {
			continue
		}
		m := stats.Median(c.ms)
		medians = append(medians, m)
		for _, x := range c.ms {
			rel = append(rel, x/m)
		}
	}
	p50 := stats.Geomean(medians)
	res.setTimed("ops_per_s", float64(runs-res.Failed)/elapsed.Seconds()*speed, runs)
	res.setTimed("op_p50_ms", p50/speed, len(rel))
	res.set("bench.speed_index", speed)
	res.setTimed("op_tail_ratio", stats.Percentile(rel, 95), len(rel))
	if rss, err := peakRSSMB(os.Getpid()); err == nil {
		res.set("rss_mb", rss)
	}
	res.Attempted = runs
}

// ---- machine-direct ----

// machineKernel is one abstract-machine program with its arguments and
// the closed form its result register must hold.
type machineKernel struct {
	name   string
	source func() string
	regs   machine.RegFile
	outReg tpal.Reg
	want   int64

	prog *tpal.Program
	cp   *compile.Program
}

// machineKernels sizes the four kernels; short divides the trip counts
// by ten for the smoke test.
func machineKernels(short bool) []*machineKernel {
	n, a, e, f := int64(60_000), int64(20_000), int64(20_000), int64(18)
	if short {
		n, a, e, f = n/10, a/10, e/10, 12
	}
	return []*machineKernel{
		{name: "plus-reduce-array", source: func() string { return printedTPAL(plusReduceMP) },
			regs: machine.RegFile{"n": machine.IntV(n)}, outReg: "result", want: n * (n - 1) / 2},
		{name: "prod", source: func() string { return programs.ProdSource },
			regs: machine.RegFile{"a": machine.IntV(a), "b": machine.IntV(3)}, outReg: "c", want: 3 * a},
		{name: "pow", source: func() string { return programs.PowSource },
			regs: machine.RegFile{"d": machine.IntV(1), "e": machine.IntV(e)}, outReg: "f", want: 1},
		{name: "fib", source: func() string { return programs.FibSource },
			regs: machine.RegFile{"n": machine.IntV(f)}, outReg: "f", want: programs.FibExpected(f)},
	}
}

// machineSetup is asm.Parse → analysis.Analyze → compile.Compile for
// every kernel, each call timed for the layer metrics.
func machineSetup(res *result, short bool) ([]*machineKernel, error) {
	ks := machineKernels(short)
	var parse, analyze, lower []float64
	var hoisted, ops int
	for _, k := range ks {
		src := k.source()
		t0 := time.Now()
		prog, err := asm.Parse(src)
		parse = append(parse, float64(time.Since(t0))/float64(time.Microsecond))
		if err != nil {
			return nil, fmt.Errorf("machine-direct: %s: %w", k.name, err)
		}
		entry := make([]tpal.Reg, 0, len(k.regs))
		for r := range k.regs {
			entry = append(entry, r)
		}
		t0 = time.Now()
		report := analysis.Analyze(prog, analysis.Options{EntryRegs: entry})
		analyze = append(analyze, ms(time.Since(t0)))
		if analysis.HasErrors(report.Diags) {
			return nil, fmt.Errorf("machine-direct: %s: verifier rejects the kernel: %v", k.name, report.Diags)
		}
		t0 = time.Now()
		cp, err := compile.Compile(prog, compile.Options{Report: report})
		lower = append(lower, float64(time.Since(t0))/float64(time.Microsecond))
		if err != nil {
			return nil, fmt.Errorf("machine-direct: %s: %w", k.name, err)
		}
		k.prog, k.cp = prog, cp
		hoisted += cp.Hoisted()
		ops += cp.Ops()
	}
	res.setTimed("asm.parse_us", stats.Median(parse), len(parse))
	res.setTimed("analysis.analyze_ms", stats.Median(analyze), len(analyze))
	res.setTimed("compile.lower_us", stats.Median(lower), len(lower))
	res.set("compile.checks_hoisted", float64(hoisted))
	res.set("compile.ops", float64(ops))
	return ks, nil
}

// machineRun is one timed run; it reports the wall time, the run's
// stats, and why the run counts as failed, if it does.
func (k *machineKernel) run(compiled, race bool) (time.Duration, machine.Stats, string) {
	cfg := machine.Config{Heartbeat: 100, RaceDetect: race, SkipVerify: true, Regs: k.regs.Clone()}
	var r machine.Result
	var err error
	t0 := time.Now()
	if compiled {
		r, err = k.cp.Run(cfg)
	} else {
		r, err = machine.Run(k.prog, cfg)
	}
	d := time.Since(t0)
	if err != nil {
		return d, r.Stats, err.Error()
	}
	if got, ok := r.Regs.Get(k.outReg).AsInt(); !ok || got != k.want {
		return d, r.Stats, fmt.Sprintf("register %s = %s, closed form says %d", k.outReg, r.Regs.Get(k.outReg), k.want)
	}
	return d, r.Stats, ""
}

func runMachineDirect(ctx context.Context, env *environment, seconds float64, traced bool) (*result, error) {
	res := newResult("machine-direct", traced)
	speed := startSpeedometer()
	defer speed.Stop()
	var ks []*machineKernel
	var setups []float64
	for i := 0; i < setupRepetitions; i++ {
		t0 := time.Now()
		var err error
		if ks, err = machineSetup(res, env.Short); err != nil {
			return nil, err
		}
		for _, k := range ks { // warm-up lap, verified
			for _, compiled := range []bool{false, true} {
				if _, _, why := k.run(compiled, false); why != "" {
					return nil, fmt.Errorf("machine-direct: warm-up of %s failed: %s", k.name, why)
				}
			}
		}
		setups = append(setups, time.Since(t0).Seconds()/speed.index(t0, time.Now()))
	}
	res.setTimed("setup_s", stats.Median(setups), len(setups))

	type variant struct {
		compiled, race bool
		tag            string
	}
	variants := []variant{{false, false, "interp"}, {true, false, "compiled"}, {false, true, "interp-race"}, {true, true, "compiled-race"}}
	times := map[string]*classTimes{}
	var classes []*classTimes
	for _, k := range ks {
		for _, v := range variants {
			c := &classTimes{name: k.name + "/" + v.tag, e2e: !v.race}
			times[c.name] = c
			classes = append(classes, c)
		}
	}
	steps := map[string]machine.Stats{}

	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for sweep := 0; sweep < 7 || time.Now().Before(deadline); sweep++ { // the median of at least seven
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, k := range ks {
			var got [4]machine.Stats
			for vi, v := range variants {
				d, st, why := k.run(v.compiled, v.race)
				times[k.name+"/"+v.tag].ms = append(times[k.name+"/"+v.tag].ms, ms(d))
				got[vi] = st
				if why != "" {
					res.fail(fmt.Sprintf("%s/%s: %s", k.name, v.tag, why))
				}
			}
			// The oracle contract: both engines take the same steps.
			if got[0].Steps != got[1].Steps || got[2].Steps != got[3].Steps {
				res.fail(fmt.Sprintf("%s: step divergence: interp %d/%d, compiled %d/%d",
					k.name, got[0].Steps, got[2].Steps, got[1].Steps, got[3].Steps))
			}
			steps[k.name] = got[0]
		}
	}
	sweepMetrics(res, classes, time.Since(start), speed.index(start, time.Now()))

	// Layer figures: time per step on each engine, sanitizer off and on.
	perStep := func(tag string) []float64 {
		var out []float64
		for _, k := range ks {
			out = append(out, stats.Median(times[k.name+"/"+tag].ms)*1e6/float64(steps[k.name].Steps))
		}
		return out
	}
	interpNS, compiledNS := stats.Geomean(perStep("interp")), stats.Geomean(perStep("compiled"))
	res.set("machine.interp_ns_per_step", interpNS)
	res.set("machine.compiled_ns_per_step", compiledNS)
	res.set("machine.interp_race_ns_per_step", stats.Geomean(perStep("interp-race")))
	res.set("machine.compiled_race_ns_per_step", stats.Geomean(perStep("compiled-race")))
	res.set("interp_msteps_per_s", 1000/interpNS)
	res.set("compiled_msteps_per_s", 1000/compiledNS)
	res.set("machine.backend_speedup", interpNS/compiledNS)
	var total machine.Stats
	for _, k := range ks {
		st := steps[k.name]
		total.Steps += st.Steps
		total.HandlerRuns += st.HandlerRuns
		total.Forks += st.Forks
		if st.MaxPromotionGap > total.MaxPromotionGap {
			total.MaxPromotionGap = st.MaxPromotionGap
		}
	}
	res.set("machine.steps", float64(total.Steps))
	res.set("machine.promotions", float64(total.HandlerRuns))
	res.set("machine.forks", float64(total.Forks))
	res.set("machine.max_promotion_gap", float64(total.MaxPromotionGap))
	return res, nil
}

// ---- native-kernels ----

// nativeKernel is one paper-suite kernel sized for a long serial run.
type nativeKernel struct {
	name string
	b    bench.Benchmark
	reps int
}

func nativeSetup(short bool) ([]*nativeKernel, error) {
	var ks []*nativeKernel
	for _, name := range nativeKernels {
		b, err := bench.ByName(name)
		if err != nil {
			return nil, err
		}
		size := nativeSizes[name]
		if short {
			size = nativeSize{Scale: 0.1, Reps: 1}
		}
		b.Setup(size.Scale)
		ks = append(ks, &nativeKernel{name: name, b: b, reps: size.Reps})
	}
	return ks, nil
}

func (k *nativeKernel) serial() time.Duration {
	t0 := time.Now()
	for i := 0; i < k.reps; i++ {
		k.b.RunSerial()
	}
	return time.Since(t0)
}

func (k *nativeKernel) heartbeat(workers int, tr *trace.Tracer) (heartbeat.Stats, error) {
	st := heartbeat.Run(heartbeat.Config{Workers: workers, Mechanism: interrupt.NewPingThread(), Tracer: tr},
		func(c *heartbeat.Ctx) {
			for i := 0; i < k.reps; i++ {
				k.b.RunHeartbeat(c)
			}
		})
	return st, k.b.Verify()
}

func (k *nativeKernel) cilk() (time.Duration, error) {
	st := cilk.Run(cilk.Config{Workers: 1}, func(c *cilk.Ctx) {
		for i := 0; i < k.reps; i++ {
			k.b.RunCilk(c)
		}
	})
	return st.Elapsed, k.b.Verify()
}

func runNativeKernels(ctx context.Context, env *environment, seconds float64, traced bool) (*result, error) {
	res := newResult("native-kernels", traced)
	speed := startSpeedometer()
	defer speed.Stop()
	var ks []*nativeKernel
	var setups []float64
	reps := setupRepetitions
	if traced {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		var err error
		if ks, err = nativeSetup(env.Short); err != nil {
			return nil, err
		}
		for _, k := range ks { // the serial run records the reference Verify checks against
			k.serial()
			if _, err := k.heartbeat(env.NProc, nil); err != nil {
				return nil, fmt.Errorf("native-kernels: warm-up: %w", err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds()/speed.index(t0, time.Now()))
	}
	res.setTimed("setup_s", stats.Median(setups), len(setups))

	measure := seconds
	if traced {
		measure = seconds * tracedLoadShare
	}
	type perKernel struct {
		serial, hb1, hbN *classTimes
		runsN            []heartbeat.Stats
	}
	per := map[string]*perKernel{}
	var classes []*classTimes
	for _, k := range ks {
		p := &perKernel{
			serial: &classTimes{name: k.name + "/serial", e2e: true},
			hb1:    &classTimes{name: k.name + "/heartbeat-1w", e2e: true},
			hbN:    &classTimes{name: k.name + "/heartbeat-nw", e2e: true},
		}
		per[k.name] = p
		classes = append(classes, p.serial, p.hb1, p.hbN)
	}

	start := time.Now()
	deadline := start.Add(time.Duration(measure * float64(time.Second)))
	minSweeps := 5 // the median of at least five
	if traced || env.Short {
		minSweeps = 3
	}
	for sweep := 0; sweep < minSweeps || time.Now().Before(deadline); sweep++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, k := range ks {
			p := per[k.name]
			p.serial.ms = append(p.serial.ms, ms(k.serial()))
			st1, err := k.heartbeat(1, nil)
			if err != nil {
				res.fail(k.name + " on 1 worker: " + err.Error())
			}
			p.hb1.ms = append(p.hb1.ms, ms(st1.Elapsed))
			stN, err := k.heartbeat(env.NProc, nil)
			if err != nil {
				res.fail(fmt.Sprintf("%s on %d workers: %v", k.name, env.NProc, err))
			}
			p.hbN.ms = append(p.hbN.ms, ms(stN.Elapsed))
			p.runsN = append(p.runsN, stN)
		}
	}
	sweepMetrics(res, classes, time.Since(start), speed.index(start, time.Now()))

	var overheads, speedups, inflation, spanShare []float64
	var wall float64
	var agg struct {
		sweeps                                              float64
		promotions, steals, failed, delivered               float64
		joinIdle, busy, penalty, workerNanos, targetedBeats float64
	}
	for _, k := range ks {
		p := per[k.name]
		s, h1, hn := stats.Median(p.serial.ms), stats.Median(p.hb1.ms), stats.Median(p.hbN.ms)
		res.setTimed("heartbeat."+k.name+".overhead_1w", h1/s, len(p.hb1.ms))
		res.setTimed("heartbeat."+k.name+".speedup", s/hn, len(p.hbN.ms))
		res.setTimed("bench."+k.name+".serial_ms", s, len(p.serial.ms))
		overheads = append(overheads, h1/s)
		speedups = append(speedups, s/hn)
		wall += hn
		var infl, share []float64
		for _, st := range p.runsN {
			infl = append(infl, float64(st.WorkNanos)/(s*1e6))
			share = append(share, stats.Ratio(float64(st.SpanNanos), float64(st.WorkNanos)))
			agg.promotions += float64(st.Promotions)
			agg.steals += float64(st.Sched.Steals)
			agg.failed += float64(st.Sched.FailedSteals)
			agg.delivered += float64(st.Interrupts.Delivered)
			agg.joinIdle += float64(st.Sched.JoinIdleNanos)
			agg.busy += float64(st.Sched.BusyNanos)
			agg.penalty += float64(st.Sched.PenaltyNanos)
			agg.workerNanos += float64(st.Elapsed.Nanoseconds()) * float64(st.Sched.Workers)
			agg.targetedBeats += st.Interrupts.TargetRate() * st.Interrupts.Elapsed.Seconds()
		}
		agg.sweeps = float64(len(p.runsN))
		inflation = append(inflation, stats.Median(infl))
		spanShare = append(spanShare, stats.Median(share))
	}
	res.set("native_overhead_1w", stats.Geomean(overheads))
	res.set("native_speedup", stats.Geomean(speedups))
	res.set("native_wall_ms", wall)
	res.set("heartbeat.promotions", agg.promotions/agg.sweeps)
	res.set("heartbeat.work_inflation", stats.Geomean(inflation))
	res.set("heartbeat.span_share", stats.Geomean(spanShare))
	res.set("sched.steals", agg.steals/agg.sweeps)
	res.set("sched.failed_steal_share", stats.Ratio(agg.failed, agg.failed+agg.steals))
	res.set("sched.join_idle_share", stats.Ratio(agg.joinIdle, agg.workerNanos))
	res.set("sched.busy_share", stats.Ratio(agg.busy, agg.workerNanos))
	res.set("sched.penalty_share", stats.Ratio(agg.penalty, agg.busy))
	res.set("interrupt.delivery_ratio", stats.Ratio(agg.delivered, agg.targetedBeats))
	res.set("interrupt.delivered", agg.delivered/agg.sweeps)

	if traced {
		serial := map[string]float64{}
		for _, k := range ks {
			serial[k.name] = stats.Median(per[k.name].serial.ms)
		}
		if err := nativeProbes(ctx, ks, serial, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// nativeProbes measures the two comparators that are context, never
// targets: the eager-spawn (Cilk-style) cost on one worker, and what an
// attached tracer costs the finest-grained kernel.
func nativeProbes(ctx context.Context, ks []*nativeKernel, serialMS map[string]float64, res *result) error {
	const reps = 2
	var overheads []float64
	for _, k := range ks {
		var eager []float64
		for i := 0; i < reps; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			d, err := k.cilk()
			res.Attempted++
			if err != nil {
				res.fail(k.name + " eager-spawn: " + err.Error())
			}
			eager = append(eager, ms(d))
		}
		overheads = append(overheads, stats.Median(eager)/serialMS[k.name])
	}
	res.set("cilk.overhead_1w", stats.Geomean(overheads))

	// One worker: with every core busy the pair-to-pair noise of this box
	// is wider than the 5% overhead contract the figure polices.
	k := ks[0] // plus-reduce-array: one addition per iteration
	const pairs = 15
	var off, on, each []float64
	for i := 0; i < pairs; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		a, err := k.heartbeat(1, nil)
		if err != nil {
			res.fail("trace probe: " + err.Error())
		}
		b, err := k.heartbeat(1, trace.New(1, 0))
		if err != nil {
			res.fail("trace probe, tracer attached: " + err.Error())
		}
		res.Attempted += 2
		off = append(off, ms(a.Elapsed))
		on = append(on, ms(b.Elapsed))
		each = append(each, ms(b.Elapsed)/ms(a.Elapsed))
	}
	res.setTimed("trace.overhead_ratio", stats.Median(on)/stats.Median(off), pairs)
	res.set("trace.overhead_iqr", iqr(each))
	return nil
}
