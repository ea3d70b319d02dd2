package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"tpal/internal/minipar"
	"tpal/internal/minipar/autopar"
	"tpal/internal/serve"
	"tpal/internal/stats"
	"tpal/internal/tpal"
	"tpal/internal/tpal/analysis"
	"tpal/internal/tpal/asm"
	"tpal/internal/tpal/machine"
	"tpal/internal/tpal/opt"
)

// The traced run measures every layer from outside: it walks requests
// through the daemon's pipeline one at a time, in process, calling each
// layer's public entry point from the benchmark's own goroutine and
// stamping a span around each call. Spans inside the program are a
// later change.

// span is one stamped call: which job, which layer, when, and the span
// that caused it (-1 for a job's root span).
type span struct {
	Job    int
	Layer  string
	Start  time.Duration // since the recorder was made
	End    time.Duration
	Parent int
}

// recorder keeps spans in memory; they are written out when the
// benchmark ends. Disabled, it stamps nothing: that replay is the base
// of bench.trace_overhead_ratio.
type recorder struct {
	enabled bool
	epoch   time.Time
	spans   []span
}

// in runs f inside a span whose parent is the span at index parent.
func (r *recorder) in(job, parent int, layer string, f func()) {
	if !r.enabled {
		f()
		return
	}
	i := len(r.spans)
	r.spans = append(r.spans, span{Job: job, Layer: layer, Parent: parent, Start: time.Since(r.epoch)})
	f()
	r.spans[i].End = time.Since(r.epoch)
}

// writeChrome writes the spans as Chrome trace_event JSON.
func (r *recorder) writeChrome(path string) error {
	type ev struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]ev, len(r.spans))
	for i, s := range r.spans {
		evs[i] = ev{
			Name: s.Layer, Ph: "X", PID: 1, TID: 1,
			TS:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]int{"job": s.Job, "parent": s.Parent},
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": evs}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Layers of the pipeline, in call order. Those between the JSON decode
// and the view encode are what serve.Service.Submit → Job.Done() also
// runs; their sum is compared against that in-process turnaround.
const (
	layerDecode   = "serve.json_decode"
	layerAsm      = "asm.parse"
	layerMPParse  = "minipar.parse"
	layerMPComp   = "minipar.compile"
	layerAutopar  = "autopar.transform"
	layerFP       = "tpal.fingerprint"
	layerAnalysis = "analysis.analyze"
	layerOpt      = "opt.optimize"
	layerMachine  = "machine.run"
	layerEncode   = "serve.view_encode"
)

var pipelineLayers = []string{layerAsm, layerMPParse, layerMPComp, layerAutopar, layerFP, layerAnalysis, layerOpt, layerMachine}

// verdict is the replay's stand-in for the daemon's analysis cache
// entry.
type verdict struct {
	rejected bool
	code     string
	run      *tpal.Program // the program the pool would execute
}

// pipeline replays requests through the layers with the caches the
// daemon keeps (analysis verdicts per program and entry set, results
// per program and arguments), so a repeated request skips what the
// daemon would skip.
type pipeline struct {
	rec      *recorder
	verdicts map[string]*verdict
	results  map[string]map[string]string
	counts   map[string]float64 // exact counts, summed over the replay
	maxGap   int64
	optPairs [][2]*tpal.Program // (submitted, optimized) programs that ran, with their registers
	optRegs  []machine.RegFile
}

func newPipeline(stamps bool) *pipeline {
	return &pipeline{
		rec:      &recorder{enabled: stamps, epoch: time.Now()},
		verdicts: map[string]*verdict{},
		results:  map[string]map[string]string{},
		counts:   map[string]float64{},
	}
}

// defaults of tpal-serve the replay has to repeat.
const (
	serveHeartbeat  = 100
	serveFuelCap    = 20_000_000
	serveTripAssume = 1024
)

// one walks request i through the pipeline and returns how long the
// whole walk took and why it failed verification, if it did.
func (p *pipeline) one(i int, r *request) (time.Duration, string) {
	t0 := time.Now()
	why := ""
	root := len(p.rec.spans) // the index the job's root span is about to take
	p.rec.in(i, -1, "job", func() { why = p.walk(i, root, r) })
	return time.Since(t0), why
}

func (p *pipeline) walk(i, root int, r *request) string {
	in := func(layer string, f func()) { p.rec.in(i, root, layer, f) }

	var req serve.SubmitRequest
	var err error
	in(layerDecode, func() { err = json.Unmarshal(r.Body, &req) })
	if err != nil {
		return "decode: " + err.Error()
	}

	var prog *tpal.Program
	var params []string
	switch {
	case req.AutoParallelize:
		var res *autopar.Result
		in(layerAutopar, func() { res, err = autopar.TransformSource(req.Source, autopar.Options{TripAssume: serveTripAssume}) })
		if err != nil {
			return "autopar: " + err.Error()
		}
		prog, params = res.Compiled, res.Program.Params
		p.counts["autopar.sites_parallelized"] += float64(res.Parallelized)
		p.counts["autopar.sites_blocked"] += float64(res.Blocked)
	case req.Lang == "minipar":
		var mp *minipar.Program
		in(layerMPParse, func() { mp, err = minipar.Parse(req.Source) })
		if err != nil {
			return "minipar parse: " + err.Error()
		}
		in(layerMPComp, func() { prog, err = minipar.Compile(mp) })
		if err != nil {
			return "minipar compile: " + err.Error()
		}
		params = mp.Params
	default:
		in(layerAsm, func() { prog, err = asm.Parse(req.Source) })
		if err != nil {
			return "asm parse: " + err.Error()
		}
	}

	entrySet := map[string]bool{}
	for _, n := range params {
		entrySet[n] = true
	}
	for n := range req.Args {
		entrySet[n] = true
	}
	names := make([]string, 0, len(entrySet))
	for n := range entrySet {
		names = append(names, n)
	}
	sort.Strings(names)
	entry := make([]tpal.Reg, len(names))
	for k, n := range names {
		entry[k] = tpal.Reg(n)
	}

	var fp string
	in(layerFP, func() { fp = tpal.Fingerprint(prog) })
	key := fp + "|" + strings.Join(names, ",")

	v, seen := p.verdicts[key]
	if !seen {
		v = &verdict{run: prog}
		var rep *analysis.Report
		in(layerAnalysis, func() { rep = analysis.Analyze(prog, analysis.Options{EntryRegs: entry, Races: true}) })
		p.counts["analysis.diags"] += float64(len(rep.Diags))
		p.counts["analysis.ir_blocks"] += float64(len(prog.Blocks))
		switch {
		case analysis.HasErrors(rep.Diags):
			v.rejected = true
			for _, d := range rep.Diags {
				if d.Severity == analysis.Error {
					v.code = string(d.Code)
					break
				}
			}
		case rep.Latency.Class == analysis.LatencyUnbounded:
			v.rejected, v.code = true, "TP050"
		default:
			var res *opt.Result
			in(layerOpt, func() { res, err = opt.Optimize(prog, opt.Options{EntryRegs: entry}) })
			if err == nil && res.Rewrites() > 0 {
				v.run = res.Program
				p.counts["opt.rewrites"] += float64(res.Rewrites())
			}
		}
		p.verdicts[key] = v
	}

	view := serve.JobView{ID: fmt.Sprintf("j%06d", i+1), Tenant: req.Tenant, Fingerprint: fp}
	switch {
	case v.rejected:
		view.Status = serve.StatusRejected
		view.Error = v.code
	default:
		rkey := fmt.Sprintf("%s|%v", fp, argList(req.Args))
		cached, hit := p.results[rkey]
		if hit {
			view.Status, view.Result, view.Cached = serve.StatusDone, cached, true
			break
		}
		regs := make(machine.RegFile, len(req.Args))
		for k, val := range req.Args {
			regs[tpal.Reg(k)] = machine.IntV(val)
		}
		fuel := int64(serveFuelCap)
		if req.Fuel > 0 && req.Fuel < fuel {
			fuel = req.Fuel
		}
		var res machine.Result
		in(layerMachine, func() {
			res, err = machine.Run(v.run, machine.Config{
				Heartbeat: serveHeartbeat, Fuel: fuel, MaxSteps: 1 << 60, Regs: regs.Clone(), SkipVerify: true,
			})
		})
		switch {
		case err == nil:
			view.Status = serve.StatusDone
			view.Result = make(map[string]string, len(res.Regs))
			for reg, val := range res.Regs {
				view.Result[string(reg)] = val.String()
			}
			p.results[rkey] = view.Result
			p.counts["machine.steps"] += float64(res.Stats.Steps)
			p.counts["machine.promotions"] += float64(res.Stats.HandlerRuns)
			p.counts["machine.forks"] += float64(res.Stats.Forks)
			if res.Stats.MaxPromotionGap > p.maxGap {
				p.maxGap = res.Stats.MaxPromotionGap
			}
			if v.run != prog {
				p.optPairs = append(p.optPairs, [2]*tpal.Program{prog, v.run})
				p.optRegs = append(p.optRegs, regs)
			}
		case errors.Is(err, machine.ErrFuel):
			view.Status = serve.StatusBudget
		default:
			view.Status = serve.StatusFailed
			view.Error = err.Error()
		}
	}

	var wire []byte
	in(layerEncode, func() { wire, err = json.MarshalIndent(view, "", "  ") })
	if err != nil {
		return "encode: " + err.Error()
	}
	var jv jobView
	if err := json.Unmarshal(wire, &jv); err != nil {
		return "decode own view: " + err.Error()
	}
	if v.rejected {
		jv.Error = v.code
		return check(r.Expect, 422, &jv)
	}
	return check(r.Expect, 202, &jv)
}

func argList(args map[string]int64) []string {
	out := make([]string, 0, len(args))
	for k, v := range args {
		out = append(out, fmt.Sprintf("%s=%d", k, v))
	}
	sort.Strings(out)
	return out
}

// perJob sums, for each of n jobs, its spans of the given layers.
func (r *recorder) perJob(n int, layers []string) []time.Duration {
	want := map[string]bool{}
	for _, l := range layers {
		want[l] = true
	}
	out := make([]time.Duration, n)
	for _, s := range r.spans {
		if want[s.Layer] {
			out[s.Job] += s.End - s.Start
		}
	}
	return out
}

// layerMS returns every span of one layer, in milliseconds.
func (r *recorder) layerMS(layer string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Layer == layer {
			out = append(out, ms(s.End-s.Start))
		}
	}
	return out
}

// spanSumTolerance is how far the sum of the pipeline spans may sit from
// the in-process service turnaround before the replay counts as wrong.
// The target is 10%; single runs on a two-core box wander ±6% around a
// median of 1.02 to 1.06, so only a gap beyond 15% is a failure.
const spanSumTolerance = 0.15

// shortSpanSumTolerance is the same for the smoke test's 20-request
// replay, whose whole sum is a few tens of milliseconds.
const shortSpanSumTolerance = 0.35

// tracedReplay fills res with the per-layer numbers of one serve-*
// workload.
func tracedReplay(ctx context.Context, env *environment, workload string, st *stream, workers int, res *result) error {
	n := serveWorkloads[workload].TraceN
	if env.Short {
		n = shortTraceN
	}
	if n > len(st.Reqs) {
		n = len(st.Reqs)
	}
	reqs := st.Reqs[:n]

	// Four ways through the same requests, each from a cold start of its
	// own: the stamped walk, the same walk unstamped, whole through
	// serve.Service in process, and whole through HTTP at one outstanding
	// job. They advance together, request by request, in rotating order,
	// so heap growth, cache warmth and the box's drift fall on all four
	// alike.
	stamped, bare := newPipeline(true), newPipeline(false)
	svc := serve.New(serve.Config{Workers: workers})
	tgt, err := env.StartTarget(ctx, env, workload+"-replay")
	if err != nil {
		return err
	}
	ld := newLoader(tgt.Base, reqs)
	defer func() {
		ld.close()
		tgt.Stop()
	}()
	var stampedTotal, bareTotal time.Duration
	inproc := make([]time.Duration, n)
	viaHTTP := make([]time.Duration, n)
	var submitErr error
	ways := []func(i int){
		func(i int) {
			d, why := stamped.one(i, &reqs[i])
			stampedTotal += d
			res.Attempted++
			if why != "" {
				res.fail(fmt.Sprintf("traced request %d (%s): %s", i, reqs[i].Class, why))
			}
		},
		func(i int) {
			d, _ := bare.one(i, &reqs[i])
			bareTotal += d
		},
		func(i int) {
			t0 := time.Now()
			j, err := svc.Submit(reqs[i].Submit)
			if err != nil {
				submitErr = fmt.Errorf("%s: in-process submit %d: %w", workload, i, err)
				return
			}
			<-j.Done()
			inproc[i] = time.Since(t0)
		},
		func(i int) {
			t0 := time.Now()
			s := ld.do(ctx, i, t0)
			viaHTTP[i] = s.Finished.Sub(t0)
			res.Attempted++
			if s.Why != "" {
				res.fail(fmt.Sprintf("replayed request %d (%s) over HTTP: %s", i, reqs[i].Class, s.Why))
			}
		},
	}
	for i := range reqs {
		for k := range ways {
			ways[(i+k)%len(ways)](i)
		}
		if submitErr != nil || ctx.Err() != nil {
			break
		}
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	drainErr := svc.Drain(drainCtx)
	cancel()
	switch {
	case submitErr != nil:
		return submitErr
	case ctx.Err() != nil:
		return ctx.Err()
	case drainErr != nil:
		return fmt.Errorf("%s: drain in-process service: %w", workload, drainErr)
	}
	res.set("bench.trace_overhead_ratio", stats.Ratio(float64(stampedTotal), float64(bareTotal)))

	// Attribution.
	spans := stamped.rec.perJob(n, pipelineLayers)
	dispatch := make([]float64, n)
	frontdoor := make([]float64, n)
	for i := 0; i < n; i++ {
		dispatch[i] = ms(inproc[i] - spans[i])
		frontdoor[i] = ms(viaHTTP[i] - inproc[i])
	}
	res.setTimed("serve.dispatch_p50_ms", stats.Median(dispatch), n)
	res.setTimed("serve.frontdoor_p50_ms", stats.Median(frontdoor), n)

	// The spans must add up to the in-process turnaround. One preempted
	// or GC-assisting request on either side moves a plain sum by
	// several percent on a two-core box, so the requests with the widest
	// gap in either direction, 5% at each end, are left out of both sums.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return dispatch[order[a]] < dispatch[order[b]] })
	trim := (n + 19) / 20
	if n <= 2*trim {
		trim = 0
	}
	var spanSum, inprocSum time.Duration
	for _, i := range order[trim : n-trim] {
		spanSum += spans[i]
		inprocSum += inproc[i]
	}
	sumRatio := stats.Ratio(float64(spanSum), float64(inprocSum))
	res.set("bench.span_sum_ratio", sumRatio)
	tolerance := spanSumTolerance
	if env.Short {
		tolerance = shortSpanSumTolerance
	}
	if sumRatio < 1-tolerance || sumRatio > 1+tolerance {
		res.fail(fmt.Sprintf("sum of pipeline spans is %.3f of the in-process turnaround, outside ±%.0f%%", sumRatio, tolerance*100))
	}

	layerMedian := func(metric, layer string, scale float64) {
		xs := stamped.rec.layerMS(layer)
		res.setTimed(metric, stats.Median(xs)*scale, len(xs))
	}
	layerMedian("asm.parse_us", layerAsm, 1000)
	layerMedian("minipar.parse_us", layerMPParse, 1000)
	layerMedian("minipar.compile_ms", layerMPComp, 1)
	layerMedian("autopar.transform_ms", layerAutopar, 1)
	layerMedian("tpal.fingerprint_us", layerFP, 1000)
	layerMedian("analysis.analyze_ms", layerAnalysis, 1)
	layerMedian("opt.optimize_ms", layerOpt, 1)

	total := func(layers []string) float64 {
		var d time.Duration
		for _, x := range stamped.rec.perJob(n, layers) {
			d += x
		}
		return float64(d)
	}
	share := func(layers ...string) float64 { return stats.Ratio(total(layers), total(pipelineLayers)) }
	res.Layers = map[string]float64{}
	for _, sp := range stamped.rec.spans {
		if sp.Parent >= 0 { // every layer is a leaf, so its span is its self time
			res.Layers[sp.Layer] += ms(sp.End - sp.Start)
		}
	}
	res.set("machine.self_share", share(layerMachine))
	res.set("frontend.self_share", share(layerAsm, layerMPParse, layerMPComp, layerAutopar, layerFP, layerAnalysis, layerOpt))

	for _, name := range []string{
		"autopar.sites_parallelized", "autopar.sites_blocked", "analysis.diags", "analysis.ir_blocks",
		"opt.rewrites", "machine.steps", "machine.promotions", "machine.forks",
	} {
		res.set(name, stamped.counts[name])
	}
	res.set("machine.max_promotion_gap", float64(stamped.maxGap))

	probeLayers(stamped, reqs, res)

	out := filepath.Join(env.OutDir, "trace-"+workload+".json")
	if err := stamped.rec.writeChrome(out); err != nil {
		return fmt.Errorf("write %s: %w", out, err)
	}
	return nil
}

// probeLayers times the public entry points that sit beside the
// daemon's path rather than on it: the plain verifier, the source
// interpreter the oracle uses, and the unoptimized twin of every
// optimized run (for the share of machine steps the optimizer saved).
func probeLayers(p *pipeline, reqs []request, res *result) {
	var verify, interp []float64
	seen := map[string]bool{}
	for i := range reqs {
		r := &reqs[i].Submit
		if seen[r.Source] {
			continue
		}
		seen[r.Source] = true
		var prog *tpal.Program
		var err error
		var entry []tpal.Reg
		if r.Lang == "minipar" {
			mp, perr := minipar.Parse(r.Source)
			if perr != nil {
				continue
			}
			vals := make([]int64, len(mp.Params))
			for k, name := range mp.Params {
				vals[k] = r.Args[name]
				entry = append(entry, tpal.Reg(name))
			}
			t0 := time.Now()
			_, ierr := minipar.Interpret(mp, vals)
			if ierr == nil {
				interp = append(interp, float64(time.Since(t0))/float64(time.Microsecond))
			}
			prog, err = minipar.Compile(mp)
		} else {
			prog, err = asm.Parse(r.Source)
			for name := range r.Args {
				entry = append(entry, tpal.Reg(name))
			}
		}
		if err != nil {
			continue
		}
		t0 := time.Now()
		analysis.VerifyWith(prog, analysis.Options{EntryRegs: entry})
		verify = append(verify, ms(time.Since(t0)))
	}
	res.setTimed("analysis.verify_ms", stats.Median(verify), len(verify))
	res.setTimed("minipar.interpret_us", stats.Median(interp), len(interp))

	var before, after int64
	for i, pair := range p.optPairs {
		cfg := machine.Config{Heartbeat: serveHeartbeat, MaxSteps: 1 << 60, SkipVerify: true}
		cfg.Regs = p.optRegs[i].Clone()
		b, err1 := machine.Run(pair[0], cfg)
		cfg.Regs = p.optRegs[i].Clone()
		a, err2 := machine.Run(pair[1], cfg)
		if err1 == nil && err2 == nil {
			before += b.Stats.Steps
			after += a.Stats.Steps
		}
	}
	res.set("opt.steps_saved_share", stats.Ratio(float64(before-after), float64(before)))
}
