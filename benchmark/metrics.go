package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// The six workloads, in the order a full pass runs them.
var workloadNames = []string{
	"serve-mixed", "serve-exec", "serve-admit", "serve-hot",
	"machine-direct", "native-kernels",
}

// nativeKernels are the paper-suite kernels of the native-kernels
// workload: one fine-grain loop, one irregular nested loop, one coarse
// loop, one many-short-loops nest, and two recursive kernels.
var nativeKernels = []string{
	"plus-reduce-array", "spmv-powerlaw", "mandelbrot",
	"floyd-warshall-1K", "mergesort-uniform", "knapsack",
}

// metricDef names one metric and its unit. BENCHMARK.json repeats the
// two lists below; benchmark_test.go holds the two in agreement.
type metricDef struct {
	Name string
	Unit string
	// Exact marks a count that must repeat bit for bit for a fixed
	// seed and a fixed --seconds.
	Exact bool
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them (the driver's contract), so each is defined over
// the workload's own unit of work, the "operation": a job on serve-*,
// one program run on machine-direct, one kernel run on native-kernels.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s"},
	{Name: "ops_per_s", Unit: "1/s"},
	{Name: "op_p50_ms", Unit: "ms"},
	{Name: "rss_mb", Unit: "MB"},
}

// perLayer lists the single-layer metrics, grouped by the module that
// owns them. A layer that idles on a workload reports 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{Name: "fail_share", Unit: "ratio"},
		{Name: "op_tail_ratio", Unit: "ratio"},

		{Name: "loadgen.offered_per_s", Unit: "1/s"},
		{Name: "loadgen.sent", Unit: "count", Exact: true},
		{Name: "loadgen.late_p95_ms", Unit: "ms"},

		{Name: "serve.healthz_rtt_us", Unit: "us"},
		{Name: "serve.frontdoor_p50_ms", Unit: "ms"},
		{Name: "serve.submit_p50_ms", Unit: "ms"},

		{Name: "serve.dispatch_p50_ms", Unit: "ms"},
		{Name: "serve.queue_wait_p50_ms", Unit: "ms"},
		{Name: "serve.queue_wait_p95_ms", Unit: "ms"},
		{Name: "serve.batch_size_mean", Unit: "count"},
		{Name: "serve.steals_per_exec", Unit: "ratio"},
		{Name: "serve.executor_busy_share", Unit: "ratio"},
		{Name: "serve.throttled_share", Unit: "ratio"},
		{Name: "serve.turnaround_p95_ms", Unit: "ms"},
		{Name: "serve.turnaround_p99_ms", Unit: "ms"},
		{Name: "serve.slo_miss_share", Unit: "ratio"},

		{Name: "serve.result_hit_share", Unit: "ratio"},
		{Name: "serve.analysis_hit_share", Unit: "ratio"},
		{Name: "serve.coalesced_share", Unit: "ratio"},
		{Name: "serve.result_evictions", Unit: "count"},
		{Name: "serve.jobs_evicted", Unit: "count"},

		{Name: "serve.rejected_share", Unit: "ratio", Exact: true},
		{Name: "serve.budget_exceeded_share", Unit: "ratio", Exact: true},

		{Name: "serve.exec_p50_ms", Unit: "ms"},
		{Name: "serve.exec_p95_ms", Unit: "ms"},

		{Name: "asm.parse_us", Unit: "us"},
		{Name: "minipar.parse_us", Unit: "us"},
		{Name: "minipar.compile_ms", Unit: "ms"},
		{Name: "minipar.interpret_us", Unit: "us"},
		{Name: "autopar.transform_ms", Unit: "ms"},
		{Name: "autopar.sites_parallelized", Unit: "count", Exact: true},
		{Name: "autopar.sites_blocked", Unit: "count", Exact: true},
		{Name: "tpal.fingerprint_us", Unit: "us"},
		{Name: "analysis.analyze_ms", Unit: "ms"},
		{Name: "analysis.verify_ms", Unit: "ms"},
		{Name: "analysis.diags", Unit: "count", Exact: true},
		{Name: "analysis.ir_blocks", Unit: "count", Exact: true},
		{Name: "opt.optimize_ms", Unit: "ms"},
		{Name: "opt.rewrites", Unit: "count", Exact: true},
		{Name: "opt.steps_saved_share", Unit: "ratio", Exact: true},
		{Name: "compile.lower_us", Unit: "us"},
		{Name: "compile.checks_hoisted", Unit: "count", Exact: true},
		{Name: "compile.ops", Unit: "count", Exact: true},

		{Name: "machine.self_share", Unit: "ratio"},
		{Name: "frontend.self_share", Unit: "ratio"},
		{Name: "bench.speed_index", Unit: "ratio"},
		{Name: "bench.span_sum_ratio", Unit: "ratio"},
		{Name: "bench.trace_overhead_ratio", Unit: "ratio"},

		{Name: "interp_msteps_per_s", Unit: "Msteps/s"},
		{Name: "compiled_msteps_per_s", Unit: "Msteps/s"},
		{Name: "machine.interp_ns_per_step", Unit: "ns"},
		{Name: "machine.compiled_ns_per_step", Unit: "ns"},
		{Name: "machine.interp_race_ns_per_step", Unit: "ns"},
		{Name: "machine.compiled_race_ns_per_step", Unit: "ns"},
		{Name: "machine.backend_speedup", Unit: "ratio"},
		{Name: "machine.steps", Unit: "count", Exact: true},
		{Name: "machine.promotions", Unit: "count", Exact: true},
		{Name: "machine.forks", Unit: "count", Exact: true},
		{Name: "machine.max_promotion_gap", Unit: "count", Exact: true},

		{Name: "native_overhead_1w", Unit: "ratio"},
		{Name: "native_speedup", Unit: "ratio"},
		{Name: "native_wall_ms", Unit: "ms"},
	}
	for _, k := range nativeKernels {
		defs = append(defs,
			metricDef{Name: "heartbeat." + k + ".overhead_1w", Unit: "ratio"},
			metricDef{Name: "heartbeat." + k + ".speedup", Unit: "ratio"},
			metricDef{Name: "bench." + k + ".serial_ms", Unit: "ms"},
		)
	}
	return append(defs,
		metricDef{Name: "heartbeat.promotions", Unit: "count"},
		metricDef{Name: "heartbeat.work_inflation", Unit: "ratio"},
		metricDef{Name: "heartbeat.span_share", Unit: "ratio"},
		metricDef{Name: "sched.steals", Unit: "count"},
		metricDef{Name: "sched.failed_steal_share", Unit: "ratio"},
		metricDef{Name: "sched.join_idle_share", Unit: "ratio"},
		metricDef{Name: "sched.busy_share", Unit: "ratio"},
		metricDef{Name: "sched.penalty_share", Unit: "ratio"},
		metricDef{Name: "interrupt.delivery_ratio", Unit: "ratio"},
		metricDef{Name: "interrupt.delivered", Unit: "count"},
		metricDef{Name: "cilk.overhead_1w", Unit: "ratio"},
		metricDef{Name: "trace.overhead_ratio", Unit: "ratio"},
		metricDef{Name: "trace.overhead_iqr", Unit: "ratio"},
	)
}

// result is one run of one workload: the operations it attempted and
// failed, the values it measured, and how many samples stand behind
// each timing.
type result struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Values    map[string]float64 `json:"values"`
	Samples   map[string]int     `json:"samples,omitempty"`
	StreamSHA string             `json:"stream_sha256,omitempty"`
	Failures  []string           `json:"failures,omitempty"` // first few, for the log
	// Classes breaks the open phase down by request class: how many
	// were sent and their median turnaround, in milliseconds.
	Classes map[string]classRow `json:"classes,omitempty"`
	// Layers is the traced replay's answer to "where does a job's time
	// go": each stamped layer's total self time over the replay, in
	// milliseconds.
	Layers map[string]float64 `json:"layer_self_ms,omitempty"`
}

type classRow struct {
	N     int     `json:"n"`
	P50ms float64 `json:"turnaround_p50_ms"`
}

func newResult(workload string, trace bool) *result {
	return &result{Workload: workload, Trace: trace, Values: map[string]float64{}, Samples: map[string]int{}}
}

func (r *result) set(name string, v float64) { r.Values[name] = v }

// setTimed records a value with the number of samples behind it.
func (r *result) setTimed(name string, v float64, n int) {
	r.Values[name] = v
	r.Samples[name] = n
}

// fail counts one failed operation and keeps the first few reasons.
func (r *result) fail(why string) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, why)
	}
}

// driverLine renders the one JSON object the driver reads from the last
// line of standard output: every end-to-end metric with tracing off,
// every per-layer metric with it on.
func (r *result) driverLine() (string, error) {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(defs))
	for _, d := range defs {
		v, ok := r.Values[d.Name]
		if !ok && !r.Trace {
			return "", fmt.Errorf("%s: end-to-end metric %s was not measured", r.Workload, d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("%s: metric %s is %v", r.Workload, d.Name, v)
		}
		metrics[d.Name] = mv{Value: v, Unit: d.Unit}
	}
	if r.Attempted < 1 {
		return "", fmt.Errorf("%s: no operation was attempted", r.Workload)
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	return string(line), err
}

// iqr is the distance between the first and third quartile, computed as
// Python's statistics.quantiles(xs, n=4) does (the exclusive method),
// so the spreads printed here are the ones the driver computes.
func iqr(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		lo := int(pos)
		if lo < 1 {
			lo = 1
		}
		if lo > n-1 {
			lo = n - 1
		}
		frac := pos - float64(lo)
		return c[lo-1] + frac*(c[lo]-c[lo-1])
	}
	return q(3) - q(1)
}
