package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"time"

	"tpal/internal/serve"
	"tpal/internal/stats"
)

// serveTarget is a daemon under load: a child process in a real run, an
// in-process handler in the smoke test.
type serveTarget struct {
	Base    string
	Workers int
	PID     int // 0 when in process
	Stop    func()
}

// startTarget builds and starts the child daemon.
func startTarget(ctx context.Context, env *environment, workload string) (*serveTarget, error) {
	bin, err := buildDaemon(ctx, env)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(ctx, env, bin, "daemon-"+workload+".log", env.NProc)
	if err != nil {
		return nil, err
	}
	return &serveTarget{Base: d.Base, Workers: env.NProc, PID: d.cmd.Process.Pid, Stop: d.Stop}, nil
}

// serveSetup is everything before the first timed operation: build the
// daemon, start it, generate and verify the inputs, warm the caches.
func serveSetup(ctx context.Context, env *environment, workload string, seed int64) (*serveTarget, *stream, *loader, error) {
	p := serveWorkloads[workload]
	tgt, err := env.StartTarget(ctx, env, workload)
	if err != nil {
		return nil, nil, nil, err
	}
	st := generate(env.Root, workload, seed, p.Stream)
	ld := newLoader(tgt.Base, st.Reqs)
	warm := ld.closed(ctx, 0, 2*tgt.Workers, st.Warm, nil)
	for _, s := range warm {
		if s.Why != "" {
			ld.close()
			tgt.Stop()
			return nil, nil, nil, fmt.Errorf("%s: warm-up request %d (%s) failed: %s",
				workload, s.Idx, st.Reqs[s.Idx].Class, s.Why)
		}
	}
	return tgt, st, ld, nil
}

// runServe runs one serve-* workload: set-up (repeated, median
// reported), the open phase at the frozen offered rate, the closed
// phase at 2×workers outstanding, and, when traced, the layer replay.
func runServe(ctx context.Context, env *environment, workload string, seed int64, seconds float64, traced bool) (*result, error) {
	p := serveWorkloads[workload]
	res := newResult(workload, traced)

	reps := setupRepetitions
	if traced {
		reps = 1 // set-up time is an end-to-end metric, measured with tracing off
	}
	var (
		tgt    *serveTarget
		st     *stream
		ld     *loader
		setups []float64
	)
	for i := 0; i < reps; i++ {
		if tgt != nil {
			ld.close()
			tgt.Stop()
		}
		t0 := time.Now()
		var err error
		if tgt, st, ld, err = serveSetup(ctx, env, workload, seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		ld.close()
		tgt.Stop()
	}()
	res.StreamSHA = st.SHA
	res.setTimed("setup_s", stats.Median(setups), len(setups))

	loadSeconds := seconds
	if traced {
		loadSeconds = seconds * tracedLoadShare
		rtt, err := healthzRTT(ld.client, tgt.Base)
		if err != nil {
			return nil, err
		}
		res.setTimed("serve.healthz_rtt_us", stats.Median(rtt), len(rtt))
	}

	m0, err := snapshot(ld.client, tgt.Base)
	if err != nil {
		return nil, err
	}

	// Open phase.
	// Both phases send whole blocks of the stream, so the mix they
	// measure is exact (the smoke test has no time for that).
	unit := st.Block
	if env.Short {
		unit = 1
	}
	openSeconds := loadSeconds * openShare
	n := int(math.Round(p.Rate*openSeconds/float64(unit))) * unit
	if n < unit {
		n = unit
	}
	openStart := time.Now()
	open := ld.open(ctx, st.Warm, n, p.Rate)
	openElapsed := time.Since(openStart).Seconds()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m1, err := snapshot(ld.client, tgt.Base)
	if err != nil {
		return nil, err
	}

	// Closed phase.
	closedFor := time.Duration((loadSeconds - openSeconds) * float64(time.Second))
	closedStart := time.Now()
	closedEnd := closedStart.Add(closedFor)
	closed := ld.closed(ctx, st.Warm+n, 2*tgt.Workers, 0, func(finished int) bool {
		return finished%unit == 0 && !time.Now().Before(closedEnd)
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m2, err := snapshot(ld.client, tgt.Base)
	if err != nil {
		return nil, err
	}
	if last := st.Warm + n + len(closed); last > len(st.Reqs) {
		fmt.Fprintf(os.Stderr, "%s: closed phase wrapped the %d-request stream (reached %d); cache-miss properties no longer hold\n",
			workload, len(st.Reqs), last)
	}

	// Failures, counted against everything attempted.
	for _, phase := range [][]sample{open, closed} {
		for i := range phase {
			s := &phase[i]
			res.Attempted++
			if s.Why != "" {
				res.fail(fmt.Sprintf("request %d (%s): %s", s.Idx, st.Reqs[s.Idx%len(st.Reqs)].Class, s.Why))
			}
		}
	}

	// Closed phase: the verified share of the first k jobs to finish, k
	// a whole number of blocks, over the time until the k-th finished.
	// The few jobs still in flight then kept the daemon loaded to the
	// end of the window and are counted as attempted, not as throughput.
	k := len(closed) - len(closed)%unit
	completed := 0
	for i := range closed[:k] {
		if closed[i].Why == "" {
			completed++
		}
	}
	res.setTimed("ops_per_s", float64(completed)/closed[k-1].Finished.Sub(closedStart).Seconds(), completed)

	openMetrics(res, workload, st, open, openElapsed, tgt.Workers)
	counterMetrics(res, counterDelta(m1, m0), counterDelta(m2, m0), m2)

	if tgt.PID != 0 {
		rss, err := peakRSSMB(tgt.PID)
		if err != nil {
			return nil, fmt.Errorf("daemon peak RSS: %w", err)
		}
		res.set("rss_mb", rss)
	} else if rss, err := peakRSSMB(os.Getpid()); err == nil {
		res.set("rss_mb", rss)
	}
	if traced {
		if err := tracedReplay(ctx, env, workload, st, tgt.Workers, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// openMetrics turns the open phase's samples into the latency figures.
// A failed job misses any limit: it enters the distributions as +Inf
// would, here as the largest finite wait seen plus the limit, and always
// counts as an SLO miss.
func openMetrics(res *result, workload string, st *stream, open []sample, openElapsed float64, workers int) {
	p := serveWorkloads[workload]
	var turn, submit, late, qwait, exec []float64
	worst := p.SLOms
	for i := range open {
		if t := open[i].turnaroundMS(); open[i].Why == "" && t > worst {
			worst = t
		}
	}
	misses := 0
	var execMS float64
	for i := range open {
		s := &open[i]
		t := s.turnaroundMS()
		if s.Why != "" {
			t = worst + p.SLOms
		}
		if t > p.SLOms {
			misses++
		}
		turn = append(turn, t)
		submit = append(submit, s.submitMS())
		late = append(late, s.lateMS())
		if s.Why == "" && s.executed() {
			qwait = append(qwait, s.View.QueueWaitMS)
			exec = append(exec, s.View.ExecMS)
			execMS += s.View.ExecMS
		}
	}
	byClass := map[string][]float64{}
	for i := range open {
		c := st.Reqs[open[i].Idx].Class
		byClass[c] = append(byClass[c], turn[i])
	}
	res.Classes = map[string]classRow{}
	for c, xs := range byClass {
		res.Classes[c] = classRow{N: len(xs), P50ms: stats.Median(xs)}
	}
	res.setTimed("op_p50_ms", stats.Median(turn), len(turn))
	res.setTimed("serve.turnaround_p95_ms", stats.Percentile(turn, 95), len(turn))
	res.set("op_tail_ratio", stats.Ratio(stats.Percentile(turn, 95), stats.Median(turn)))
	res.setTimed("serve.turnaround_p99_ms", stats.Percentile(turn, 99), len(turn))
	res.setTimed("serve.submit_p50_ms", stats.Median(submit), len(submit))
	res.setTimed("serve.slo_miss_share", float64(misses)/float64(len(open)), len(open))
	res.setTimed("loadgen.late_p95_ms", stats.Percentile(late, 95), len(late))
	res.set("loadgen.sent", float64(len(open)))
	res.set("loadgen.offered_per_s", float64(len(open))/openElapsed)
	res.setTimed("serve.queue_wait_p50_ms", stats.Median(qwait), len(qwait))
	res.setTimed("serve.queue_wait_p95_ms", stats.Percentile(qwait, 95), len(qwait))
	res.setTimed("serve.exec_p50_ms", stats.Median(exec), len(exec))
	res.setTimed("serve.exec_p95_ms", stats.Percentile(exec, 95), len(exec))
	res.set("serve.executor_busy_share", execMS/1000/(openElapsed*float64(workers)))
	if l, t := res.Values["loadgen.late_p95_ms"], res.Values["op_p50_ms"]; l > lateFloorMS && l > 0.1*t {
		fmt.Fprintf(os.Stderr, "%s: VOID: generator lateness p95 %.3f ms exceeds 10%% of turnaround p50 %.3f ms\n", workload, l, t)
	}

}

// counterDelta subtracts the daemon counters the benchmark reads.
func counterDelta(a, b serve.MetricsSnapshot) serve.MetricsSnapshot {
	return serve.MetricsSnapshot{
		Submitted: a.Submitted - b.Submitted, Admitted: a.Admitted - b.Admitted,
		Rejected: a.Rejected - b.Rejected, BudgetExceeded: a.BudgetExceeded - b.BudgetExceeded,
		Throttled: a.Throttled - b.Throttled, AnalysisHits: a.AnalysisHits - b.AnalysisHits,
		ResultHits: a.ResultHits - b.ResultHits, Executions: a.Executions - b.Executions,
		Steals: a.Steals - b.Steals, Batches: a.Batches - b.Batches,
		SingleflightCollapses: a.SingleflightCollapses - b.SingleflightCollapses,
	}
}

// counterMetrics reads the daemon's own counters: outcome shares over
// the open phase, whose request range is fixed, so they repeat exactly;
// the rest over both phases.
func counterMetrics(res *result, open, all, last serve.MetricsSnapshot) {
	share := func(a, b int64) float64 { return stats.Ratio(float64(a), float64(b)) }
	res.set("serve.rejected_share", share(open.Rejected, open.Submitted))
	res.set("serve.budget_exceeded_share", share(open.BudgetExceeded, open.Submitted))
	res.set("serve.result_hit_share", share(all.ResultHits, all.Admitted))
	res.set("serve.analysis_hit_share", share(all.AnalysisHits, all.Submitted))
	res.set("serve.coalesced_share", share(all.SingleflightCollapses, all.Admitted))
	res.set("serve.batch_size_mean", share(all.Submitted, all.Batches))
	res.set("serve.steals_per_exec", share(all.Steals, all.Executions))
	res.set("serve.throttled_share", share(all.Throttled, all.Submitted))
	res.set("serve.result_evictions", float64(last.ResultEvictions))
	res.set("serve.jobs_evicted", float64(last.JobsEvicted))
}

// lateFloorMS is the generator lateness below which a run is never
// void: what is left of the box's timer slack after the spin window
// (0.3 to 0.5 ms at the 95th percentile on the box this was built on).
const lateFloorMS = 0.5

// healthzRTT times sequential GET /healthz round trips on an otherwise
// idle daemon, in microseconds: the floor any HTTP exchange pays.
func healthzRTT(client *http.Client, base string) ([]float64, error) {
	const n = 200
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		resp, err := client.Get(base + "/healthz")
		if err != nil {
			return nil, fmt.Errorf("healthz: %w", err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		out = append(out, float64(time.Since(t0))/float64(time.Microsecond))
	}
	return out, nil
}
