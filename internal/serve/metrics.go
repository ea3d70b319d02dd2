package serve

import (
	"time"

	"tpal/internal/stats"
)

// metricSamples keeps a bounded ring of recent latency samples (in
// milliseconds) for percentile reporting.
type metricSamples struct {
	buf  []float64
	next int
	full bool
}

func newSamples(capacity int) *metricSamples {
	return &metricSamples{buf: make([]float64, capacity)}
}

func (m *metricSamples) add(v float64) {
	m.buf[m.next] = v
	m.next++
	if m.next == len(m.buf) {
		m.next = 0
		m.full = true
	}
}

func (m *metricSamples) values() []float64 {
	if m.full {
		return append([]float64(nil), m.buf...)
	}
	return append([]float64(nil), m.buf[:m.next]...)
}

// Metrics is the service's counter set. All fields are guarded by the
// Service mutex; Snapshot copies them out.
type Metrics struct {
	Submitted      int64
	Admitted       int64
	Rejected       int64
	Completed      int64
	Failed         int64
	BudgetExceeded int64
	Timeouts       int64
	Canceled       int64
	Throttled      int64 // 429s: submissions bounced off the full queue
	AnalysisHits   int64
	ResultHits     int64
	TracedJobs     int64 // executions run with a per-job tracer

	// Dispatch counters: executions started, analysis pipeline runs
	// (verdict-cache entries claimed), and terminal job records evicted
	// by the retention cap or TTL.
	Executions  int64
	Analyses    int64
	JobsEvicted int64

	// ExecNanos accumulates executor-busy wall time across finished
	// runs; Promotions accumulates heartbeat handler entries across
	// successful runs. Together they derive the busy-fraction and
	// promotion-rate gauges of /metrics.
	ExecNanos  int64
	Promotions int64

	// Autopar admission counters: jobs admitted with auto_parallelize,
	// candidate-site outcomes summed across them, and a histogram of
	// the program-level predicted speedups.
	AutoparAdmissions        int64
	AutoparSitesParallelized int64
	AutoparSitesBlocked      int64

	queueWait      *metricSamples   // submission → first execution step
	exec           *metricSamples   // execution duration
	traceCounts    map[string]int64 // per-kind event totals over traced jobs
	autoparSpeedup map[string]int64 // predicted-speedup histogram buckets
}

func newMetrics() *Metrics {
	return &Metrics{
		queueWait:      newSamples(4096),
		exec:           newSamples(4096),
		traceCounts:    make(map[string]int64),
		autoparSpeedup: make(map[string]int64),
	}
}

// noteAutopar records one auto-parallelized admission. A nil report
// (the submission did not ask for the pass) is a no-op, so the call
// sits unconditionally on both admission paths. Callers hold the
// service mutex.
func (m *Metrics) noteAutopar(rep *AutoparReport) {
	if rep == nil {
		return
	}
	m.AutoparAdmissions++
	m.AutoparSitesParallelized += int64(rep.Parallelized)
	m.AutoparSitesBlocked += int64(rep.Blocked)
	m.autoparSpeedup[speedupBucket(rep.PredictedSpeedup)]++
}

// speedupBucket maps a predicted speedup onto the fixed histogram
// buckets of /metrics. The boundaries are powers of two above 2x —
// the interesting resolution is at the low end, where forking barely
// pays for itself.
func speedupBucket(s float64) string {
	switch {
	case s < 1.5:
		return "<1.5"
	case s < 2:
		return "1.5-2"
	case s < 4:
		return "2-4"
	case s < 8:
		return "4-8"
	case s < 16:
		return "8-16"
	default:
		return ">=16"
	}
}

// MetricsSnapshot is the wire form of GET /metrics.
type MetricsSnapshot struct {
	Submitted      int64 `json:"submitted"`
	Admitted       int64 `json:"admitted"`
	Rejected       int64 `json:"rejected"`
	Completed      int64 `json:"completed"`
	Failed         int64 `json:"failed"`
	BudgetExceeded int64 `json:"budget_exceeded"`
	Timeouts       int64 `json:"timeouts"`
	Canceled       int64 `json:"canceled"`
	Throttled      int64 `json:"throttled_429"`
	AnalysisHits   int64 `json:"analysis_cache_hits"`
	ResultHits     int64 `json:"result_cache_hits"`

	QueueDepth int  `json:"queue_depth"`
	InFlight   int  `json:"in_flight"`
	Workers    int  `json:"workers"`
	Draining   bool `json:"draining"`

	// Dispatch gauges: executions started, unique analyses, and
	// eviction/retention state of the two bounded stores.
	Executions int64 `json:"executions"`
	// Steals, Batches and SingleflightCollapses are always 0: the
	// service has one queue, every Submit admits its own job, and every
	// admitted job that misses the result cache executes by itself, so
	// there are no shards to steal across, no admission batches and no
	// in-flight duplicates collapsed. The fields exist only because
	// benchmark/, which this package's PRs may not edit, still reads
	// them; they go in the next benchmark PR.
	Steals                int64 `json:"steals"`
	Batches               int64 `json:"admission_batches"`
	SingleflightCollapses int64 `json:"singleflight_collapses"`
	Analyses              int64 `json:"analyses"`
	ResultEvictions       int64 `json:"result_evictions"`
	JobsEvicted           int64 `json:"jobs_evicted"`
	JobsRetained          int   `json:"jobs_retained"`

	// TenantDeficits exposes the DRR fairness state: the current credit
	// of every backlogged tenant (absent tenants are idle and hold no
	// credit by construction).
	TenantDeficits map[string]int64 `json:"tenant_deficits,omitempty"`
	// BusyFraction is accumulated execution time over uptime × workers:
	// how much of the executor pool's capacity has gone to running jobs.
	BusyFraction float64 `json:"executor_busy_fraction"`
	// PromotionRate is heartbeat promotions per executor-busy second
	// across completed runs — the service-level promotion intensity.
	PromotionRate float64 `json:"promotion_rate_per_sec"`
	TracedJobs    int64   `json:"traced_jobs"`
	// TraceEventCounts totals drained per-kind event counts over all
	// traced jobs.
	TraceEventCounts map[string]int64 `json:"trace_event_counts,omitempty"`

	// Autopar gauges: admissions that ran the auto-parallelizing pass,
	// candidate-site outcomes across them, and the histogram of
	// program-level predicted speedups (bucket label → count).
	AutoparAdmissions        int64            `json:"autopar_admissions"`
	AutoparSitesParallelized int64            `json:"autopar_sites_parallelized"`
	AutoparSitesBlocked      int64            `json:"autopar_sites_blocked"`
	AutoparSpeedupHist       map[string]int64 `json:"autopar_speedup_hist,omitempty"`

	QueueWaitP50MS float64 `json:"queue_wait_p50_ms"`
	QueueWaitP99MS float64 `json:"queue_wait_p99_ms"`
	ExecP50MS      float64 `json:"exec_p50_ms"`
	ExecP99MS      float64 `json:"exec_p99_ms"`
}

// Snapshot returns a consistent copy of the metrics. Callers must not
// hold the service mutex; the service takes it.
func (s *Service) Snapshot() MetricsSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.metrics
	wait := m.queueWait.values()
	exec := m.exec.values()
	busy := 0.0
	if up := time.Since(s.started).Nanoseconds() * int64(s.cfg.Workers); up > 0 {
		busy = float64(m.ExecNanos) / float64(up)
		if busy > 1 {
			busy = 1
		}
	}
	rate := 0.0
	if m.ExecNanos > 0 {
		rate = float64(m.Promotions) / (float64(m.ExecNanos) / float64(time.Second))
	}
	var counts map[string]int64
	if len(m.traceCounts) > 0 {
		counts = make(map[string]int64, len(m.traceCounts))
		for k, n := range m.traceCounts {
			counts[k] = n
		}
	}
	var speedups map[string]int64
	if len(m.autoparSpeedup) > 0 {
		speedups = make(map[string]int64, len(m.autoparSpeedup))
		for k, n := range m.autoparSpeedup {
			speedups[k] = n
		}
	}
	return MetricsSnapshot{
		Submitted:      m.Submitted,
		Admitted:       m.Admitted,
		Rejected:       m.Rejected,
		Completed:      m.Completed,
		Failed:         m.Failed,
		BudgetExceeded: m.BudgetExceeded,
		Timeouts:       m.Timeouts,
		Canceled:       m.Canceled,
		Throttled:      m.Throttled,
		AnalysisHits:   m.AnalysisHits,
		ResultHits:     m.ResultHits,
		QueueDepth:     s.queue.len(),
		InFlight:       len(s.inflight),
		Workers:        s.cfg.Workers,
		Draining:       s.draining,

		Executions:      m.Executions,
		Analyses:        m.Analyses,
		ResultEvictions: s.results.evictions,
		JobsEvicted:     m.JobsEvicted,
		JobsRetained:    len(s.jobs),

		TenantDeficits:   s.queue.deficits(),
		BusyFraction:     busy,
		PromotionRate:    rate,
		TracedJobs:       m.TracedJobs,
		TraceEventCounts: counts,

		AutoparAdmissions:        m.AutoparAdmissions,
		AutoparSitesParallelized: m.AutoparSitesParallelized,
		AutoparSitesBlocked:      m.AutoparSitesBlocked,
		AutoparSpeedupHist:       speedups,
		QueueWaitP50MS:           stats.Percentile(wait, 50),
		QueueWaitP99MS:           stats.Percentile(wait, 99),
		ExecP50MS:                stats.Percentile(exec, 50),
		ExecP99MS:                stats.Percentile(exec, 99),
	}
}
