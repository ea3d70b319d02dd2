// Package serve is the multi-tenant TPAL execution service: jobs —
// TPAL assembly or minipar programs plus entry arguments — are
// canonicalized and fingerprinted, pushed through the full static
// analysis pipeline as an admission gate, quoted a step budget derived
// from the symbolic work bound, queued under per-tenant deficit
// round-robin, and executed on a fixed pool of worker goroutines
// running the abstract machine under the service's shared heartbeat
// configuration with per-job fuel and deadlines. The HTTP surface lives
// in http.go; cmd/tpal-serve is the daemon.
//
// The subsystem exists because heartbeat scheduling is exactly the
// substrate a shared service needs: every admitted job is
// serial-by-default and only promotes parallelism at analysis-certified
// promotion points, so a fixed worker pool can run many mutually
// untrusted jobs without oversubscription, and the same analyses that
// prove a program safe also price it.
//
// There is one lock. Every tenant queues on one DRR queue (queue.go)
// guarded by the service mutex, and idle executors wait on that
// mutex's condition variable. Every Submit admits its own job: the
// verdict-cache entry is claimed under the lock and filled outside it
// under a sync.Once, so one program is analyzed once however many
// submitters race and different programs analyze concurrently in their
// callers' goroutines (admit.go). Completed results live in a bounded
// LRU store (store.go); every other admitted job executes once, by
// itself, under its own deadline and its own tenant's DRR account.
// Every job carries a replayable event stream (events.go) served over
// SSE by GET /v1/jobs/{id}/events. DESIGN.md §16 records the
// measurements that retired the tenant-hashed queues, the stealing,
// the batched admission and the singleflight registry this package
// used to have.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tpal/internal/tpal"
	"tpal/internal/tpal/machine"
	"tpal/internal/trace"
)

// jobTraceCapacity is the per-job ring size: 1<<14 events bounds a
// traced job's memory at ~650 KB while keeping whole small runs.
const jobTraceCapacity = 1 << 14

// Submission errors. The HTTP layer maps these to status codes; direct
// callers can errors.Is against them.
var (
	// ErrQueueFull is backpressure: the bounded queue is at capacity
	// (HTTP 429).
	ErrQueueFull = errors.New("serve: queue full")
	// ErrDraining means the service has stopped admitting (HTTP 503).
	ErrDraining = errors.New("serve: draining, not accepting jobs")
	// ErrBadRequest wraps submission parse/validation failures (HTTP 400).
	ErrBadRequest = errors.New("serve: bad request")
)

// Config parameterizes a Service. Zero values take the documented
// defaults.
type Config struct {
	// Workers is the executor pool size (default GOMAXPROCS). The pool
	// is fixed: admission control, not spawning, absorbs load.
	Workers int
	// QueueCap bounds the number of queued jobs across all tenants;
	// submissions beyond it fail with ErrQueueFull (default 256).
	QueueCap int
	// Heartbeat is the shared promotion threshold ♥ applied to every
	// job (default 100 instructions). A submission may set its own
	// smaller-grained value, but the default keeps the whole pool under
	// one interrupt policy, the paper's single-♥ regime.
	Heartbeat int64
	// FuelCap is the hard per-job budget ceiling in machine steps
	// (default 20M): no quote, however large the symbolic estimate, may
	// exceed it.
	FuelCap int64
	// MinBudget is the budget floor (default 10k steps), so tiny
	// estimates still leave room for estimator slack.
	MinBudget int64
	// TripAssume is the trip count assumed for every unknown loop
	// variable when the symbolic work bound is evaluated into a quote
	// (default 1024).
	TripAssume int64
	// QuoteMargin scales the evaluated estimate into the granted budget
	// (default 4).
	QuoteMargin int64
	// DefaultTimeout is the per-job wall-clock deadline when the
	// submission names none (default 10s); MaxTimeout caps requested
	// deadlines (default 60s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// ResultCacheCap bounds the content-addressed result store; the
	// least-recently-used entries are evicted past it (default 4096).
	ResultCacheCap int
	// JobRetention caps how many terminal job records the service keeps
	// (default 4096); JobTTL additionally expires terminal records by
	// age (default 15m). A GET on an evicted id is a 404. Queued and
	// running jobs are never evicted.
	JobRetention int
	JobTTL       time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 256
	}
	if c.Heartbeat == 0 {
		c.Heartbeat = 100
	}
	if c.FuelCap <= 0 {
		c.FuelCap = 20_000_000
	}
	if c.MinBudget <= 0 {
		c.MinBudget = 10_000
	}
	if c.MinBudget > c.FuelCap {
		c.MinBudget = c.FuelCap
	}
	if c.TripAssume <= 0 {
		c.TripAssume = 1024
	}
	if c.QuoteMargin <= 0 {
		c.QuoteMargin = 4
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.ResultCacheCap <= 0 {
		c.ResultCacheCap = 4096
	}
	if c.JobRetention <= 0 {
		c.JobRetention = 4096
	}
	if c.JobTTL <= 0 {
		c.JobTTL = 15 * time.Minute
	}
	return c
}

// SubmitRequest is one job submission.
type SubmitRequest struct {
	// Tenant is the fairness key; empty maps to "anonymous".
	Tenant string `json:"tenant"`
	// Lang is "tpal", "minipar", or "" (auto-detect).
	Lang string `json:"lang"`
	// Source is the program text.
	Source string `json:"source"`
	// Args are the entry register values.
	Args map[string]int64 `json:"args"`
	// Entry optionally names extra registers to assume initialized at
	// entry (beyond the keys of Args and, for minipar, the params).
	Entry []string `json:"entry"`
	// Heartbeat overrides the service ♥ for this job when positive.
	Heartbeat int64 `json:"heartbeat"`
	// Fuel lowers the granted budget below the quote when positive (it
	// can never raise it past the service cap).
	Fuel int64 `json:"fuel"`
	// TimeoutMS overrides the default deadline, capped by MaxTimeout.
	TimeoutMS int64 `json:"timeout_ms"`
	// Trace requests per-job event tracing: the run executes with a
	// ring-buffer tracer attached and the job record carries the drained
	// trace summary (GET /v1/jobs/{id} returns it under "trace"). The
	// HTTP layer also accepts it as the ?trace=1 query parameter on
	// POST /v1/jobs. Traced submissions bypass the result cache so the
	// trace always reflects a real execution; their live events also
	// stream over the job's SSE feed.
	Trace bool `json:"trace"`
	// AutoParallelize runs the autopar dependence pass over the
	// submission before admission: sequential loops and independent
	// statement pairs in the (minipar-only) source are rewritten to
	// parfor/par where the rewrite certifies race-free, and the job
	// record carries the per-site verdict table and predicted speedup
	// (GET /v1/jobs/{id} returns them under "autopar"). The admission
	// gate then analyzes the transformed program.
	AutoParallelize bool `json:"auto_parallelize"`
}

// Service is the job-execution subsystem.
type Service struct {
	cfg Config

	// mu is the one lock: it guards the queue, the job table, metrics,
	// caches, and all per-job mutable state. Executors with nothing to
	// run wait on work, its condition variable.
	mu    sync.Mutex
	work  *sync.Cond
	queue *drrQueue

	jobs     map[string]*Job
	retired  []*Job // terminal jobs in finish order, pruned by cap and TTL
	inflight map[string]*Job
	seq      int64
	draining bool

	admissions *lruStore[*admission]
	results    *lruStore[*cachedResult]
	metrics    *Metrics

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
	started    time.Time

	// hookRunning, when set by tests, observes each job as its
	// execution begins.
	hookRunning func(*Job)
}

// setRunningHook installs the test observation hook under the lock.
func (s *Service) setRunningHook(f func(*Job)) {
	s.mu.Lock()
	s.hookRunning = f
	s.mu.Unlock()
}

// drrQuantum is the DRR credit per scheduling visit, in budget steps.
const drrQuantum = 100_000

// New starts a service with Workers executor goroutines.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:        cfg,
		jobs:       make(map[string]*Job),
		inflight:   make(map[string]*Job),
		admissions: newLRUStore[*admission](cfg.ResultCacheCap),
		results:    newLRUStore[*cachedResult](cfg.ResultCacheCap),
		metrics:    newMetrics(),
		queue:      newDRRQueue(drrQuantum),
		started:    time.Now(),
	}
	s.work = sync.NewCond(&s.mu)
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Job returns the job record by ID.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// JobView returns the wire snapshot of a job. Terminal records past
// the retention cap or TTL have been evicted and report not-found.
func (s *Service) JobView(id string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pruneLocked(time.Now())
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return j.view(), true
}

// Submit admits one job. The returned Job is terminal immediately for
// rejections (StatusRejected, with the gate's diagnostics attached) and
// cache hits (StatusDone, Cached); otherwise it is queued to execute
// once, by itself. ErrQueueFull and ErrDraining report backpressure
// without creating a job record; parse failures wrap ErrBadRequest.
func (s *Service) Submit(req SubmitRequest) (*Job, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	s.metrics.Submitted++
	s.mu.Unlock()

	fe, err := s.loadSubmission(req)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	adm, _ := s.admit(fe.prog, entryRegs(fe.params, req.Args, req.Entry))
	prog := fe.prog
	if adm.optimized != nil {
		prog = adm.optimized
	}
	return s.settle(req, adm, prog, fe.autopar)
}

// settle turns one admitted submission into its job record and decides
// the job's fate under a single hold of the service mutex: rejected,
// served from the result cache, bounced off the full queue, or queued
// with one executor woken.
func (s *Service) settle(req SubmitRequest, adm *admission, prog *tpal.Program, autoRep *AutoparReport) (*Job, error) {
	tenant := req.Tenant
	if tenant == "" {
		tenant = "anonymous"
	}
	heartbeat := s.cfg.Heartbeat
	if req.Heartbeat > 0 {
		heartbeat = req.Heartbeat
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	regs := make(machine.RegFile, len(req.Args))
	for k, v := range req.Args {
		regs[tpal.Reg(k)] = machine.IntV(v)
	}

	now := time.Now()
	j := &Job{
		Tenant:      tenant,
		Fingerprint: adm.fingerprint,
		Quote:       adm.quote,
		Autopar:     autoRep,
		Submitted:   now,
		prog:        prog,
		regs:        regs,
		heartbeat:   heartbeat,
		timeout:     timeout,
		traced:      req.Trace,
		done:        make(chan struct{}),
	}
	if req.Fuel > 0 && req.Fuel < j.Quote.Budget {
		j.Quote.Budget = req.Fuel
	}
	j.cost = j.Quote.Budget
	if j.cost <= 0 {
		j.cost = 1
	}
	j.cacheKey = resultKey(adm.fingerprint, req.Args, heartbeat)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	s.seq++
	j.ID = fmt.Sprintf("j%06d", s.seq)

	var cached *cachedResult
	if !j.traced {
		cached, _ = s.results.get(j.cacheKey)
	}

	switch {
	case adm.rejected:
		j.Status = StatusRejected
		j.Diags = adm.diags
		j.Error = adm.reason
		j.Finished = now
		s.jobs[j.ID] = j
		s.metrics.Rejected++
		s.finishLocked(j)

	case cached != nil:
		j.Status = StatusDone
		j.Result = cached.result
		j.Stats = cached.stats
		j.Cached = true
		j.Started = now
		j.Finished = now
		s.jobs[j.ID] = j
		s.metrics.ResultHits++
		s.metrics.Admitted++
		s.metrics.Completed++
		s.metrics.noteAutopar(j.Autopar)
		s.finishLocked(j)

	case s.queue.len() >= s.cfg.QueueCap:
		s.metrics.Throttled++
		return nil, ErrQueueFull

	default:
		j.Status = StatusQueued
		s.jobs[j.ID] = j
		s.metrics.Admitted++
		s.metrics.noteAutopar(j.Autopar)
		s.publishLocked(j, statusEvent(j))
		s.queue.push(j)
		s.work.Signal()
	}
	return j, nil
}

// worker is one executor goroutine: it pops the next job DRR grants
// and marks it running under one hold of the service mutex, waiting on
// the condition variable while the queue is empty. It exits once the
// service is draining and nothing is queued.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for s.queue.len() == 0 && !s.draining {
			s.work.Wait()
		}
		j := s.queue.pop()
		if j == nil {
			s.mu.Unlock()
			return
		}
		j.Status = StatusRunning
		j.Started = time.Now()
		s.inflight[j.ID] = j
		s.metrics.queueWait.add(float64(j.Started.Sub(j.Submitted)) / float64(time.Millisecond))
		s.publishLocked(j, statusEvent(j))
		hook := s.hookRunning
		s.mu.Unlock()

		if hook != nil {
			hook(j)
		}
		s.execute(j)
	}
}

// Trace streaming plumbing: the tracer's sink does a non-blocking send
// into a buffered channel; pumpTrace batches what arrives into SSE
// trace frames so a hot run produces bounded frame rates.
const (
	traceSinkBuffer = 1024
	traceBatchMax   = 64
)

// execute runs one admitted job on the abstract machine under the
// job's fuel budget and deadline, then classifies the outcome.
func (s *Service) execute(j *Job) {
	ctx, cancel := context.WithTimeout(s.baseCtx, j.timeout)
	s.mu.Lock()
	j.cancel = cancel
	s.metrics.Executions++
	s.mu.Unlock()
	defer cancel()

	var tracer *trace.Tracer
	var sink chan trace.Event
	var pumpDone chan struct{}
	var sinkDropped atomic.Int64
	if j.traced {
		tracer = trace.New(1, jobTraceCapacity)
		sink = make(chan trace.Event, traceSinkBuffer)
		tracer.SetSink(func(e trace.Event) {
			select {
			case sink <- e:
			default: // live feed saturated; the ring stays exact
				sinkDropped.Add(1)
			}
		})
		pumpDone = make(chan struct{})
		go func() {
			defer close(pumpDone)
			s.pumpTrace(j, sink, &sinkDropped)
		}()
	}

	// Admission already ran the full pipeline (and cached it), so the
	// machine's own load-time verification pass is skipped.
	runCfg := machine.Config{
		Heartbeat:  j.heartbeat,
		Fuel:       j.Quote.Budget,
		MaxSteps:   1 << 60, // the fuel budget, not the runaway default, bounds the run
		Context:    ctx,
		Regs:       j.regs,
		SkipVerify: true,
		Trace:      machine.Record(tracer),
	}
	res, err := machine.Run(j.prog, runCfg)
	if tracer != nil {
		// Run has returned, so no goroutine records into the tracer
		// anymore; closing the sink flushes and stops the pump.
		close(sink)
		<-pumpDone
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	j.Finished = time.Now()
	execNanos := j.Finished.Sub(j.Started).Nanoseconds()
	s.metrics.exec.add(float64(execNanos) / float64(time.Millisecond))
	s.metrics.ExecNanos += execNanos
	delete(s.inflight, j.ID)
	j.cancel = nil
	if tracer != nil {
		j.Trace = jobTraceOf(tracer.Drain())
		s.metrics.TracedJobs++
		for k, n := range j.Trace.Counts {
			s.metrics.traceCounts[k] += n
		}
	}

	switch {
	case err == nil:
		j.Status = StatusDone
		j.Result = renderRegs(res.Regs)
		j.Stats = statsOf(res.Stats)
		s.metrics.Promotions += res.Stats.HandlerRuns
		s.results.put(j.cacheKey, &cachedResult{result: j.Result, stats: j.Stats})
		s.metrics.Completed++
	case errors.Is(err, machine.ErrFuel), errors.Is(err, machine.ErrMaxSteps):
		j.Status = StatusBudget
		j.Error = fmt.Sprintf("budget of %d steps exceeded", j.Quote.Budget)
		s.metrics.BudgetExceeded++
	case errors.Is(err, machine.ErrInterrupted):
		if errors.Is(err, context.DeadlineExceeded) {
			j.Status = StatusTimeout
			j.Error = fmt.Sprintf("deadline of %s exceeded", j.timeout)
			s.metrics.Timeouts++
		} else {
			j.Status = StatusCanceled
			j.Error = "canceled during drain"
			s.metrics.Canceled++
		}
	default:
		j.Status = StatusFailed
		j.Error = err.Error()
		s.metrics.Failed++
	}
	s.finishLocked(j)
}

// pumpTrace forwards live tracer events to the job's event stream in
// batches. It exits when the sink channel closes (after Run returns).
func (s *Service) pumpTrace(j *Job, sink <-chan trace.Event, dropped *atomic.Int64) {
	for ev := range sink {
		batch := make([]string, 1, traceBatchMax)
		batch[0] = ev.String()
	fill:
		for len(batch) < traceBatchMax {
			select {
			case ev, ok := <-sink:
				if !ok {
					break fill
				}
				batch = append(batch, ev.String())
			default:
				break fill
			}
		}
		frame := jobEvent{Kind: eventKindTrace, Data: jobEventData{
			ID:      j.ID,
			Events:  batch,
			Dropped: dropped.Swap(0),
		}}
		s.mu.Lock()
		s.publishLocked(j, frame)
		s.mu.Unlock()
	}
}

// finishLocked settles a job that just reached a terminal state: it
// publishes the terminal event, closes the done channel and every
// subscriber feed, and moves the record onto the bounded retention
// list. The caller holds the service mutex, has set Status/Finished
// and the outcome fields, and has counted the job's outcome metric.
func (s *Service) finishLocked(j *Job) {
	s.publishLocked(j, statusEvent(j))
	// A terminal job is kept for its view only. Dropping the execution
	// inputs here — each submission parses its own program — is what
	// keeps the retained record small.
	j.prog, j.regs = nil, nil
	close(j.done)
	for _, c := range j.subs {
		close(c)
	}
	j.subs = nil
	s.retireLocked(j)
}

// retireLocked appends a terminal job to the retention list and prunes.
func (s *Service) retireLocked(j *Job) {
	s.retired = append(s.retired, j)
	s.pruneLocked(time.Now())
}

// pruneLocked evicts terminal job records past the retention cap or
// older than the TTL. The retired list is in finish order, so evicting
// from the head removes the oldest records first. Queued and running
// jobs are not on the list and therefore never evicted.
func (s *Service) pruneLocked(now time.Time) {
	for len(s.retired) > 0 {
		old := s.retired[0]
		overCap := len(s.retired) > s.cfg.JobRetention
		expired := now.Sub(old.Finished) > s.cfg.JobTTL
		if !overCap && !expired {
			break
		}
		s.retired[0] = nil
		s.retired = s.retired[1:]
		if s.jobs[old.ID] == old {
			delete(s.jobs, old.ID)
			s.metrics.JobsEvicted++
		}
	}
	// Re-home the slice when the window has slid far from its backing
	// array, so the evicted prefix can be collected.
	if cap(s.retired) > 64 && len(s.retired) < cap(s.retired)/4 {
		s.retired = append(make([]*Job, 0, len(s.retired)), s.retired...)
	}
}

func renderRegs(regs machine.RegFile) map[string]string {
	out := make(map[string]string, len(regs))
	for r, v := range regs {
		out[string(r)] = v.String()
	}
	return out
}

// Drain gracefully shuts the service down: admission stops (new
// submissions fail with ErrDraining), every queued-but-unstarted job is
// canceled, and in-flight jobs run to completion. If ctx expires first, in-flight jobs are
// interrupted through their run contexts and the drain still completes.
// Drain is idempotent; it returns once every worker goroutine has
// exited.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	if !already {
		now := time.Now()
		for _, j := range s.queue.drainAll() {
			j.Status = StatusCanceled
			j.Error = "server draining"
			j.Finished = now
			s.metrics.Canceled++
			s.finishLocked(j)
		}
	}
	s.work.Broadcast()
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		// Forced drain: interrupt whatever is still running, then wait
		// for the workers to observe the cancellation.
		s.baseCancel()
		<-done
	}
	if !already {
		s.baseCancel()
	}
	return err
}

// Draining reports whether the service has stopped admitting.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}
