package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tpal/internal/trace"
)

// Pool is a set of workers executing tasks cooperatively through
// work stealing. A pool runs one root task to completion per Run call;
// between tasks a worker spins, then yields, then parks until a spawn
// wakes it — the paper's runtime keeps worker threads hot for the
// duration of a benchmark, and a parked worker is back within a wake-up,
// not a timer tick.
type Pool struct {
	workers []*Worker
	done    atomic.Bool
	wg      sync.WaitGroup

	// parked counts workers blocked (or about to block) on wake; a
	// spawn that sees it non-zero hands one of them a token. wake is
	// buffered to the worker count, so a token sent before its worker
	// blocks is kept, and a full buffer already holds one per parker.
	parked atomic.Int32
	wake   chan struct{}

	tasksCreated atomic.Int64

	started   time.Time
	elapsed   time.Duration
	startOnce sync.Once
}

// NewPool creates a pool with n workers (n >= 1). Workers are not
// started until Run.
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{wake: make(chan struct{}, n)}
	p.workers = make([]*Worker, n)
	for i := range p.workers {
		p.workers[i] = &Worker{
			id:    i,
			pool:  p,
			deque: NewDeque(),
			rng:   uint64(i)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D,
		}
	}
	return p
}

// Workers returns the pool's workers, for interrupt mechanisms and
// accounting.
func (p *Pool) Workers() []*Worker { return p.workers }

// SetTracer installs an event tracer on every worker (nil disables
// tracing). Call before Run; the tracer must have at least as many
// worker lanes as the pool has workers.
func (p *Pool) SetTracer(t *trace.Tracer) {
	for _, w := range p.workers {
		w.tracer = t
	}
}

// NumWorkers returns the worker count.
func (p *Pool) NumWorkers() int { return len(p.workers) }

// TasksCreated returns the number of tasks created during Run: one per
// Worker.Spawn, which the heartbeat and Cilk layers call at every
// promotion / spawn, so Figure 15a's task counts come from one place.
func (p *Pool) TasksCreated() int64 { return p.tasksCreated.Load() }

// Run executes root on worker 0 and returns when it and every task it
// transitively created have completed. It may be called once per pool.
func (p *Pool) Run(root func(w *Worker)) {
	p.workers[0].deque.PushBottom(TaskFunc(func(w *Worker) {
		// The root's join structure guarantees all transitive work
		// completed before it returns, so its return ends the run.
		defer p.finish()
		root(w)
	}))

	p.started = time.Now()
	// Every worker runs the generic loop; worker 0 picks up the root
	// task immediately (it is at its own bottom).
	for _, w := range p.workers {
		p.wg.Add(1)
		go p.workerLoop(w)
	}
	p.wg.Wait()
	p.elapsed = time.Since(p.started)
}

// Elapsed returns the wall-clock duration of Run.
func (p *Pool) Elapsed() time.Duration { return p.elapsed }

// Idle escalation: a worker whose steal sweeps keep failing spins for
// spinSweeps of them, yields its thread until yieldSweeps, then parks.
const (
	spinSweeps  = 8
	yieldSweeps = 64
)

func (p *Pool) workerLoop(w *Worker) {
	defer p.wg.Done()
	fails := 0
	for !p.done.Load() {
		if t := w.PopOrSteal(); t != nil {
			fails = 0
			w.Execute(t)
			continue
		}
		fails++
		switch {
		case fails < spinSweeps:
		case fails < yieldSweeps:
			runtime.Gosched()
		default:
			if t := p.park(w); t != nil {
				w.Execute(t)
			}
			fails = 0
		}
	}
}

// park blocks w until a spawn or the end of the run wakes it. No
// wake-up is lost: the worker announces itself in parked before its
// last look at the deques and at done, and Spawn and finish publish
// (push the task, set done) before they read parked — so either that
// last look finds what was published, which park returns, or the
// publisher sees the announcement and leaves a token.
func (p *Pool) park(w *Worker) Task {
	p.parked.Add(1)
	defer p.parked.Add(-1)
	if t := w.trySteal(); t != nil || p.done.Load() {
		return t
	}
	<-p.wake
	return nil
}

// wakeOne hands one parked worker a token. Never blocks: when the
// buffer is full there is already a token for every worker.
func (p *Pool) wakeOne() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// finish ends the run: workers between tasks see done, parked ones are
// woken to see it.
func (p *Pool) finish() {
	p.done.Store(true)
	for range p.workers {
		p.wakeOne()
	}
}

// idlePause is a single short pause used inside join waits.
func (p *Pool) idlePause() {
	runtime.Gosched()
}

// Stats aggregates per-worker accounting after Run.
type Stats struct {
	Elapsed        time.Duration
	Workers        int
	TasksCreated   int64
	TasksExecuted  int64
	Steals         int64
	FailedSteals   int64
	HeartbeatsSeen int64
	PenaltyNanos   int64
	BusyNanos      int64
	JoinIdleNanos  int64
	SelfWorkNanos  int64
}

// Stats returns aggregated counters. Call after Run returns.
func (p *Pool) Stats() Stats {
	s := Stats{
		Elapsed:      p.elapsed,
		Workers:      len(p.workers),
		TasksCreated: p.tasksCreated.Load(),
	}
	for _, w := range p.workers {
		s.TasksExecuted += w.TasksExecuted
		s.Steals += w.Steals
		s.FailedSteals += w.FailedSteals
		s.HeartbeatsSeen += w.HeartbeatsSeen
		s.PenaltyNanos += w.PenaltyNanos
		s.BusyNanos += w.BusyNanos
		s.JoinIdleNanos += w.JoinIdleNanos
		s.SelfWorkNanos += w.SelfWorkNanos
	}
	return s
}

// Utilization is the fraction of total worker wall time spent doing
// useful work: busy time minus time idling inside joins, over workers ×
// elapsed. This is the measure of Figure 15b.
func (s Stats) Utilization() float64 {
	total := float64(s.Elapsed.Nanoseconds()) * float64(s.Workers)
	if total <= 0 {
		return 0
	}
	useful := float64(s.BusyNanos - s.JoinIdleNanos)
	if useful < 0 {
		useful = 0
	}
	u := useful / total
	if u > 1 {
		u = 1
	}
	return u
}
