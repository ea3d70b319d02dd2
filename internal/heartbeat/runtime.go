// Package heartbeat is the TPAL runtime: task parallelism that stays
// latent — recorded only in promotion-ready marks — until a heartbeat
// interrupt promotes it into a real task.
//
// Code written against this package is the Go analogue of the paper's
// compiled TPAL output (Figures 3–5): loops and forks run serially by
// default, polling a per-worker heartbeat flag at promotion-ready
// program points; when the flag is up, the handler promotes the
// task's oldest latent parallelism (the outer-most-first policy that
// heartbeat scheduling's efficiency bounds require), splitting the
// remaining iterations of a loop or spawning the unstarted branch of a
// fork. Between heartbeats there is no task creation at all, so task
// overheads are amortized against ♥ worth of useful work.
package heartbeat

import (
	"runtime"
	"time"

	"tpal/internal/interrupt"
	"tpal/internal/sched"
	"tpal/internal/trace"
	"tpal/internal/vtime"
)

// PromotionPolicy selects which latent parallelism a heartbeat promotes.
type PromotionPolicy uint8

// Policies.
const (
	// OuterFirst promotes the least recently created (outermost) latent
	// parallelism, as heartbeat scheduling requires for its proven
	// bounds. This is the default.
	OuterFirst PromotionPolicy = iota
	// InnerFirst promotes the most recent mark instead. It exists for
	// the ablation benchmarks; it produces small tasks and poor scaling
	// on nested loops.
	InnerFirst
)

// Config configures a heartbeat runtime.
type Config struct {
	// Workers is the number of scheduler workers. Zero selects
	// GOMAXPROCS-1 (minimum 1), reserving a core for the interrupt
	// mechanism as the paper's setup reserves core 0.
	Workers int
	// Heartbeat is ♥. Zero selects 100µs, the paper's tuned value.
	Heartbeat time.Duration
	// Mechanism delivers heartbeats; nil selects interrupt.None, which
	// never fires (the Figure 8 configuration: TPAL binaries with the
	// heartbeat turned off).
	Mechanism interrupt.Mechanism
	// PollStride is the number of loop iterations between polls of the
	// heartbeat inside For/Reduce. It sets the runtime's
	// promotion-latency contract: every loop and fork combinator polls
	// at least once per stride of iterations (forks poll at every
	// call), and a delivered beat is observed within one poll stride of
	// work plus at most the adaptive skip, which is bounded by ~8 µs of
	// polling (the virtual clock is read every few microseconds of
	// polling, not at every poll; internal/interrupt/virtual.go) — the
	// dynamic counterpart of the bound the static liveness pass
	// (internal/tpal/analysis, DESIGN.md §8) proves for TPAL programs,
	// where every CFG cycle must cross a promotion-ready program point
	// within a known number of instructions. Zero selects 128: a poll
	// between clock reads is a decrement and a branch, so 128 keeps
	// poll costs below a percent even for single-instruction loop
	// bodies while holding that latency far below ♥ for any realistic
	// stride. Ranges no longer than one stride run with no loop state
	// at all.
	PollStride int
	// DisablePromotion makes polls consume heartbeats (paying the
	// receive-side cost) without promoting, isolating interrupt overhead
	// (the "Serial, interrupts only" bars of Figures 9 and 13).
	DisablePromotion bool
	// Policy selects the promotion policy; default OuterFirst.
	Policy PromotionPolicy
	// Recorder, when set, records the promotion DAG — every task's
	// spawn point within its parent and its self-execution time — for
	// replay on virtual cores with the vtime simulator.
	Recorder *vtime.Recorder
	// Tracer, when set, records typed scheduling events (task
	// executions, steals, beat observations, promotions, join waits)
	// into per-worker ring buffers; drain it after Run. Nil — the
	// default — disables tracing at the cost of one nil check per
	// event site. The tracer must have at least Workers lanes.
	Tracer *trace.Tracer
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0) - 1
		if c.Workers < 1 {
			c.Workers = 1
		}
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 100 * time.Microsecond
	}
	if c.Mechanism == nil {
		c.Mechanism = interrupt.None{}
	}
	if c.PollStride <= 0 {
		c.PollStride = 128
	}
	return c
}

// RT is a heartbeat runtime instance. An RT runs one root computation
// per Run call on a fresh worker pool.
type RT struct {
	cfg Config
}

// New creates a runtime with the given configuration.
func New(cfg Config) *RT {
	return &RT{cfg: cfg.withDefaults()}
}

// Stats describes one Run.
type Stats struct {
	Elapsed    time.Duration
	Sched      sched.Stats
	Interrupts interrupt.Stats
	Promotions int64
	// WorkNanos and SpanNanos are the run's cost-model work (T₁: total
	// task self time) and critical-path span (T∞), used to project
	// performance at core counts this host does not have via Brent's
	// bound T_P ≈ T₁/P + T∞.
	WorkNanos int64
	SpanNanos int64
}

// ProjectedTime estimates the run's duration on p cores from the
// measured work and span (greedy-scheduler bound).
func (s Stats) ProjectedTime(p int) time.Duration {
	if p < 1 {
		p = 1
	}
	return time.Duration(s.WorkNanos/int64(p) + s.SpanNanos)
}

// Run executes root under heartbeat scheduling and returns run
// statistics. The root function receives a Ctx bound to the worker that
// picks it up.
func (rt *RT) Run(root func(*Ctx)) Stats {
	pool := sched.NewPool(rt.cfg.Workers)
	pool.SetTracer(rt.cfg.Tracer)
	rt.cfg.Mechanism.Start(pool.Workers(), rt.cfg.Heartbeat)
	var rootSpan int64
	pool.Run(func(w *sched.Worker) {
		c := newCtx(w, rt, 0, 0)
		root(c)
		rootSpan = c.finish()
	})
	rt.cfg.Mechanism.Stop()
	st := Stats{
		Elapsed:    pool.Elapsed(),
		Sched:      pool.Stats(),
		Interrupts: rt.cfg.Mechanism.Stats(),
		Promotions: pool.TasksCreated(),
		SpanNanos:  rootSpan,
	}
	st.WorkNanos = st.Sched.SelfWorkNanos
	return st
}

// Run is a convenience: build a runtime from cfg and run root once.
func Run(cfg Config, root func(*Ctx)) Stats {
	return New(cfg).Run(root)
}
