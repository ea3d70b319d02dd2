// Package cilk is the baseline the paper compares against: a Cilk
// Plus-style scheduler with eager task creation. Every Spawn2 pays its
// task cost up front (closure allocation plus deque traffic, the Go
// analogue of Cilk's spawn frame), and For implements cilk_for's
// granularity heuristic — split the range into 8·P blocks, capped at a
// grain of 2048 iterations, then subdivide by spawning binary halves.
//
// The contrast with internal/heartbeat is the point of the comparison:
// Cilk decides task granularity once, from a static heuristic, and pays
// for every task it creates whether or not parallelism was needed;
// heartbeat scheduling decides at run time, paying only on beats.
package cilk

import (
	"runtime"
	"time"

	"tpal/internal/sched"
)

// Config configures a Cilk-style scheduler run.
type Config struct {
	// Workers is the number of workers; zero selects GOMAXPROCS-1
	// (minimum 1), matching the heartbeat runtime's reservation of one
	// core so comparisons are like for like.
	Workers int
	// Grain caps loop leaf size; zero selects Cilk Plus's default
	// min(2048, ceil(N/(8P))) rule. Setting Grain = 1 gives the
	// maximal-task-count ablation.
	Grain int
	// HeuristicWorkers is the P used by the 8P grain rule when it
	// differs from the actual worker count — the harness sets it to the
	// simulated machine's core count when projecting runs measured on
	// fewer real cores.
	HeuristicWorkers int

	// clock, when set, is the clock task spans are measured on instead
	// of the wall clock.
	clock sched.Clock
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0) - 1
		if c.Workers < 1 {
			c.Workers = 1
		}
	}
	if c.HeuristicWorkers <= 0 {
		c.HeuristicWorkers = c.Workers
	}
	return c
}

// RT is a Cilk-style runtime instance.
type RT struct {
	cfg Config
}

// New creates a runtime.
func New(cfg Config) *RT { return &RT{cfg: cfg.withDefaults()} }

// Stats describes one Run.
type Stats struct {
	Elapsed    time.Duration
	Sched      sched.Stats
	sched.Cost // work and span, measured as the heartbeat runtime does
}

// Run executes root to completion on a fresh pool.
func (rt *RT) Run(root func(*Ctx)) Stats {
	pool := sched.NewPool(rt.cfg.Workers)
	var rootSpan int64
	pool.Run(func(w *sched.Worker) {
		c := newCtx(w, rt, 0)
		root(c)
		_, rootSpan = w.Finish(&c.span)
	})
	st := Stats{Elapsed: pool.Elapsed(), Sched: pool.Stats()}
	st.Cost = sched.Cost{WorkNanos: st.Sched.SelfWorkNanos, SpanNanos: rootSpan}
	return st
}

// Run is a convenience: build a runtime from cfg and run root once.
func Run(cfg Config, root func(*Ctx)) Stats {
	return New(cfg).Run(root)
}

// Ctx is a Cilk task context: the worker it runs on and the task's
// span.
type Ctx struct {
	w    *sched.Worker
	rt   *RT
	span sched.Span
}

// newCtx returns the context of a task created at span base, starting
// now on w.
func newCtx(w *sched.Worker, rt *RT, base int64) *Ctx {
	c := &Ctx{w: w, rt: rt}
	c.span.Begin(base, rt.cfg.clock)
	return c
}

// Spawn2 runs a and b as a fork-join pair with eager task creation: b
// becomes a task immediately (continuation available to thieves), a runs
// first on this worker, and the pair joins before returning. Even when
// no thief takes b, the spawn has paid for the task's allocation and
// deque round trip — the per-spawn overhead Figure 6 measures. It is
// Spawn2Call with the closures as the arguments, except that a is
// called directly: passed through callClosure, a would escape to the
// heap and cost every spawn a second allocation.
func (c *Ctx) Spawn2(a, b func(*Ctx)) {
	t := spawn(c, callClosure, b)
	a(c)
	t.sync(c)
}

func callClosure(c *Ctx, fn func(*Ctx)) { fn(c) }

// GrainFor returns the leaf size cilk_for would use for n iterations on
// p workers: min(2048, ceil(n/(8p))), at least 1.
func GrainFor(n, p int) int {
	if p < 1 {
		p = 1
	}
	g := (n + 8*p - 1) / (8 * p)
	if g > 2048 {
		g = 2048
	}
	if g < 1 {
		g = 1
	}
	return g
}

// For is cilk_for: recursive binary subdivision down to the grain, with
// a spawn at every split.
func (c *Ctx) For(lo, hi int, body func(i int)) {
	c.ForNested(lo, hi, func(_ *Ctx, i int) { body(i) })
}

// ForNested is For for bodies that spawn or loop in parallel themselves:
// the body receives the context of the task executing the iteration.
func (c *Ctx) ForNested(lo, hi int, body func(cc *Ctx, i int)) {
	if hi <= lo {
		return
	}
	grain := c.rt.cfg.Grain
	if grain <= 0 {
		grain = GrainFor(hi-lo, c.rt.cfg.HeuristicWorkers)
	}
	c.forRec(lo, hi, grain, body)
}

func (c *Ctx) forRec(lo, hi, grain int, body func(cc *Ctx, i int)) {
	if hi-lo > grain {
		mid := lo + (hi-lo)/2
		c.Spawn2(
			func(cc *Ctx) { cc.forRec(lo, mid, grain, body) },
			func(cc *Ctx) { cc.forRec(mid, hi, grain, body) },
		)
		return
	}
	for i := lo; i < hi; i++ {
		body(c, i)
	}
}

// Reduce folds leaf blocks over [lo, hi) with combine applied in range
// order, using the same subdivision as For; each spawn combines its two
// halves at the join, the Cilk reducer pattern.
func Reduce[T any](c *Ctx, lo, hi int, combine func(T, T) T, leaf func(lo, hi int) T) T {
	var zero T
	if hi <= lo {
		return zero
	}
	grain := c.rt.cfg.Grain
	if grain <= 0 {
		grain = GrainFor(hi-lo, c.rt.cfg.HeuristicWorkers)
	}
	return reduceRec(c, lo, hi, grain, combine, leaf)
}

func reduceRec[T any](c *Ctx, lo, hi, grain int, combine func(T, T) T, leaf func(int, int) T) T {
	if hi-lo <= grain {
		return leaf(lo, hi)
	}
	mid := lo + (hi-lo)/2
	var left, right T
	c.Spawn2(
		func(cc *Ctx) { left = reduceRec(cc, lo, mid, grain, combine, leaf) },
		func(cc *Ctx) { right = reduceRec(cc, mid, hi, grain, combine, leaf) },
	)
	return combine(left, right)
}
