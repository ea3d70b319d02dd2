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
	"sync/atomic"
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
	Elapsed time.Duration
	Sched   sched.Stats
	// WorkNanos and SpanNanos are cost-model work (T₁) and critical-path
	// span (T∞); see the heartbeat package for the projection model.
	WorkNanos int64
	SpanNanos int64
}

// Run executes root to completion on a fresh pool.
func (rt *RT) Run(root func(*Ctx)) Stats {
	pool := sched.NewPool(rt.cfg.Workers)
	var rootSpan int64
	pool.Run(func(w *sched.Worker) {
		c := &Ctx{w: w, rt: rt, start: time.Now()}
		root(c)
		rootSpan = c.finish()
	})
	st := Stats{Elapsed: pool.Elapsed(), Sched: pool.Stats(), SpanNanos: rootSpan}
	st.WorkNanos = st.Sched.SelfWorkNanos
	return st
}

// ProjectedTime estimates the run's duration on p cores from measured
// work and span (greedy-scheduler bound), as heartbeat.Stats does.
func (s Stats) ProjectedTime(p int) time.Duration {
	if p < 1 {
		p = 1
	}
	return time.Duration(s.WorkNanos/int64(p) + s.SpanNanos)
}

// Run is a convenience: build a runtime from cfg and run root once.
func Run(cfg Config, root func(*Ctx)) Stats {
	return New(cfg).Run(root)
}

// Ctx is a Cilk task context.
type Ctx struct {
	w  *sched.Worker
	rt *RT

	// Critical-path tracking; see the heartbeat package's Ctx for the
	// model. Clock reads happen only at spawn/sync boundaries.
	start  time.Time
	base   int64
	helped int64
	floor  int64
}

// Worker returns the executing worker.
func (c *Ctx) Worker() *sched.Worker { return c.w }

func (c *Ctx) selfNanos() int64 {
	return time.Since(c.start).Nanoseconds() - c.helped
}

// SpanNow is the span of the critical path through this task as of now.
func (c *Ctx) SpanNow() int64 {
	s := c.base + c.selfNanos()
	if c.floor > s {
		return c.floor
	}
	return s
}

func (c *Ctx) finish() int64 {
	c.w.AddSelfWork(c.selfNanos())
	return c.SpanNow()
}

func (c *Ctx) raiseFloor(span int64) {
	if span > c.floor {
		c.floor = span
	}
}

// setSpan rebases the context so SpanNow() returns v. Used by the
// inline spawn path to splice a branch executed sequentially onto the
// logical forked timeline: in the Cilk DAG a spawned branch runs in
// parallel with its continuation whether or not a thief took it, so the
// measured span must fork at every spawn even on one worker. Floors
// raised within the rebased interval are clamped along.
func (c *Ctx) setSpan(v int64) {
	c.base = v - c.selfNanos()
	if c.floor > v {
		c.floor = v
	}
}

// syncInline folds an inline-executed branch into the forked timeline:
// the branch ran over [afterCont, now) of the sequential clock but
// logically started at spawnSpan; the span after the sync is the max of
// the continuation's completion and the branch's logical completion.
func (c *Ctx) syncInline(spawnSpan, afterCont int64) {
	now := c.SpanNow()
	logical := now - (afterCont - spawnSpan)
	if afterCont > logical {
		c.setSpan(afterCont)
	} else {
		c.setSpan(logical)
	}
}

func maxInto(a *atomic.Int64, v int64) {
	for {
		old := a.Load()
		if v <= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

// Spawn2 runs a and b as a fork-join pair with eager task creation: b
// becomes a task immediately (continuation available to thieves), a runs
// first on this worker, and the pair joins before returning. Even when
// no thief takes b, the spawn has paid for the task's allocation and
// deque round trip — the per-spawn overhead Figure 6 measures.
func (c *Ctx) Spawn2(a, b func(*Ctx)) {
	// One allocation per spawn: the task embeds its join counter and its
	// deque box. This is the eager cost Cilk always pays, as close to
	// the C++ runtime's spawn-frame cost as Go permits.
	task := &spawnTask{fn: b, rt: c.rt, base: c.SpanNow()}
	task.j.pending.Store(1)
	task.box.Bind(task)
	c.w.Spawn(&task.box)

	a(c)

	// Sync: try to take b back from our own deque bottom.
	if t := c.w.Deque().PopBottom(); t != nil {
		st, ok := t.(*spawnTask)
		if ok && st == task {
			// Not stolen: run inline in this context, then splice the
			// branch onto the forked timeline.
			afterCont := c.SpanNow()
			st.runInline(c)
			c.syncInline(task.base, afterCont)
			return
		}
		// Someone else's task surfaced (possible when helping inside
		// nested joins rearranged the deque): put it back and wait.
		c.w.Deque().PushBottom(t)
	}
	c.waitSpawn(&task.j)
}

func (c *Ctx) waitSpawn(j *spawnJoin) {
	t0 := time.Now()
	c.w.WaitJoin(&j.pending)
	c.helped += time.Since(t0).Nanoseconds()
	c.raiseFloor(j.spanMax.Load())
}

type spawnJoin struct {
	pending atomic.Int64
	spanMax atomic.Int64
}

type spawnTask struct {
	box  sched.Box
	j    spawnJoin
	fn   func(*Ctx)
	rt   *RT
	base int64
	ran  atomic.Bool
}

// Run implements sched.Task (the stolen path).
func (t *spawnTask) Run(w *sched.Worker) {
	if !t.ran.CompareAndSwap(false, true) {
		return
	}
	cc := &Ctx{w: w, rt: t.rt, start: time.Now(), base: t.base}
	t.fn(cc)
	maxInto(&t.j.spanMax, cc.finish())
	t.j.pending.Add(-1)
}

func (t *spawnTask) runInline(c *Ctx) {
	if !t.ran.CompareAndSwap(false, true) {
		// Lost a race we should never lose (we popped it ourselves).
		c.waitSpawn(&t.j)
		return
	}
	t.fn(c)
	t.j.pending.Add(-1)
}

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
