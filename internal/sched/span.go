package sched

import (
	"sync/atomic"
	"time"
)

// Span is a task's place in the fork-join cost model both runtimes
// project through: a task's span is its creation point's span plus its
// self time (wall time net of join waits), floored by the final spans
// of the tasks it joined. Clock reads happen only at task boundaries,
// spawns and joins, never on a serial path. Owner-goroutine only.
type Span struct {
	clock  Clock
	start  int64
	base   int64 // span at task creation, ns
	helped int64 // wall time spent inside join waits (helping or idle)
	floor  int64 // span floor raised by joined children
}

// Clock reads the time a Span measures, in nanoseconds from any fixed
// origin. A nil Clock is the monotonic wall clock.
type Clock func() int64

// epoch is the wall clock's origin.
var epoch = time.Now()

// Begin starts the span of a task created at span base, measured on
// clock.
func (s *Span) Begin(base int64, clock Clock) {
	*s = Span{clock: clock, base: base}
	s.start = s.read()
}

func (s *Span) read() int64 {
	if s.clock != nil {
		return s.clock()
	}
	return time.Since(epoch).Nanoseconds()
}

// Self is the task's self time so far.
func (s *Span) Self() int64 {
	return s.read() - s.start - s.helped
}

// Now is the span of the critical path through the task, as of now.
func (s *Span) Now() int64 {
	return max(s.base+s.Self(), s.floor)
}

// Rebase makes Now return v from here on, clamping a floor raised
// above v: a runtime that ran a branch inline uses it to splice the
// branch onto the timeline where the branch logically started.
func (s *Span) Rebase(v int64) {
	s.base = v - s.Self()
	s.floor = min(s.floor, v)
}

// Join is a completion counter for spawned tasks, carrying the largest
// final span among them.
type Join struct {
	pending atomic.Int64
	spanMax atomic.Int64
}

// Add counts n more tasks the join waits for.
func (j *Join) Add(n int64) { j.pending.Add(n) }

// Done retires one task of the join, whose final span was span.
func (j *Join) Done(span int64) {
	for {
		old := j.spanMax.Load()
		if span <= old || j.spanMax.CompareAndSwap(old, span) {
			break
		}
	}
	j.pending.Add(-1)
}

// Wait joins the tasks counted in j for the task whose span is s: the
// worker helps with other work until they are done (WaitJoin), then
// folds their span into s. The whole wait is non-self time.
func (w *Worker) Wait(s *Span, j *Join) {
	t0 := s.read()
	w.WaitJoin(&j.pending)
	s.helped += s.read() - t0
	s.floor = max(s.floor, j.spanMax.Load())
}

// Finish ends the task whose span is s: it records the task's self
// time as the worker's cost-model work and returns that self time and
// the task's final span.
func (w *Worker) Finish(s *Span) (self, span int64) {
	self = s.Self()
	w.SelfWorkNanos += self
	return self, max(s.base+self, s.floor)
}

// Cost is a run's cost-model work (T₁: total task self time) and
// critical-path span (T∞), both in nanoseconds. The heartbeat and Cilk
// runtimes measure them with the same Span and Join, so both project
// to core counts this host does not have identically.
type Cost struct {
	WorkNanos int64
	SpanNanos int64
}

// ProjectedTime estimates the run's duration on p cores by the greedy
// scheduler (Brent) bound T_P ≈ T₁/P + T∞.
func (c Cost) ProjectedTime(p int) time.Duration {
	if p < 1 {
		p = 1
	}
	return time.Duration(c.WorkNanos/int64(p) + c.SpanNanos)
}
