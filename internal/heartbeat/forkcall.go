package heartbeat

import (
	"tpal/internal/sched"
)

// Fork2Call is Fork2 for the common recursive pattern where both
// branches call the same function with different arguments: it runs
// f(c, aArg) with f(·, bArg) latent, promoting the latter on a
// heartbeat. The latent branch is a frame written in place on the
// context's stack of A-typed frames and popped by a length decrement:
// the serial path allocates nothing and synchronizes nothing — the
// runtime analogue of TPAL's promotion-ready marks, which are just
// stack cells. Use it in recursion-heavy code (the paper's knapsack and
// fib) where the frames are nearly empty and any per-call bookkeeping
// shows.
func Fork2Call[A any](c *Ctx, f func(*Ctx, A), aArg, bArg A) {
	// A fork is a promotion-ready program point, like the loop heads of
	// the paper's fib. Polling at every call keeps recursion within the
	// promotion-latency contract even with no loop in sight: the gap
	// between polls is one call body, the analogue of the per-frame
	// (stack-bounded) latency the static pass assigns TPAL's
	// recursive-function templates.
	c.Poll()
	s, _ := c.lastStack.(*callStack[A])
	if s == nil {
		s = callStackOf[A](c)
	}
	n := len(s.frames)
	opened := s.top != len(c.marks)
	if opened {
		s.openRun(c)
	}
	if n == cap(s.frames) {
		s.grow()
	}
	// Written field by field into the slot: building a callFrame and
	// copying it in stalls on store forwarding when the callee's first
	// act is to fork again.
	s.frames = s.frames[:n+1]
	fr := &s.frames[n]
	fr.f, fr.arg = f, bArg

	f(c, aArg)

	if len(s.frames) != n+1 {
		c.corrupted("popping a fork's frame")
	}
	// A nested fork may have grown the stack: find the slot again.
	fr = &s.frames[n]
	s.frames = s.frames[:n]
	if opened {
		s.closeRun(c)
	}
	j := fr.join
	if j == nil {
		// Still latent: run it inline. The slot is free for the
		// callee's own forks as soon as the argument is loaded.
		f(c, fr.arg)
		return
	}
	// Promoted: wait for the child (helping with other work meanwhile).
	fr.join = nil
	c.wait(j)
}

// callFrame is the latent second branch of a Fork2Call: f(·, arg) is
// yet to run. join is nil until a heartbeat promotes the branch, and nil
// again in every slot past the stack's length.
type callFrame[A any] struct {
	f    func(*Ctx, A)
	arg  A
	join *join
}

// callStack is a context's stack of latent Fork2Call[A] branches, the
// youngest last. Its frames appear in the context's mark list as runs
// (see markRef); top is 1 + the mark-list index of the newest run, so a
// fork whose stack has top == len(marks) extends that run without
// touching the mark list, and noRun when no frame is latent.
type callStack[A any] struct {
	frames []callFrame[A]
	top    int
}

const noRun = -1

// frameStack is what a context knows of its callStacks, whatever their
// argument types.
type frameStack interface {
	mark
	reset()
}

// callStackOf returns c's stack of A-typed frames, creating it at the
// instantiation's first fork on this context, and makes it the
// context's lastStack.
func callStackOf[A any](c *Ctx) *callStack[A] {
	for _, fs := range c.stacks {
		if s, ok := fs.(*callStack[A]); ok {
			c.lastStack = s
			return s
		}
	}
	s := &callStack[A]{top: noRun}
	c.stacks = append(c.stacks, s)
	c.lastStack = s
	return s
}

// openRun starts a run of s's frames at the top of the mark list.
// Like closeRun and grow it is rare on a recursion's path and kept out
// of line so that Fork2Call's frame holds only what every call needs.
//
//go:noinline
func (s *callStack[A]) openRun(c *Ctx) {
	n := len(s.frames)
	if s.top != noRun {
		c.marks[s.top-1].hi = n
	}
	c.marks = append(c.marks, markRef{m: s, lo: n, prev: s.top})
	s.top = len(c.marks)
}

// closeRun removes s's newest run, now empty, from the top of the mark
// list. This is where a mark left above the run is caught: the frames
// that extended the run never looked at the list.
//
//go:noinline
func (s *callStack[A]) closeRun(c *Ctx) {
	n := len(c.marks) - 1
	if s.top != n+1 {
		c.corrupted("closing a run of fork frames")
	}
	s.top = c.marks[n].prev
	c.marks[n] = markRef{}
	c.marks = c.marks[:n]
}

// grow makes room for one more frame, keeping the length.
//
//go:noinline
func (s *callStack[A]) grow() {
	n := len(s.frames)
	s.frames = append(s.frames[:cap(s.frames)], callFrame[A]{})[:n]
}

// maxKeptFrames bounds the frame capacity a retired context keeps, and
// so what reset clears per task: one deep recursion must not tax every
// later task on the worker.
const maxKeptFrames = 1024

// reset drops what finished forks left in the slots past the stack's
// length. Called with no frame latent, when the context retires.
func (s *callStack[A]) reset() {
	if cap(s.frames) > maxKeptFrames {
		s.frames = nil
		return
	}
	clear(s.frames[:cap(s.frames)])
}

// promote turns one latent frame of the run at mark-list index at into
// a task: the run's oldest, or under InnerFirst its youngest. The run
// ends where the stack's next run begins — frames past that are younger
// than every mark in between.
func (s *callStack[A]) promote(c *Ctx, at int) bool {
	ref := &c.marks[at]
	lo, hi := ref.lo, ref.hi
	if s.top == at+1 {
		hi = len(s.frames)
	}
	inner := c.rt.cfg.Policy == InnerFirst
	for k := lo; k < hi; k++ {
		i := k
		if inner {
			i = lo + hi - 1 - k
		}
		fr := &s.frames[i]
		if fr.join != nil {
			continue
		}
		t := &forkCallTask[A]{f: fr.f, arg: fr.arg, rt: c.rt, base: c.SpanNow(), recID: c.recordSpawn()}
		t.j.pending.Store(1)
		fr.join = &t.j
		t.box.Bind(t)
		c.w.Spawn(&t.box)
		return true
	}
	return false
}

// forkCallTask is a promoted Fork2Call branch: the deque box, the join,
// the function and the argument in one allocation. The join outlives the
// task (the parent waits on it through the frame's join pointer), which
// is fine: the whole struct stays reachable until both sides are done.
type forkCallTask[A any] struct {
	box   sched.Box
	j     join
	f     func(*Ctx, A)
	arg   A
	rt    *RT
	base  int64
	recID int
}

// Run implements sched.Task.
func (t *forkCallTask[A]) Run(w *sched.Worker) {
	cc := newCtx(w, t.rt, t.base, t.recID)
	t.f(cc, t.arg)
	maxInto(&t.j.spanMax, cc.retire())
	t.j.pending.Add(-1)
}
