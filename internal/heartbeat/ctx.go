package heartbeat

import (
	"fmt"

	"tpal/internal/sched"
	"tpal/internal/trace"
)

// Ctx is a task's execution context: the worker it runs on plus its
// promotion-ready mark list. The mark list is the runtime analogue of
// the paper's per-task promotion-ready marks: one entry per piece of
// latent parallelism, ordered oldest first, touched only by the owning
// goroutine (promotion happens synchronously inside poll, exactly as
// TPAL's handler runs in the interrupted task).
//
// Latent parallelism lives by value in stacks the context owns — loops
// in progress in loops, the unstarted branches of forks in one
// callStack per argument type — and marks orders it: like TPAL's marks,
// which are stack cells, recording a loop or a fork allocates nothing,
// and promoted tasks capture only their separately allocated join,
// never a stack slot.
type Ctx struct {
	w  *sched.Worker
	rt *RT

	marks     []markRef
	loops     []loopState
	stacks    []frameStack // every callStack this context has used
	lastStack frameStack   // the one used last: Fork2Call's first guess

	span  sched.Span // the task's place in the cost model
	recID int        // task id in the vtime recorder, when recording
}

// ctxFreeList is a worker's free list of task contexts, kept in
// sched.Worker.Scratch. A list, not a slot: helping inside a join runs
// a task inside a task, so several contexts are live on one worker.
type ctxFreeList struct {
	free []*Ctx
}

// newCtx returns a context for a task starting now on w, reusing a
// retired one — with its mark list and stacks already grown — when the
// worker has one, so a steady-state promoted task allocates nothing
// beyond its task struct.
func newCtx(w *sched.Worker, rt *RT, base int64, recID int) *Ctx {
	fl, _ := w.Scratch.(*ctxFreeList)
	if fl == nil {
		fl = &ctxFreeList{}
		w.Scratch = fl
	}
	var c *Ctx
	if n := len(fl.free); n > 0 {
		c = fl.free[n-1]
		fl.free = fl.free[:n-1]
	} else {
		c = &Ctx{}
	}
	c.w, c.rt, c.recID = w, rt, recID
	c.span.Begin(base, nil)
	return c
}

// retire finishes the task (see finish) and returns its context to the
// worker's free list. The task's function has returned, so its marks
// are all popped; what the stacks still hold past their lengths is the
// arguments of forks long finished, dropped here so that a parked
// context retains none of a finished task's data.
func (c *Ctx) retire() int64 {
	span := c.finish()
	if len(c.marks) != 0 {
		c.corrupted("task finished")
	}
	for _, s := range c.stacks {
		s.reset()
	}
	fl := c.w.Scratch.(*ctxFreeList)
	fl.free = append(fl.free, c)
	return span
}

// finish records the task's self time as work, and with the vtime
// recorder if there is one, and returns the task's final span. Called
// exactly once, when the task's function returns.
func (c *Ctx) finish() int64 {
	self, span := c.w.Finish(&c.span)
	if rec := c.rt.cfg.Recorder; rec != nil {
		rec.Finish(c.recID, self)
	}
	return span
}

// recordSpawn registers a promotion with the vtime recorder (if any)
// and returns the child's recorder id.
func (c *Ctx) recordSpawn() int {
	if rec := c.rt.cfg.Recorder; rec != nil {
		return rec.Spawn(c.recID, c.span.Self())
	}
	return 0
}

// Worker returns the worker currently executing this context.
func (c *Ctx) Worker() *sched.Worker { return c.w }

// mark is latent parallelism a mark-list entry can refer to through an
// interface. It has two implementers: a callStack and a foldState (a
// Reduce or Accumulate in progress).
type mark interface {
	// promote manifests latent parallelism of the mark-list entry at as
	// a task if possible, returning whether a task was created.
	promote(c *Ctx, at int) bool
}

// markRef is one entry of the promotion-ready mark list. With m nil it
// stands for the loop c.loops[lo]. With m a callStack it stands for a
// run of that stack's frames — forks nested directly inside one another
// with no other mark between them — so a recursion enters the mark list
// once, not once per call: the run starts at frame lo and extends to
// hi, or to the top of the stack while it is the stack's newest run (hi
// is written when a younger run opens). prev is the stack's top before
// the run opened, restored when it closes. With m a foldState the entry
// uses no further field.
type markRef struct {
	m            mark
	lo, hi, prev int
}

func (c *Ctx) pushMark(m mark) {
	c.marks = append(c.marks, markRef{m: m})
}

func (c *Ctx) popMark(m mark) {
	n := len(c.marks) - 1
	if n < 0 || c.marks[n].m != m {
		c.corrupted(fmt.Sprintf("popping %T", m))
	}
	c.marks[n] = markRef{}
	c.marks = c.marks[:n]
}

// corrupted reports a mark that is not where its owner left it: marks
// are pushed and popped in strict stack order by the combinators, so
// this is a bug in one of them (or a Ctx used from two goroutines).
func (c *Ctx) corrupted(doing string) {
	panic(fmt.Sprintf("heartbeat: mark list corrupted: %s, list is %v", doing, c.marks))
}

// Poll is the promotion-ready program point — the runtime analogue of
// arriving at a TPAL prppt block head. Its fast path, inlined at every
// poll site, counts off a poll the beat source asked the worker to skip
// (a decrement and a branch). Otherwise it consults the worker's beat
// source out of line and, when a beat fired, services it —
// paying the simulated handler cost and promoting the oldest promotable
// latent parallelism.
//
// Every combinator in this package upholds the promotion-latency
// contract: between consecutive Poll calls a task executes at most one
// poll stride of loop iterations (forks poll on every call), so no
// code path can run unboundedly long without offering the scheduler a
// promotion, and a delivered beat is observed within one poll stride of
// work plus at most the adaptive skip, which is bounded by ~8 µs of
// polling (internal/interrupt/virtual.go). The static liveness pass
// proves the same property for TPAL programs at lint time (TP050 flags
// the violations).
func (c *Ctx) Poll() {
	if !c.w.SkipPoll() {
		c.pollSlow()
	}
}

// pollSlow is Poll with no skip left to count off (PollHeartbeat looks
// again and finds none): the beat source decides.
func (c *Ctx) pollSlow() {
	if c.w.PollHeartbeat() && !c.rt.cfg.DisablePromotion {
		c.promoteOne()
	}
}

// promoteOne applies the promotion policy over the mark list and
// performs at most one promotion, as one heartbeat manifests one task.
func (c *Ctx) promoteOne() bool {
	policy := c.rt.cfg.Policy
	for k := range c.marks {
		at := k
		if policy == InnerFirst {
			at = len(c.marks) - 1 - k
		}
		var ok bool
		if ref := &c.marks[at]; ref.m == nil {
			ok = c.loops[ref.lo].promote(c)
		} else {
			ok = ref.m.promote(c, at)
		}
		if ok {
			c.w.Trace(trace.EvPromotion, int64(policy), int64(at))
			return true
		}
	}
	return false
}

// Fork2 executes a and b with fork-join semantics, serially by default:
// b is recorded as latent parallelism while a runs; if a heartbeat
// promotes it, b becomes a task and Fork2 joins both sides before
// returning; otherwise b runs inline right after a, with no task
// created and no synchronization.
//
// This is the runtime analogue of the paper's parallel calling
// convention (§B.2): the mark stands for the unstarted branch, and the
// promotion handler turns the oldest such mark into a child task. It is
// Fork2Call with the closures as the arguments.
func (c *Ctx) Fork2(a, b func(*Ctx)) {
	Fork2Call(c, callClosure, a, b)
}

func callClosure(c *Ctx, fn func(*Ctx)) { fn(c) }
