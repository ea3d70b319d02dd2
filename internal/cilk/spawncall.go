package cilk

import (
	"sync/atomic"

	"tpal/internal/sched"
)

// Spawn2Call is Spawn2 for branches that call one static function with
// different arguments, mirroring heartbeat.Fork2Call so the two systems
// compare like for like on recursion-heavy code. The eager costs that
// define the Cilk model remain: a task object and join are allocated and
// the deque is touched at every spawn, taken or not.
func Spawn2Call[A any](c *Ctx, f func(*Ctx, A), aArg, bArg A) {
	t := spawn(c, f, bArg)
	f(c, aArg)
	t.sync(c)
}

// spawn makes f(·, arg) a task on c's worker, available to thieves at
// once. One allocation per spawn: the task embeds its join and its
// deque box. This is the eager cost Cilk always pays, as close to the
// C++ runtime's spawn-frame cost as Go permits.
func spawn[A any](c *Ctx, f func(*Ctx, A), arg A) *spawnTask[A] {
	t := &spawnTask[A]{f: f, arg: arg, rt: c.rt, base: c.span.Now()}
	t.j.Add(1)
	t.box.Bind(t)
	c.w.Spawn(&t.box)
	return t
}

// sync joins the spawned branch t once c's own branch has returned: it
// takes t back from the deque bottom and runs it inline when no thief
// took it, and otherwise waits for it.
func (t *spawnTask[A]) sync(c *Ctx) {
	if d := c.w.Deque().PopBottom(); d == t {
		if t.ran.CompareAndSwap(false, true) {
			// Not stolen: run it inline in this context, then splice it
			// onto the forked timeline.
			afterCont := c.span.Now()
			t.f(c, t.arg)
			c.syncInline(t.base, afterCont)
			return
		}
	} else if d != nil {
		// Someone else's task surfaced (possible when helping inside
		// nested joins rearranged the deque): put it back and wait.
		c.w.Deque().PushBottom(d)
	}
	c.w.Wait(&c.span, &t.j)
}

// syncInline folds a branch executed inline into the forked timeline.
// In the Cilk DAG a spawned branch runs in parallel with its
// continuation whether or not a thief took it, so the span must fork at
// every spawn even on one worker: the branch ran over [afterCont, now)
// of the sequential clock but logically started at spawnSpan, and the
// span after the sync is the later of the continuation's completion and
// the branch's logical completion.
func (c *Ctx) syncInline(spawnSpan, afterCont int64) {
	logical := c.span.Now() - (afterCont - spawnSpan)
	c.span.Rebase(max(afterCont, logical))
}

// spawnTask is a spawned branch: the deque box, the join, the function
// and the argument in one allocation.
type spawnTask[A any] struct {
	box  sched.Box
	j    sched.Join
	f    func(*Ctx, A)
	arg  A
	rt   *RT
	base int64
	ran  atomic.Bool
}

// Run implements sched.Task (the stolen path).
func (t *spawnTask[A]) Run(w *sched.Worker) {
	if !t.ran.CompareAndSwap(false, true) {
		return
	}
	cc := newCtx(w, t.rt, t.base)
	t.f(cc, t.arg)
	_, span := w.Finish(&cc.span)
	t.j.Done(span)
}
