package cilk

import (
	"sync/atomic"
	"time"

	"tpal/internal/sched"
)

// Spawn2Call is Spawn2 for branches that call one static function with
// different arguments, mirroring heartbeat.Fork2Call so the two systems
// compare like for like on recursion-heavy code. The eager costs that
// define the Cilk model remain: a task object and join are allocated and
// the deque is touched at every spawn, taken or not.
func Spawn2Call[A any](c *Ctx, f func(*Ctx, A), aArg, bArg A) {
	task := &spawnCallTask[A]{f: f, arg: bArg, rt: c.rt, base: c.SpanNow()}
	task.j.pending.Store(1)
	task.box.Bind(task)
	c.w.Spawn(&task.box)

	f(c, aArg)

	if t := c.w.Deque().PopBottom(); t != nil {
		st, ok := t.(*spawnCallTask[A])
		if ok && st == task {
			if st.ran.CompareAndSwap(false, true) {
				afterCont := c.SpanNow()
				f(c, st.arg)
				c.syncInline(task.base, afterCont)
				task.j.pending.Add(-1)
				return
			}
		} else {
			c.w.Deque().PushBottom(t)
		}
	}
	c.waitSpawn(&task.j)
}

type spawnCallTask[A any] struct {
	box  sched.Box
	j    spawnJoin
	f    func(*Ctx, A)
	arg  A
	rt   *RT
	base int64
	ran  atomic.Bool
}

// Run implements sched.Task (the stolen path).
func (t *spawnCallTask[A]) Run(w *sched.Worker) {
	if !t.ran.CompareAndSwap(false, true) {
		return
	}
	cc := &Ctx{w: w, rt: t.rt, start: time.Now(), base: t.base}
	t.f(cc, t.arg)
	maxInto(&t.j.spanMax, cc.finish())
	t.j.pending.Add(-1)
}
