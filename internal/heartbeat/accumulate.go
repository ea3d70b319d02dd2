package heartbeat

import (
	"sync/atomic"

	"tpal/internal/sched"
)

// Accumulate folds [lo, hi) into a mutable accumulator with latent
// parallelism: the loop owns one accumulator view and mutates it in
// place; a promotion gives the child task its own fresh view, and views
// merge (in range order) at the join. This is the runtime analogue of
// reducer views in Cilk and of the paper's kmeans port, which pays for
// an auxiliary accumulation structure only when parallelism actually
// manifests... except for the one view the serial path needs.
//
// T is typically a pointer type; newAcc creates an identity view, leaf
// folds a block into a view, and merge folds a later-range view into an
// earlier-range one. Like For, the fold polls the heartbeat once per
// poll stride of iterations, keeping promotion latency within the
// PollStride contract even though leaf blocks run back to back.
func Accumulate[T any](c *Ctx, lo, hi int, newAcc func() T, merge func(into, from T), leaf func(acc T, lo, hi int)) T {
	acc := newAcc()
	if hi-lo <= 0 {
		return acc
	}
	if hi-lo <= c.rt.cfg.PollStride {
		leaf(acc, lo, hi)
		c.Poll()
		return acc
	}
	as := &accState[T]{next: lo, stop: hi, acc: acc, newAcc: newAcc, merge: merge, leaf: leaf}
	c.pushMark(as)
	stride := c.rt.cfg.PollStride
	for as.next < as.stop {
		end := as.next + stride
		if end > as.stop {
			end = as.stop
		}
		leaf(acc, as.next, end)
		as.next = end
		c.Poll()
	}
	c.popMark(as)
	if len(as.children) > 0 {
		c.waitJoin(&as.pending)
		c.raiseFloor(as.spanMax.Load())
		// Children cover successively earlier tail ranges; merge them
		// back in reverse promotion order to preserve range order.
		for i := len(as.children) - 1; i >= 0; i-- {
			merge(acc, as.children[i].value)
		}
	}
	return acc
}

// accState is the promotion-ready mark of an Accumulate in progress.
type accState[T any] struct {
	next, stop int
	acc        T
	newAcc     func() T
	merge      func(T, T)
	leaf       func(T, int, int)

	children []*accTask[T]
	pending  atomic.Int64
	spanMax  atomic.Int64
}

func (as *accState[T]) promote(c *Ctx, _ int) bool {
	remaining := as.stop - as.next
	if remaining < 2 {
		return false
	}
	mid := as.next + remaining/2
	childLo, childHi := mid, as.stop
	as.stop = mid

	t := &accTask[T]{
		lo: childLo, hi: childHi,
		newAcc: as.newAcc, merge: as.merge, leaf: as.leaf,
		pending: &as.pending, spanMax: &as.spanMax,
		rt: c.rt, base: c.SpanNow(), recID: c.recordSpawn(),
	}
	as.children = append(as.children, t)
	as.pending.Add(1)
	t.box.Bind(t)
	c.w.Spawn(&t.box)
	return true
}

// accTask is a promoted Accumulate range: like reduceTask, the task, its
// deque box, and its result view live in one allocation.
type accTask[T any] struct {
	box     sched.Box
	value   T
	lo, hi  int
	newAcc  func() T
	merge   func(T, T)
	leaf    func(T, int, int)
	pending *atomic.Int64
	spanMax *atomic.Int64
	rt      *RT
	base    int64
	recID   int
}

// Run implements sched.Task.
func (t *accTask[T]) Run(w *sched.Worker) {
	cc := newCtx(w, t.rt, t.base, t.recID)
	t.value = Accumulate(cc, t.lo, t.hi, t.newAcc, t.merge, t.leaf)
	maxInto(t.spanMax, cc.retire())
	t.pending.Add(-1)
}
