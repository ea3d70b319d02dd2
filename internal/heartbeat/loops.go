package heartbeat

import (
	"sync/atomic"

	"tpal/internal/sched"
)

// For executes body(i) for every i in [lo, hi) with latent parallelism:
// the loop runs serially, polling the heartbeat flag once per poll
// stride — the promotion-latency contract: a pending heartbeat is
// observed within PollStride iterations, never later — and a heartbeat
// splits the remaining iterations in half, promoting the upper half
// into a task (recursively promotable the same way). For returns once
// every iteration, promoted or not, has run.
//
// Iterations must be independent or synchronize among themselves; use
// Reduce for accumulations, and ForNested for bodies that contain
// nested latent parallelism.
func (c *Ctx) For(lo, hi int, body func(i int)) {
	if hi-lo <= 0 {
		return
	}
	if hi-lo <= c.rt.cfg.PollStride {
		for i := lo; i < hi; i++ {
			body(i)
		}
		c.Poll()
		return
	}
	if j := c.runLoop(loopState{next: lo, stop: hi, flat: body}); j != nil {
		c.wait(j)
	}
}

// ForNested is For for bodies that themselves contain latent
// parallelism: the body receives the context of the task actually
// executing the iteration (which differs from c for promoted ranges), so
// nested For/Reduce/Fork2 calls attach to the right mark list. Promotion
// is outer-most-first across the whole nest, as heartbeat scheduling
// prescribes.
func (c *Ctx) ForNested(lo, hi int, body func(cc *Ctx, i int)) {
	if hi-lo <= 0 {
		return
	}
	// Fast path: a range no larger than one poll stride can never be
	// promoted before it completes (by the time a promotion could
	// split it, fewer than two iterations remain in the worst case we
	// care about) — no loop state, no mark, no allocation. This is the
	// Go analogue of TPAL's zero-cost serial elaboration of short inner
	// loops. Nested bodies are coarse by definition, so polling every
	// iteration costs nothing relative to the body and keeps heartbeat
	// observation latency at one iteration, as the paper's per-loop-head
	// promotion points do.
	if hi-lo <= c.rt.cfg.PollStride {
		for i := lo; i < hi; i++ {
			body(c, i)
			c.Poll()
		}
		return
	}
	if j := c.runLoop(loopState{next: lo, stop: hi, body: body}); j != nil {
		c.wait(j)
	}
}

// loopState is a promotion-ready parallel loop: the mark representing
// the remaining iterations [next, stop). Promotion (from a poll on the
// owning goroutine) shrinks stop; the running loop advances next. The
// join pointer is nil until the first promotion — an unpromoted loop
// allocates nothing and synchronizes nothing, the "serial by default"
// property that makes heartbeat loops near zero-cost.
//
// Exactly one of flat and body is set: flat bodies cannot reach a Ctx
// and therefore cannot trigger promotions mid-iteration, so the loop may
// run whole strides between polls; ctx-receiving bodies may promote this
// very loop from a nested poll, so next and stop must be re-read every
// iteration or the loop would re-run iterations it has already given
// away.
type loopState struct {
	next, stop int
	flat       func(int)
	body       func(*Ctx, int)
	join       *join // lazily allocated at first promotion; shared by the whole loop tree
}

// runLoop executes l's iterations with stride polling. For the duration
// the loop lives by value on the context's loop stack, registered in
// the mark list; runLoop returns its join, nil unless a heartbeat
// promoted part of it.
func (c *Ctx) runLoop(l loopState) *join {
	k := len(c.loops)
	c.loops = append(c.loops, l)
	c.marks = append(c.marks, markRef{lo: k})
	if flat := l.flat; flat != nil {
		// Nothing a flat body or a promotion does pushes a loop, so the
		// slot cannot move under this pointer.
		ls, stride := &c.loops[k], c.rt.cfg.PollStride
		for ls.next < ls.stop {
			end := ls.next + stride
			if end > ls.stop {
				end = ls.stop
			}
			for i := ls.next; i < end; i++ {
				flat(i)
			}
			ls.next = end
			c.Poll()
		}
	} else {
		body := l.body
		for {
			// A loop nested in the body may have grown the stack: find
			// the slot again every iteration.
			ls := &c.loops[k]
			i := ls.next
			if i >= ls.stop {
				break
			}
			ls.next = i + 1
			body(c, i)
			c.Poll()
		}
	}
	n := len(c.marks) - 1
	if n < 0 || len(c.loops) != k+1 || c.marks[n] != (markRef{lo: k}) {
		c.corrupted("ending a loop")
	}
	j := c.loops[k].join
	c.loops[k] = loopState{}
	c.loops = c.loops[:k]
	c.marks = c.marks[:n]
	return j
}

func (ls *loopState) promote(c *Ctx) bool {
	remaining := ls.stop - ls.next
	if remaining < 2 {
		return false
	}
	if ls.join == nil {
		ls.join = &join{}
	}
	j := ls.join
	mid := ls.next + remaining/2
	childLo, childHi := mid, ls.stop
	ls.stop = mid

	j.pending.Add(1)
	t := &loopTask{
		next: childLo, stop: childHi,
		flat: ls.flat, body: ls.body, j: j,
		rt: c.rt, base: c.SpanNow(), recID: c.recordSpawn(),
	}
	t.box.Bind(t)
	c.w.Spawn(&t.box)
	return true
}

// loopTask is a promoted loop half: box plus the child range in one
// allocation. The join is the loop tree's shared one (allocated once,
// at the tree's first promotion), so a steady-state loop promotion is a
// single allocation.
type loopTask struct {
	box        sched.Box
	next, stop int
	flat       func(int)
	body       func(*Ctx, int)
	j          *join
	rt         *RT
	base       int64
	recID      int
}

// Run implements sched.Task.
func (t *loopTask) Run(w *sched.Worker) {
	cc := newCtx(w, t.rt, t.base, t.recID)
	cc.runLoop(loopState{next: t.next, stop: t.stop, flat: t.flat, body: t.body, join: t.j})
	maxInto(&t.j.spanMax, cc.retire())
	t.j.pending.Add(-1)
}

// Reduce folds leaf results over [lo, hi) with latent parallelism.
// leaf(a, b) computes the fold of the block [a, b) from the identity;
// combine must be associative (it is applied in range order, so it need
// not be commutative). The heartbeat version accumulates serially and,
// when promoted, gives the child its own accumulator, combining partial
// results in range order at the join — the TPAL analogue of the
// register-file merge driven by the jtppt ΔR annotation.
func Reduce[T any](c *Ctx, lo, hi int, combine func(T, T) T, leaf func(lo, hi int) T) T {
	var zero T
	if hi-lo <= 0 {
		return zero
	}
	// Fast path, as in ForNested: a sub-stride range cannot be promoted,
	// so it needs no reduction state.
	if hi-lo <= c.rt.cfg.PollStride {
		v := leaf(lo, hi)
		c.Poll()
		return v
	}
	rs := &reduceState[T]{next: lo, stop: hi, combine: combine, leaf: leaf}
	runReduce(c, rs)
	acc := rs.acc
	if len(rs.children) > 0 {
		c.waitJoin(&rs.pending)
		c.raiseFloor(rs.spanMax.Load())
		// Children were split off the tail of the remaining range, so
		// successive promotions cover earlier ranges: fold them back in
		// reverse promotion order to preserve range order.
		for i := len(rs.children) - 1; i >= 0; i-- {
			acc = combine(acc, rs.children[i].value)
		}
	}
	return acc
}

// reduceState is the promotion-ready mark of a Reduce in progress.
type reduceState[T any] struct {
	next, stop int
	combine    func(T, T) T
	leaf       func(int, int) T
	acc        T
	started    bool // acc holds a value (avoid combining with uninitialized zero when T's zero is not an identity)

	children []*reduceTask[T]
	pending  atomic.Int64
	spanMax  atomic.Int64
}

// reduceTask is a promoted Reduce range: the task, its deque box, and
// the slot its partial result lands in are one allocation. The parent's
// reduceState carries the join counters, so nothing else is allocated.
type reduceTask[T any] struct {
	box     sched.Box
	value   T
	lo, hi  int
	combine func(T, T) T
	leaf    func(int, int) T
	pending *atomic.Int64
	spanMax *atomic.Int64
	rt      *RT
	base    int64
	recID   int
}

// Run implements sched.Task.
func (t *reduceTask[T]) Run(w *sched.Worker) {
	cc := newCtx(w, t.rt, t.base, t.recID)
	t.value = Reduce(cc, t.lo, t.hi, t.combine, t.leaf)
	maxInto(t.spanMax, cc.retire())
	t.pending.Add(-1)
}

func runReduce[T any](c *Ctx, rs *reduceState[T]) {
	c.pushMark(rs)
	stride := c.rt.cfg.PollStride
	for rs.next < rs.stop {
		end := rs.next + stride
		if end > rs.stop {
			end = rs.stop
		}
		v := rs.leaf(rs.next, end)
		if rs.started {
			rs.acc = rs.combine(rs.acc, v)
		} else {
			rs.acc = v
			rs.started = true
		}
		rs.next = end
		c.Poll()
	}
	c.popMark(rs)
}

func (rs *reduceState[T]) promote(c *Ctx, _ int) bool {
	remaining := rs.stop - rs.next
	if remaining < 2 {
		return false
	}
	mid := rs.next + remaining/2
	childLo, childHi := mid, rs.stop
	rs.stop = mid

	t := &reduceTask[T]{
		lo: childLo, hi: childHi,
		combine: rs.combine, leaf: rs.leaf,
		pending: &rs.pending, spanMax: &rs.spanMax,
		rt: c.rt, base: c.SpanNow(), recID: c.recordSpawn(),
	}
	rs.children = append(rs.children, t)
	rs.pending.Add(1)
	t.box.Bind(t)
	c.w.Spawn(&t.box)
	return true
}
