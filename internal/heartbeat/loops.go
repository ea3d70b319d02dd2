package heartbeat

import "tpal/internal/sched"

// For executes body(i) for every i in [lo, hi) with latent parallelism:
// the loop runs serially, polling for a heartbeat once per poll
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
		c.w.Wait(&c.span, j)
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
		c.w.Wait(&c.span, j)
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
	join       *sched.Join // lazily allocated at first promotion; shared by the whole loop tree
}

// runLoop executes l's iterations with stride polling. For the duration
// the loop lives by value on the context's loop stack, registered in
// the mark list; runLoop returns its join, nil unless a heartbeat
// promoted part of it.
func (c *Ctx) runLoop(l loopState) *sched.Join {
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
		ls.join = &sched.Join{}
	}
	j := ls.join
	mid := ls.next + remaining/2
	childLo, childHi := mid, ls.stop
	ls.stop = mid

	j.Add(1)
	t := &loopTask{
		next: childLo, stop: childHi,
		flat: ls.flat, body: ls.body, j: j,
		rt: c.rt, base: c.span.Now(), recID: c.recordSpawn(),
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
	j          *sched.Join
	rt         *RT
	base       int64
	recID      int
}

// Run implements sched.Task.
func (t *loopTask) Run(w *sched.Worker) {
	cc := newCtx(w, t.rt, t.base, t.recID)
	cc.runLoop(loopState{next: t.next, stop: t.stop, flat: t.flat, body: t.body, join: t.j})
	t.j.Done(cc.retire())
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
	// so it needs no fold state.
	if hi-lo <= c.rt.cfg.PollStride {
		v := leaf(lo, hi)
		c.Poll()
		return v
	}
	s := &foldState[partial[T], reducer[T]]{f: reducer[T]{combine, leaf}, next: lo, stop: hi}
	return s.run(c).v
}

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
	s := &foldState[T, accumulator[T]]{f: accumulator[T]{newAcc, merge, leaf}, next: lo, stop: hi, v: acc}
	return s.run(c)
}

// folder is what a latent range fold folds with: view returns a fresh
// view (the identity), fold folds the block [lo, hi) into v, and merge
// folds a later-range view into an earlier-range one. Both return the
// view, so a view may be a value or a pointer mutated in place.
type folder[V any] interface {
	view() V
	fold(v V, lo, hi int) V
	merge(into, from V) V
}

// partial is Reduce's view: the fold so far, if any block has been
// folded (T's zero value need not be combine's identity).
type partial[T any] struct {
	v  T
	ok bool
}

type reducer[T any] struct {
	combine func(T, T) T
	leaf    func(int, int) T
}

func (reducer[T]) view() partial[T] { return partial[T]{} }

func (r reducer[T]) fold(p partial[T], lo, hi int) partial[T] {
	return r.add(p, r.leaf(lo, hi))
}

// merge adds a child's fold, which is never empty: a promoted range
// holds at least one index.
func (r reducer[T]) merge(into, from partial[T]) partial[T] { return r.add(into, from.v) }

func (r reducer[T]) add(p partial[T], v T) partial[T] {
	if p.ok {
		v = r.combine(p.v, v)
	}
	return partial[T]{v, true}
}

type accumulator[T any] struct {
	newAcc  func() T
	combine func(T, T)
	leaf    func(T, int, int)
}

func (a accumulator[T]) view() T { return a.newAcc() }

func (a accumulator[T]) fold(acc T, lo, hi int) T {
	a.leaf(acc, lo, hi)
	return acc
}

func (a accumulator[T]) merge(into, from T) T {
	a.combine(into, from)
	return into
}

// foldState is the promotion-ready mark of a latent range fold in
// progress: the view v folds the indices [next, stop). Promotion (from
// a poll on the owning goroutine) shrinks stop and hands the upper half
// of what remains to a child task with a view of its own; the running
// fold advances next. The children join through join.
type foldState[V any, F folder[V]] struct {
	f          F
	next, stop int
	v          V
	join       sched.Join
	children   []*foldTask[V, F]
}

// run folds s's range with stride polling, then joins the children and
// merges their views into s.v — in reverse promotion order, since each
// promotion splits off the tail of what remained, so successive
// children cover earlier ranges — and returns the result.
func (s *foldState[V, F]) run(c *Ctx) V {
	c.pushMark(s)
	stride := c.rt.cfg.PollStride
	for s.next < s.stop {
		end := min(s.next+stride, s.stop)
		s.v = s.f.fold(s.v, s.next, end)
		s.next = end
		c.Poll()
	}
	c.popMark(s)
	if len(s.children) > 0 {
		c.w.Wait(&c.span, &s.join)
		for i := len(s.children) - 1; i >= 0; i-- {
			s.v = s.f.merge(s.v, s.children[i].v)
		}
	}
	return s.v
}

func (s *foldState[V, F]) promote(c *Ctx, _ int) bool {
	remaining := s.stop - s.next
	if remaining < 2 {
		return false
	}
	mid := s.next + remaining/2
	t := &foldTask[V, F]{
		foldState: foldState[V, F]{f: s.f, next: mid, stop: s.stop},
		parent:    &s.join,
		rt:        c.rt, base: c.span.Now(), recID: c.recordSpawn(),
	}
	s.stop = mid
	s.children = append(s.children, t)
	s.join.Add(1)
	t.box.Bind(t)
	c.w.Spawn(&t.box)
	return true
}

// foldTask is a promoted fold range. The task, its deque box, and the
// fold state its range runs in — the mark, the view the parent merges,
// and its own children's join — are one allocation.
type foldTask[V any, F folder[V]] struct {
	box sched.Box
	foldState[V, F]
	parent *sched.Join
	rt     *RT
	base   int64
	recID  int
}

// Run implements sched.Task.
func (t *foldTask[V, F]) Run(w *sched.Worker) {
	cc := newCtx(w, t.rt, t.base, t.recID)
	t.v = t.f.view()
	t.run(cc)
	t.parent.Done(cc.retire())
}
