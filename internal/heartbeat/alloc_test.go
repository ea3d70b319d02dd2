package heartbeat

import (
	"testing"

	"tpal/internal/sched"
)

// measurePromotionAllocs runs setup once, then measures allocations per
// promote-and-discard cycle inside a single-worker runtime (so no other
// goroutine's allocations pollute the global malloc counter that
// testing.AllocsPerRun reads). reset rearms the mark between runs; the
// spawned task is popped off the deque and discarded, never executed.
func measurePromotionAllocs(t *testing.T, setup func(c *Ctx) (reset func())) float64 {
	t.Helper()
	var allocs float64
	rt := New(Config{Workers: 1})
	rt.Run(func(c *Ctx) {
		reset := setup(c)
		allocs = testing.AllocsPerRun(200, func() {
			reset()
			if !c.promoteOne() {
				panic("promotion did not happen")
			}
			if c.w.Deque().PopBottom() == nil {
				panic("no task on deque after promotion")
			}
		})
	})
	return allocs
}

// TestPromotionIsSingleAllocation pins the PushBottomBox conversion of
// every promotion path: manifesting latent parallelism as a task costs
// exactly one heap allocation (the task struct with its embedded deque
// box and join). Before the conversion each promotion allocated a box,
// a closure, and a join separately, and this test fails there.
func TestPromotionIsSingleAllocation(t *testing.T) {
	t.Run("Fork2", func(t *testing.T) {
		allocs := measurePromotionAllocs(t, func(c *Ctx) func() {
			fr := pushLatentFrame(c, callClosure, func(*Ctx) {})
			return func() { fr.join = nil }
		})
		if allocs != 1 {
			t.Fatalf("Fork2 promotion allocs/op = %v, want exactly 1", allocs)
		}
	})

	t.Run("Fork2Call", func(t *testing.T) {
		allocs := measurePromotionAllocs(t, func(c *Ctx) func() {
			fr := pushLatentFrame(c, func(*Ctx, int) {}, 0)
			return func() { fr.join = nil }
		})
		if allocs != 1 {
			t.Fatalf("Fork2Call promotion allocs/op = %v, want exactly 1", allocs)
		}
	})

	// A loop's join is shared by the whole loop tree and allocated at
	// the tree's first promotion; in steady state each promotion is the
	// loopTask allocation alone.
	t.Run("For", func(t *testing.T) {
		allocs := measurePromotionAllocs(t, func(c *Ctx) func() {
			c.loops = append(c.loops, loopState{flat: func(int) {}, join: &sched.Join{}})
			c.marks = append(c.marks, markRef{lo: 0})
			ls := &c.loops[0]
			return func() { ls.next, ls.stop = 0, 1024 }
		})
		if allocs != 1 {
			t.Fatalf("For promotion allocs/op = %v, want exactly 1 (steady state)", allocs)
		}
	})

	// A fold's children slice keeps its capacity across resets, so each
	// promotion is the foldTask allocation alone: the child's view is
	// made when it runs, not when it is promoted.
	t.Run("Reduce", func(t *testing.T) {
		allocs := measurePromotionAllocs(t, func(c *Ctx) func() {
			return resetFold(c, &foldState[partial[int], reducer[int]]{f: reducer[int]{addInts, spanLen}})
		})
		if allocs != 1 {
			t.Fatalf("Reduce promotion allocs/op = %v, want exactly 1", allocs)
		}
	})

	t.Run("Accumulate", func(t *testing.T) {
		type view struct{ n int }
		allocs := measurePromotionAllocs(t, func(c *Ctx) func() {
			return resetFold(c, &foldState[*view, accumulator[*view]]{f: accumulator[*view]{
				newAcc:  func() *view { return &view{} },
				combine: func(into, from *view) { into.n += from.n },
				leaf:    func(v *view, lo, hi int) { v.n += hi - lo },
			}})
		})
		if allocs != 1 {
			t.Fatalf("Accumulate promotion allocs/op = %v, want exactly 1", allocs)
		}
	})
}

// resetFold leaves s latent on c, as a long Reduce or Accumulate does
// while it folds, and returns the reset that rearms it with 1024
// indices and no children.
func resetFold[V any, F folder[V]](c *Ctx, s *foldState[V, F]) func() {
	s.children = make([]*foldTask[V, F], 0, 1)
	c.pushMark(s)
	return func() {
		s.next, s.stop = 0, 1024
		clear(s.children[:cap(s.children)])
		s.children = s.children[:0]
		s.join = sched.Join{}
	}
}

// pushLatentFrame leaves f(·, arg) latent on c, as Fork2Call does while
// its first branch runs, and returns the frame.
func pushLatentFrame[A any](c *Ctx, f func(*Ctx, A), arg A) *callFrame[A] {
	s := callStackOf[A](c)
	s.openRun(c)
	s.frames = append(s.frames, callFrame[A]{f: f, arg: arg})
	return &s.frames[len(s.frames)-1]
}

// BenchmarkPromotion reports promotion cost with allocation counts
// (run with -benchmem to see allocs/op = 1).
func BenchmarkPromotion(b *testing.B) {
	rt := New(Config{Workers: 1})
	rt.Run(func(c *Ctx) {
		fr := pushLatentFrame(c, callClosure, func(*Ctx) {})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fr.join = nil
			c.promoteOne()
			c.w.Deque().PopBottom()
		}
	})
}
