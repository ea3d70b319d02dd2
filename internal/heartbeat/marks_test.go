package heartbeat

import (
	"strings"
	"sync/atomic"
	"testing"

	"tpal/internal/interrupt"
)

func nopBranch(*Ctx)       {}
func nopCall(*Ctx, int)    {}
func nopIter(int)          {}
func addInts(a, b int) int { return a + b }
func spanLen(lo, hi int) int {
	return hi - lo
}

// TestSerialPathAllocatesNothing pins "serial by default" for every
// combinator's unpromoted path: once a context's stacks have grown to
// the nesting depth in use, recording latent parallelism is writes into
// them and nothing else.
func TestSerialPathAllocatesNothing(t *testing.T) {
	var sink int
	forkTwice := func(c *Ctx, d int) {}
	forkTwice = func(c *Ctx, d int) {
		if d > 0 {
			Fork2Call(c, forkTwice, d-1, d-1)
		}
	}
	nested := func(cc *Ctx, i int) { cc.For(0, 300, nopIter) }
	cases := []struct {
		name string
		run  func(c *Ctx)
	}{
		{"Fork2Call", func(c *Ctx) { Fork2Call(c, nopCall, 1, 2) }},
		{"Fork2Call/recursive", func(c *Ctx) { forkTwice(c, 6) }},
		{"Fork2", func(c *Ctx) { c.Fork2(nopBranch, nopBranch) }},
		{"For", func(c *Ctx) { c.For(0, 1000, nopIter) }},
		{"ForNested", func(c *Ctx) { c.ForNested(0, 300, nested) }},
		{"Reduce/fast-path", func(c *Ctx) { sink += Reduce(c, 0, 100, addInts, spanLen) }},
	}
	Run(Config{Workers: 1}, func(c *Ctx) {
		for _, tc := range cases {
			tc.run(c) // warm-up: grow the stacks
			if allocs := testing.AllocsPerRun(100, func() { tc.run(c) }); allocs != 0 {
				t.Errorf("%s: %v allocs per serial run, want 0", tc.name, allocs)
			}
		}
	})
	_ = sink
}

// TestPromotedTaskAllocatesOnlyItsTaskStruct runs the whole life of a
// promoted branch — promote, take, execute on a recycled context,
// retire — and finds the one allocation TestPromotionIsSingleAllocation
// allows the promotion: the task's context, mark list and frame stacks
// come from the worker's free list.
func TestPromotedTaskAllocatesOnlyItsTaskStruct(t *testing.T) {
	branch := func(c *Ctx, d int) {}
	branch = func(c *Ctx, d int) {
		if d > 0 {
			Fork2Call(c, branch, d-1, d-1)
			c.For(0, 300, nopIter)
		}
	}
	Run(Config{Workers: 1}, func(c *Ctx) {
		fr := pushLatentFrame(c, branch, 4)
		cycle := func() {
			fr.join = nil
			if !c.promoteOne() {
				panic("promotion did not happen")
			}
			c.w.Execute(c.w.Deque().PopBottom())
		}
		cycle() // warm-up: the first task builds the context the rest reuse
		if allocs := testing.AllocsPerRun(100, cycle); allocs != 1 {
			t.Fatalf("promote + run = %v allocs, want exactly 1", allocs)
		}
	})
}

// TestPromotionOrderAcrossRuns nests a fork, a loop, a fork on the same
// frame stack again and a fork on another, so that the first stack's
// frames form two runs with the loop's mark between them, and fires a
// beat at every poll. OuterFirst must promote strictly oldest first —
// the scan of the first run has to stop where the second begins, or the
// inner fork would be promoted ahead of the loop — and InnerFirst
// strictly youngest first.
func TestPromotionOrderAcrossRuns(t *testing.T) {
	for _, tc := range []struct {
		policy PromotionPolicy
		want   string
	}{
		{OuterFirst, "fork1 loop fork2 fork3"},
		{InnerFirst, "loop fork2 fork3 fork1"},
	} {
		var order []string
		seen := map[string]bool{}
		// observe appends whatever became promoted since the last look;
		// each poll promotes at most one thing, so looking after every
		// poll yields the order.
		observe := func(c *Ctx) {
			ints, fns := callStackOf[int](c), callStackOf[func(*Ctx)](c)
			for _, m := range []struct {
				name     string
				promoted bool
			}{
				{"fork1", len(ints.frames) > 0 && ints.frames[0].join != nil},
				{"loop", len(c.loops) > 0 && c.loops[0].join != nil},
				{"fork2", len(ints.frames) > 1 && ints.frames[1].join != nil},
				{"fork3", len(fns.frames) > 0 && fns.frames[0].join != nil},
			} {
				if m.promoted && !seen[m.name] {
					seen[m.name] = true
					order = append(order, m.name)
				}
			}
		}
		var root *Ctx
		innermost := func(c *Ctx) {
			observe(c) // after fork3's poll
			for i := 0; i < 3; i++ {
				c.Poll()
				observe(c)
			}
			if got := len(c.marks); got != 4 {
				t.Errorf("%d marks at the innermost point, want 4 (run, loop, run, run): %v", got, c.marks)
			}
		}
		inner := func(c *Ctx, arg int) {
			if c != root || arg != 2 {
				return // a promoted branch, run later
			}
			observe(c) // after fork2's poll
			c.Fork2(innermost, nopBranch)
		}
		body := func(c *Ctx, i int) {
			if c == root && i == 0 {
				Fork2Call(c, inner, 2, -2)
			}
		}
		outer := func(c *Ctx, arg int) {
			if c == root && arg == 1 {
				c.ForNested(0, 3, body)
			}
		}
		Run(Config{Workers: 1, Mechanism: interrupt.NewCountingPoll(1), PollStride: 1, Policy: tc.policy}, func(c *Ctx) {
			root = c
			Fork2Call(c, outer, 1, -1)
		})
		if got := strings.Join(order, " "); got != tc.want {
			t.Errorf("policy %d promoted in order %q, want %q", tc.policy, got, tc.want)
		}
	}
}

// TestDeepRecursionGrowsFrameStackMidCall holds one latent frame per
// level of a 5000-deep recursion, so the frame stack is reallocated
// many times while callers further up still have a slot in it, with
// beats promoting the oldest frames meanwhile. Every latent branch must
// still run exactly once.
func TestDeepRecursionGrowsFrameStackMidCall(t *testing.T) {
	const depth = 5000
	var sum atomic.Int64
	var ran [depth + 1]atomic.Int32
	rec := func(c *Ctx, d int) {}
	rec = func(c *Ctx, d int) {
		switch {
		case d < 0:
			ran[-d].Add(1)
			sum.Add(int64(-d))
		case d > 0:
			Fork2Call(c, rec, d-1, -d)
		}
	}
	for _, cfg := range []Config{
		{Workers: 1},
		{Workers: 2, Mechanism: interrupt.NewCountingPoll(7)},
		{Workers: 2, Mechanism: interrupt.NewCountingPoll(3), Policy: InnerFirst},
	} {
		sum.Store(0)
		for i := range ran {
			ran[i].Store(0)
		}
		st := Run(cfg, func(c *Ctx) { rec(c, depth) })
		if got, want := sum.Load(), int64(depth)*(depth+1)/2; got != want {
			t.Fatalf("%+v: sum of latent branches = %d, want %d", cfg, got, want)
		}
		for d := 1; d <= depth; d++ {
			if n := ran[d].Load(); n != 1 {
				t.Fatalf("%+v: branch %d ran %d times", cfg, d, n)
			}
		}
		if cfg.Mechanism != nil && st.Promotions == 0 {
			t.Fatalf("%+v: no promotions", cfg)
		}
	}
}

// TestMarkListCorruptionPanics breaks the stack discipline of the mark
// list in each way a combinator checks for, and expects the panic.
func TestMarkListCorruptionPanics(t *testing.T) {
	type dummy struct{ reduceState[int] }
	a, b := &dummy{}, &dummy{}
	for _, tc := range []struct {
		name string
		run  func(c *Ctx)
	}{
		{"pop a mark that is not on top", func(c *Ctx) {
			c.pushMark(a)
			c.pushMark(b)
			c.popMark(a)
		}},
		{"pop from an empty list", func(c *Ctx) { c.popMark(a) }},
		{"loop ends under a leftover mark", func(c *Ctx) {
			c.ForNested(0, 300, func(cc *Ctx, i int) {
				if i == 0 {
					cc.pushMark(a)
				}
			})
		}},
		{"fork returns onto a leftover frame", func(c *Ctx) {
			Fork2Call(c, func(cc *Ctx, arg int) {
				if arg == 1 {
					s := callStackOf[int](cc)
					s.frames = append(s.frames, callFrame[int]{})
				}
			}, 1, 2)
		}},
		{"run of frames closes under a leftover mark", func(c *Ctx) {
			Fork2Call(c, func(cc *Ctx, arg int) {
				if arg == 1 {
					cc.pushMark(a)
				}
			}, 1, 2)
		}},
		{"task finishes with marks left", func(c *Ctx) {
			cc := newCtx(c.w, c.rt, 0, 0)
			cc.pushMark(a)
			cc.retire()
		}},
	} {
		var got any
		Run(Config{Workers: 1}, func(c *Ctx) {
			defer func() { got = recover() }()
			tc.run(c)
		})
		if msg, _ := got.(string); !strings.Contains(msg, "mark list corrupted") {
			t.Errorf("%s: recovered %v, want the mark-list corruption panic", tc.name, got)
		}
	}
}
