package cilk

import (
	"sync/atomic"
	"testing"
)

func TestSpawn2RunsBoth(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		var a, b atomic.Int64
		Run(Config{Workers: workers}, func(c *Ctx) {
			c.Spawn2(
				func(*Ctx) { a.Add(1) },
				func(*Ctx) { b.Add(1) },
			)
		})
		if a.Load() != 1 || b.Load() != 1 {
			t.Fatalf("workers=%d: a=%d b=%d", workers, a.Load(), b.Load())
		}
	}
}

func fibCilk(c *Ctx, n int) int64 {
	if n < 2 {
		return int64(n)
	}
	var a, b int64
	c.Spawn2(
		func(cc *Ctx) { a = fibCilk(cc, n-1) },
		func(cc *Ctx) { b = fibCilk(cc, n-2) },
	)
	return a + b
}

func TestSpawn2Fib(t *testing.T) {
	for _, workers := range []int{1, 3} {
		var got int64
		st := Run(Config{Workers: workers}, func(c *Ctx) { got = fibCilk(c, 18) })
		if got != 2584 {
			t.Fatalf("workers=%d: fib(18)=%d", workers, got)
		}
		if st.Sched.TasksCreated == 0 {
			t.Fatal("eager spawning created no tasks")
		}
	}
}

type fibArgs struct {
	n   int
	out *int64
}

func fibCall(c *Ctx, a fibArgs) {
	if a.n < 2 {
		*a.out = int64(a.n)
		return
	}
	var x, y int64
	Spawn2Call(c, fibCall, fibArgs{a.n - 1, &x}, fibArgs{a.n - 2, &y})
	*a.out = x + y
}

func TestSpawn2CallFib(t *testing.T) {
	for _, workers := range []int{1, 3} {
		var got int64
		Run(Config{Workers: workers}, func(c *Ctx) { fibCall(c, fibArgs{18, &got}) })
		if got != 2584 {
			t.Fatalf("workers=%d: fib(18)=%d", workers, got)
		}
	}
}

// leafUnits is the clock of TestSpawn2CallSpanForks: it ticks once per
// leaf leafFibCall reaches and at nothing else.
var leafUnits atomic.Int64

// leafFibCall is fibCall with one unit of work on leafUnits at every
// leaf, so that its work and span count leaves.
func leafFibCall(c *Ctx, a fibArgs) {
	if a.n < 2 {
		leafUnits.Add(1)
		*a.out = int64(a.n)
		return
	}
	var x, y int64
	Spawn2Call(c, leafFibCall, fibArgs{a.n - 1, &x}, fibArgs{a.n - 2, &y})
	*a.out = x + y
}

// TestSpawn2CallSpanForks is TestWorkSpanProjection for the recursive
// spawn path: on one worker every branch runs inline, and the span must
// still fork at each Spawn2Call. Spans are measured on leafUnits, so
// fib(13)'s work is its 377 leaves, whatever else the machine running
// the test is doing, on a critical path of 13 spawns and one leaf;
// span·4 exceeds work only if the timeline failed to fork.
func TestSpawn2CallSpanForks(t *testing.T) {
	var got int64
	leafUnits.Store(0)
	cfg := Config{Workers: 1, clock: leafUnits.Load}
	st := Run(cfg, func(c *Ctx) { leafFibCall(c, fibArgs{13, &got}) })
	if got != 233 {
		t.Fatalf("fib(13) = %d", got)
	}
	if st.WorkNanos != 377 || st.SpanNanos <= 0 {
		t.Fatalf("work=%d span=%d, want work 377 leaves", st.WorkNanos, st.SpanNanos)
	}
	if st.SpanNanos*4 > st.WorkNanos {
		t.Fatalf("span %d not well below work %d for fib(13)", st.SpanNanos, st.WorkNanos)
	}
}

func TestForCoversRange(t *testing.T) {
	const n = 50_000
	for _, workers := range []int{1, 4} {
		counts := make([]int32, n)
		Run(Config{Workers: workers}, func(c *Ctx) {
			c.For(0, n, func(i int) {
				atomic.AddInt32(&counts[i], 1)
			})
		})
		for i, v := range counts {
			if v != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, v)
			}
		}
	}
}

func TestForEmptyRange(t *testing.T) {
	ran := 0
	Run(Config{Workers: 1}, func(c *Ctx) {
		c.For(3, 3, func(int) { ran++ })
		c.For(5, 2, func(int) { ran++ })
	})
	if ran != 0 {
		t.Fatalf("empty ranges ran %d times", ran)
	}
}

func TestReduceOrdered(t *testing.T) {
	const n = 10_000
	var got []int
	Run(Config{Workers: 4, Grain: 64}, func(c *Ctx) {
		got = Reduce(c, 0, n,
			func(a, b []int) []int { return append(append([]int{}, a...), b...) },
			func(lo, hi int) []int {
				out := make([]int, 0, hi-lo)
				for i := lo; i < hi; i++ {
					out = append(out, i)
				}
				return out
			})
	})
	if len(got) != n {
		t.Fatalf("len %d", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order violated at %d: %d", i, v)
		}
	}
}

func TestGrainFor(t *testing.T) {
	cases := []struct{ n, p, want int }{
		{100, 1, 13},        // ceil(100/8)
		{1000000, 15, 2048}, // capped
		{5, 100, 1},         // floor at 1
		{0, 4, 1},
		{50, 15, 1}, // inner fine loop: single-iteration leaves
	}
	for _, tc := range cases {
		if got := GrainFor(tc.n, tc.p); got != tc.want {
			t.Errorf("GrainFor(%d, %d) = %d, want %d", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestTaskCountsFollowGrain(t *testing.T) {
	const n = 100_000
	run := func(grain int) int64 {
		st := Run(Config{Workers: 1, Grain: grain}, func(c *Ctx) {
			c.For(0, n, func(int) {})
		})
		return st.Sched.TasksCreated
	}
	coarse := run(50_000)
	fine := run(1_000)
	if fine <= coarse {
		t.Fatalf("finer grain should create more tasks: %d vs %d", fine, coarse)
	}
}

func TestWorkSpanProjection(t *testing.T) {
	// The span of a balanced spawn tree must be far below its work even
	// on a single worker (inline execution must fork the logical
	// timeline). Work and span are sums of wall-clock stamps, so the
	// tree is built for the stamps to mean something: 128 leaves of a
	// counted ~0.4 ms each, against which a clock read is noise, make
	// ~50 ms of work over a span of one leaf and seven spawns. Span·4
	// exceeds work only if one leaf is stalled for longer than a quarter
	// of the whole run.
	const leaves = 128
	var sink atomic.Uint64
	st := Run(Config{Workers: 1, Grain: 1}, func(c *Ctx) {
		c.For(0, leaves, func(i int) {
			x := uint64(i)
			for k := 0; k < 300_000; k++ {
				x = x*6364136223846793005 + 1442695040888963407
			}
			sink.Add(x)
		})
	})
	if got := st.Sched.TasksCreated; got != leaves-1 {
		t.Fatalf("%d leaves took %d spawns, want %d", leaves, got, leaves-1)
	}
	if st.WorkNanos <= 0 || st.SpanNanos <= 0 {
		t.Fatalf("work=%d span=%d", st.WorkNanos, st.SpanNanos)
	}
	if st.SpanNanos*4 > st.WorkNanos {
		t.Fatalf("span %d not well below work %d for a wide loop", st.SpanNanos, st.WorkNanos)
	}
	if st.ProjectedTime(8) >= st.ProjectedTime(1) {
		t.Fatal("projection not monotone in cores")
	}
}
