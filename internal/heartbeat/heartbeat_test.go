package heartbeat

import (
	"sync/atomic"
	"testing"
	"time"

	"tpal/internal/interrupt"
	"tpal/internal/trace"
)

// fastBeat is an aggressive test mechanism: a virtual clock with no
// simulated costs firing every microsecond, maximizing promotions.
func fastBeat() interrupt.Mechanism {
	return interrupt.NewVirtual(interrupt.Profile{Name: "test-fast"})
}

func configs() []Config {
	return []Config{
		{Workers: 1}, // no beats, 1 worker: pure serial
		{Workers: 4}, // no beats, 4 workers
		{Workers: 1, Mechanism: fastBeat(), Heartbeat: time.Microsecond},
		{Workers: 4, Mechanism: fastBeat(), Heartbeat: time.Microsecond},
		{Workers: 4, Mechanism: fastBeat(), Heartbeat: time.Microsecond, PollStride: 1},
		{Workers: 4, Mechanism: fastBeat(), Heartbeat: time.Microsecond, Policy: InnerFirst},
		{Workers: 3, Mechanism: interrupt.NewPingThread(), Heartbeat: 50 * time.Microsecond},
		{Workers: 4, Mechanism: fastBeat(), Heartbeat: time.Microsecond, DisablePromotion: true},
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for ci, cfg := range configs() {
		const n = 100_000
		counts := make([]int32, n)
		Run(cfg, func(c *Ctx) {
			c.For(0, n, func(i int) {
				atomic.AddInt32(&counts[i], 1)
			})
		})
		for i, v := range counts {
			if v != 1 {
				t.Fatalf("config %d: index %d ran %d times", ci, i, v)
			}
		}
	}
}

func TestForEmptyAndTinyRanges(t *testing.T) {
	Run(Config{Workers: 2}, func(c *Ctx) {
		ran := 0
		c.For(5, 5, func(int) { ran++ })
		c.For(7, 3, func(int) { ran++ })
		if ran != 0 {
			t.Errorf("empty ranges ran %d iterations", ran)
		}
		c.For(9, 10, func(i int) {
			if i != 9 {
				t.Errorf("singleton range saw index %d", i)
			}
			ran++
		})
		if ran != 1 {
			t.Errorf("singleton range ran %d iterations", ran)
		}
	})
}

func TestReduceSum(t *testing.T) {
	for ci, cfg := range configs() {
		const n = 200_000
		var got int64
		stats := Run(cfg, func(c *Ctx) {
			got = Reduce(c, 0, n,
				func(a, b int64) int64 { return a + b },
				func(lo, hi int) int64 {
					var s int64
					for i := lo; i < hi; i++ {
						s += int64(i)
					}
					return s
				})
		})
		want := int64(n) * (n - 1) / 2
		if got != want {
			t.Fatalf("config %d: sum = %d, want %d (stats %+v)", ci, got, want, stats)
		}
	}
}

func TestReduceOrderedConcat(t *testing.T) {
	// A non-commutative combine: string concatenation of block summaries
	// must come out in range order regardless of promotions.
	cfg := Config{Workers: 4, Mechanism: fastBeat(), Heartbeat: time.Microsecond, PollStride: 4}
	const n = 2000
	var got []int
	Run(cfg, func(c *Ctx) {
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
		t.Fatalf("got %d elements, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("position %d holds %d: combine order violated", i, v)
		}
	}
}

func TestFork2RunsBoth(t *testing.T) {
	for ci, cfg := range configs() {
		var aRan, bRan atomic.Int64
		Run(cfg, func(c *Ctx) {
			c.Fork2(
				func(*Ctx) { aRan.Add(1) },
				func(*Ctx) { bRan.Add(1) },
			)
		})
		if aRan.Load() != 1 || bRan.Load() != 1 {
			t.Fatalf("config %d: a ran %d, b ran %d", ci, aRan.Load(), bRan.Load())
		}
	}
}

// fibRec exercises deep nested Fork2 under heavy promotion.
func fibRec(c *Ctx, n int) int64 {
	if n < 2 {
		return int64(n)
	}
	var a, b int64
	c.Fork2(
		func(cc *Ctx) { a = fibRec(cc, n-1) },
		func(cc *Ctx) { b = fibRec(cc, n-2) },
	)
	return a + b
}

func TestFork2Fib(t *testing.T) {
	want := int64(6765) // fib(20)
	for ci, cfg := range configs() {
		var got int64
		Run(cfg, func(c *Ctx) { got = fibRec(c, 20) })
		if got != want {
			t.Fatalf("config %d: fib(20) = %d, want %d", ci, got, want)
		}
	}
}

func TestNestedLoops(t *testing.T) {
	// Nested For: outer x inner writes to a matrix; every cell exactly
	// once. Exercises outer-most-first promotion through the mark list.
	cfg := Config{Workers: 4, Mechanism: fastBeat(), Heartbeat: time.Microsecond, PollStride: 2}
	const rows, cols = 200, 300
	cells := make([]int32, rows*cols)
	Run(cfg, func(c *Ctx) {
		c.For(0, rows, func(i int) {
			c2 := c // the body may run on a different worker via a child ctx; use the ctx passed in? For passes only the index.
			_ = c2
			// Inner loops must use the context of the executing task; For
			// bodies that want nested parallelism use ForNested below.
			for j := 0; j < cols; j++ {
				atomic.AddInt32(&cells[i*cols+j], 1)
			}
		})
	})
	for i, v := range cells {
		if v != 1 {
			t.Fatalf("cell %d written %d times", i, v)
		}
	}
}

func TestSerialByDefaultCreatesNoTasks(t *testing.T) {
	stats := Run(Config{Workers: 4}, func(c *Ctx) {
		c.For(0, 100_000, func(int) {})
		c.Fork2(func(*Ctx) {}, func(*Ctx) {})
	})
	if stats.Promotions != 0 {
		t.Fatalf("no-heartbeat run promoted %d tasks", stats.Promotions)
	}
}

func TestDisablePromotionConsumesBeats(t *testing.T) {
	stats := Run(Config{
		Workers:          2,
		Mechanism:        fastBeat(),
		Heartbeat:        time.Microsecond,
		DisablePromotion: true,
	}, func(c *Ctx) {
		c.For(0, 2_000_000, func(int) {})
	})
	if stats.Promotions != 0 {
		t.Fatalf("promotion-disabled run promoted %d tasks", stats.Promotions)
	}
	if stats.Sched.HeartbeatsSeen == 0 {
		t.Fatal("expected heartbeats to be observed")
	}
}

func TestPromotionHappensUnderBeats(t *testing.T) {
	stats := Run(Config{Workers: 4, Mechanism: fastBeat(), Heartbeat: time.Microsecond}, func(c *Ctx) {
		c.For(0, 5_000_000, func(int) {})
	})
	if stats.Promotions == 0 {
		t.Fatal("expected promotions under a fast heartbeat")
	}
}

func TestOuterFirstPromotesOuterLoop(t *testing.T) {
	// With nested loops and outer-first policy, the first promotion must
	// split the outer loop. We detect it by checking that distinct outer
	// iterations run on more than one worker eventually. A run takes a
	// few milliseconds, so when other processes hold every CPU a woken
	// worker may not get one in time; a few runs make that unlikely.
	cfg := Config{Workers: 4, Mechanism: fastBeat(), Heartbeat: time.Microsecond, PollStride: 1}
	var workersSeen map[int]bool
	var mu chan struct{} = make(chan struct{}, 1)
	mu <- struct{}{}
	for run := 0; run < 5 && len(workersSeen) < 2; run++ {
		workersSeen = make(map[int]bool)
		Run(cfg, func(c *Ctx) {
			c.ForNested(0, 64, func(cc *Ctx, i int) {
				<-mu
				workersSeen[cc.Worker().ID()] = true
				mu <- struct{}{}
				// enough inner work to straddle several beats
				x := 0.0
				for k := 0; k < 200_000; k++ {
					x += float64(k)
				}
				_ = x
			})
		})
	}
	if len(workersSeen) < 2 {
		t.Skipf("only %d workers participated (machine too loaded?)", len(workersSeen))
	}
}

// TestTracedLoopRecordsPerPromotionNotPerIteration is the structural
// half of the tracer overhead contract (DESIGN.md §11): a traced
// fine-grained loop records events per promotion, which ♥ amortizes,
// and none per iteration or poll. Under the deterministic counting
// mechanism a promotion costs four events (a timer mechanism adds a
// raise and a penalty); the ceiling of eight leaves headroom for new
// event kinds but not for an O(iterations) one.
func TestTracedLoopRecordsPerPromotionNotPerIteration(t *testing.T) {
	const n = 1 << 20
	tr := trace.New(1, 0)
	var sum int64
	st := Run(Config{Workers: 1, Mechanism: interrupt.NewCountingPoll(64), Tracer: tr}, func(c *Ctx) {
		c.For(0, n, func(i int) { sum += int64(i) })
	})
	if want := int64(n) * (n - 1) / 2; sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
	if st.Promotions < 50 {
		t.Fatalf("only %d promotions: the loop is not exercising the promotion path", st.Promotions)
	}
	d := tr.Drain()
	var events int64
	for _, c := range d.Counts {
		events += c
	}
	if limit := 8*st.Promotions + 16; events > limit {
		t.Errorf("%d events for %d promotions over %d iterations, ceiling %d: %v",
			events, st.Promotions, n, limit, d.CountMap())
	}
	if d.Dropped != 0 {
		t.Errorf("%d events dropped from the default-capacity ring", d.Dropped)
	}
}
