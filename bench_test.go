// Ablation benchmarks for the design choices DESIGN.md §5 calls out:
// poll stride, promotion policy, the heartbeat interval and the Cilk
// loop grain, each swept on one native kernel at one worker. Nothing
// else measures these sweeps. How fast the system is belongs to the
// front-door benchmark (bash benchmark/run.sh) and the paper's figures
// to cmd/tpal-bench.
package tpal_test

import (
	"strconv"
	"testing"
	"time"

	"tpal/internal/bench"
	"tpal/internal/cilk"
	"tpal/internal/heartbeat"
	"tpal/internal/interrupt"
)

const benchScale = 0.15

func setupBench(b *testing.B, name string) bench.Benchmark {
	b.Helper()
	bm, err := bench.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	bm.Setup(benchScale)
	bm.RunSerial()
	return bm
}

func runHB(b *testing.B, bm bench.Benchmark, cfg heartbeat.Config) heartbeat.Stats {
	var last heartbeat.Stats
	for i := 0; i < b.N; i++ {
		last = heartbeat.Run(cfg, func(c *heartbeat.Ctx) {
			bm.RunHeartbeat(c)
		})
	}
	return last
}

func nautilusMech() interrupt.Mechanism {
	return interrupt.NewVirtualSim(interrupt.Nautilus, 15)
}

// BenchmarkAblationPollStride varies the promotion-ready poll stride on
// the finest-grained loop in the suite.
func BenchmarkAblationPollStride(b *testing.B) {
	bm := setupBench(b, "plus-reduce-array")
	for _, stride := range []int{8, 32, 128, 512, 2048} {
		stride := stride
		b.Run("stride-"+strconv.Itoa(stride), func(b *testing.B) {
			runHB(b, bm, heartbeat.Config{Workers: 1, Mechanism: nautilusMech(), PollStride: stride})
		})
	}
}

// BenchmarkAblationPromotionPolicy compares outer-most-first against
// inner-most-first promotion on a nested loop: inner-first produces many
// small tasks and a longer critical path.
func BenchmarkAblationPromotionPolicy(b *testing.B) {
	bm := setupBench(b, "mandelbrot")
	for _, pol := range []struct {
		name string
		p    heartbeat.PromotionPolicy
	}{{"outer-first", heartbeat.OuterFirst}, {"inner-first", heartbeat.InnerFirst}} {
		pol := pol
		b.Run(pol.name, func(b *testing.B) {
			st := runHB(b, bm, heartbeat.Config{Workers: 1, Mechanism: nautilusMech(), Policy: pol.p})
			b.ReportMetric(float64(st.Promotions), "tasks")
			b.ReportMetric(float64(st.SpanNanos)/1e6, "span-ms")
		})
	}
}

// BenchmarkAblationHeartbeatSweep sweeps ♥, the amortization/parallelism
// trade-off the tuner (cmd/tpal-tune) automates.
func BenchmarkAblationHeartbeatSweep(b *testing.B) {
	bm := setupBench(b, "plus-reduce-array")
	for _, hb := range []time.Duration{20, 50, 100, 200, 400} {
		hb := hb * time.Microsecond
		b.Run(hb.String(), func(b *testing.B) {
			st := runHB(b, bm, heartbeat.Config{Workers: 1, Heartbeat: hb, Mechanism: nautilusMech()})
			b.ReportMetric(float64(st.Promotions), "tasks")
		})
	}
}

// BenchmarkAblationCilkGrain varies the Cilk loop grain between the 8P
// heuristic's cap and single-iteration leaves.
func BenchmarkAblationCilkGrain(b *testing.B) {
	bm := setupBench(b, "plus-reduce-array")
	for _, grain := range []int{0, 1, 64, 2048, 65536} {
		grain := grain
		label := "heuristic"
		if grain > 0 {
			label = "grain-" + strconv.Itoa(grain)
		}
		b.Run(label, func(b *testing.B) {
			var st cilk.Stats
			for i := 0; i < b.N; i++ {
				st = cilk.Run(cilk.Config{Workers: 1, HeuristicWorkers: 15, Grain: grain}, func(c *cilk.Ctx) {
					bm.RunCilk(c)
				})
			}
			b.ReportMetric(float64(st.Sched.TasksCreated), "tasks")
		})
	}
}
