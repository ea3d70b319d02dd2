package machine_test

import (
	"fmt"
	"testing"

	"tpal/internal/tpal"
	"tpal/internal/tpal/machine"
	"tpal/internal/tpal/programs"
	"tpal/internal/trace"
)

// TestRecordMatchesStats holds the ring a Record hook fills to the
// machine's own counters, across the corpus, every schedule policy and
// two heartbeat rates: one promotion event per handler run, one task
// start and one task end per task (the root plus one per fork), a gap
// histogram whose maximum is Stats.MaxPromotionGap, and one fuel
// checkpoint per 256 steps, the first at step 0.
func TestRecordMatchesStats(t *testing.T) {
	if machine.Record(nil) != nil {
		t.Fatal("Record(nil) is not nil: an untraced run would pay for a hook")
	}
	cases := []struct {
		name string
		prog *tpal.Program
		regs machine.RegFile
	}{
		{"prod", programs.Prod(), machine.RegFile{"a": machine.IntV(200), "b": machine.IntV(3)}},
		{"pow", programs.Pow(), machine.RegFile{"d": machine.IntV(1), "e": machine.IntV(200)}},
		{"fib", programs.Fib(), machine.RegFile{"n": machine.IntV(12)}},
	}
	schedules := []machine.SchedulePolicy{machine.Lockstep, machine.RandomOrder, machine.DepthFirst}
	for _, c := range cases {
		for _, sched := range schedules {
			for _, hb := range []int64{8, 64} {
				t.Run(fmt.Sprintf("%s/schedule-%d/hb%d", c.name, sched, hb), func(t *testing.T) {
					tr := trace.New(1, 64) // the aggregates stay exact when the ring wraps
					res, err := machine.Run(c.prog, machine.Config{
						Heartbeat: hb,
						Schedule:  sched,
						Seed:      7,
						MaxSteps:  1_000_000,
						Regs:      c.regs.Clone(),
						Trace:     machine.Record(tr),
					})
					if err != nil {
						t.Fatal(err)
					}
					st, d := res.Stats, tr.Drain()
					if st.Forks == 0 {
						t.Fatal("no forks: the case no longer exercises promotion")
					}
					if got := d.Count(trace.EvPromotion); got != st.HandlerRuns {
						t.Errorf("promotion events %d, HandlerRuns %d", got, st.HandlerRuns)
					}
					for _, k := range []trace.Kind{trace.EvTaskStart, trace.EvTaskEnd} {
						if got := d.Count(k); got != 1+st.Forks {
							t.Errorf("%s events %d, want 1 + Forks = %d", k, got, 1+st.Forks)
						}
					}
					if d.MaxGap != st.MaxPromotionGap {
						t.Errorf("ring MaxGap %d, MaxPromotionGap %d", d.MaxGap, st.MaxPromotionGap)
					}
					if got, want := d.Count(trace.EvFuelCheck), (st.Steps-1)/256+1; got != want {
						t.Errorf("fuel-check events %d, want (Steps-1)/256+1 = %d (Steps %d)", got, want, st.Steps)
					}
				})
			}
		}
	}
}
