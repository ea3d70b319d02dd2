package machine_test

import (
	"fmt"
	"testing"

	"tpal/internal/minipar"
	"tpal/internal/tpal"
	"tpal/internal/tpal/asm"
	"tpal/internal/tpal/machine"
	"tpal/internal/tpal/machine/compile"
	"tpal/internal/tpal/programs"
)

// TestForkAllocs pins what one fork costs in heap allocations on the
// compiled backend under Lockstep at ♥ = 30. A fork allocates the child
// task, its join edge and, unless a freed one is at hand, the child's
// register file (slot array and written bitmap); a pair-completing join
// merges in place and allocates nothing. That is 4 per fork; the bound
// leaves room for the run's fixed setup and the free list's growth.
func TestForkAllocs(t *testing.T) {
	plusReduce := compileMP(t, plusReduceMP)
	for _, c := range []struct {
		name  string
		prog  *tpal.Program
		regs  machine.RegFile
		forks int64
	}{
		{"plus-reduce", plusReduce, machine.RegFile{"n": machine.IntV(60_000)}, 8191},
		{"pow", programs.Pow(), machine.RegFile{"d": machine.IntV(1), "e": machine.IntV(2000)}, 511},
	} {
		t.Run(c.name, func(t *testing.T) {
			cp, err := compile.Compile(c.prog, compile.Options{})
			if err != nil {
				t.Fatal(err)
			}
			cfg := machine.Config{Heartbeat: 30, Regs: c.regs, SkipVerify: true}
			res, err := cp.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Forks != c.forks {
				t.Fatalf("forks = %d, want %d", res.Stats.Forks, c.forks)
			}
			allocs := testing.AllocsPerRun(3, func() {
				if _, err := cp.Run(cfg); err != nil {
					t.Fatal(err)
				}
			})
			perFork := allocs / float64(c.forks)
			t.Logf("%.0f allocs per run, %.3f per fork", allocs, perFork)
			if perFork > 4.1 {
				t.Errorf("%.3f allocs per fork, want ≤ 4.1", perFork)
			}
		})
	}
}

// retireThenFork makes a task retire and another fork in the same
// Lockstep round: in round 4 main arrives first at its join and
// retires, and kid, after it in the task list, forks gk. No more than
// two tasks are ever live, but the task list holds three entries until
// the next round drops main's tombstone.
const retireThenFork = `
program retire-then-fork entry main

block main [.] {
  jr := jralloc after
  j2 := jralloc after2
  fork jr, kid
  join jr
}

block kid [.] {
  fork j2, gk
  join j2
}

block gk [.] {
  join j2
}

block after2 [jtppt assoc-comm; {}; comb2] {
  join jr
}

block comb2 [.] {
  join jr
}

block after [jtppt assoc-comm; {}; comb] {
  halt
}

block comb [.] {
  join jr
}
`

// TestMaxLiveTasks pins Stats.MaxLiveTasks where tasks retire in the
// middle of a Lockstep round, on both backends under every schedule.
// The count is the live set's peak, so a retired task must leave it at
// once, whether the engine removes it eagerly or leaves a tombstone for
// the next round to drop. fib at ♥ = 2 forks at every promotion point
// and completes hundreds of pairs per round; retireThenFork is the
// smallest run whose peak a counted tombstone would raise.
func TestMaxLiveTasks(t *testing.T) {
	retire, err := asm.Parse(retireThenFork)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		prog      *tpal.Program
		regs      machine.RegFile
		heartbeat int64
		steps     int64
		maxLive   [3]int // Lockstep, RandomOrder (seed 0), DepthFirst
	}{
		{"fib", programs.Fib(), machine.RegFile{"n": machine.IntV(15)}, 2, 48331, [3]int{466, 333, 8}},
		{"retire-then-fork", retire, nil, 0, 10, [3]int{2, 2, 3}},
	} {
		cp, err := compile.Compile(c.prog, compile.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for si, schedule := range []machine.SchedulePolicy{machine.Lockstep, machine.RandomOrder, machine.DepthFirst} {
			for _, backend := range []string{"interp", "compiled"} {
				name := fmt.Sprintf("%s/%s/%s", c.name, []string{"lockstep", "random", "depth-first"}[si], backend)
				t.Run(name, func(t *testing.T) {
					cfg := machine.Config{Heartbeat: c.heartbeat, Schedule: schedule, Regs: c.regs}
					var res machine.Result
					var err error
					if backend == "compiled" {
						res, err = cp.Run(cfg)
					} else {
						res, err = machine.Run(c.prog, cfg)
					}
					if err != nil {
						t.Fatal(err)
					}
					if res.Stats.Steps != c.steps {
						t.Errorf("steps = %d, want %d", res.Stats.Steps, c.steps)
					}
					if res.Stats.MaxLiveTasks != c.maxLive[si] {
						t.Errorf("MaxLiveTasks = %d, want %d", res.Stats.MaxLiveTasks, c.maxLive[si])
					}
				})
			}
		}
	}
}

func compileMP(tb testing.TB, src string) *tpal.Program {
	tb.Helper()
	mp, err := minipar.Parse(src)
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := minipar.Compile(mp)
	if err != nil {
		tb.Fatal(err)
	}
	return prog
}
