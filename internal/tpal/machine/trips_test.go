package machine

import (
	"fmt"
	"strings"
	"testing"

	"tpal/internal/tpal"
	"tpal/internal/tpal/analysis"
	"tpal/internal/tpal/asm"
)

// tripCountdownSrc is a constant countdown with a promotion-ready
// header and a decline-everything handler: the static trip pass proves
// exactly 6 header entries, and heartbeat diversions through hb must
// not inflate the observed count.
const tripCountdownSrc = `
program countdown entry main

block main [.] {
  i := 5
  jump loop
}

block loop [prppt hb] {
  t := i == 0
  if-jump t, done
  i := i - 1
  jump loop
}

block hb [.] {
  jump loop
}

block done [.] {
  halt
}
`

// tripNestedSrc nests two constant loops; the observed inner-header
// count per task is bounded by the chain product trip(outer)*trip(inner).
const tripNestedSrc = `
program nested entry main

block main [.] {
  i := 0
  jump outer
}

block outer [.] {
  t := i < 3
  if-jump t, obody
  jump done
}

block obody [.] {
  j := 0
  jump inner
}

block inner [.] {
  u := j < 4
  if-jump u, ibody
  jump onext
}

block ibody [.] {
  j := j + 1
  jump inner
}

block onext [.] {
  i := i + 1
  jump outer
}

block done [.] {
  halt
}
`

// constProdSrc is the Figure 32–34 prod program with its entry
// registers pinned inside the program, so the trip pass can bound the
// promotable serial loop while the real promotion handlers fork real
// parallel tasks under heartbeats. (Inlined rather than derived from
// programs.ProdSource: that package imports machine.)
const constProdSrc = `
program prod entry main

block main [.] {
  a := 12
  b := 3
  ret := done
  jump prod
}

block done [.] {
  halt
}

block prod [.] {
  r := 0
  jump loop
}

block exit [jtppt assoc-comm; {r -> r2}; comb] {
  c := r
  jump ret
}

block loop [prppt loop-try-promote] {
  if-jump a, exit
  r := r + b
  a := a - 1
  jump loop
}

block loop-try-promote [.] {
  t := a < 2
  if-jump t, loop
  jr := jralloc exit
  jump loop-promote
}

block loop-par-try-promote [.] {
  t := a < 2
  if-jump t, loop-par
  jump loop-promote
}

block loop-promote [.] {
  m := a / 2
  n := a % 2
  a := m
  tr := r
  r := 0
  fork jr, loop-par
  a := m + n
  r := tr
  jump loop-par
}

block loop-par [prppt loop-par-try-promote] {
  if-jump a, exit-par
  r := r + b
  a := a - 1
  jump loop-par
}

block comb [.] {
  r := r + r2
  join jr
}

block exit-par [.] {
  join jr
}
`

// countTrips sets cfg.Trace to count block entries and returns, per
// label, the maximum over tasks of how often one task entered and
// executed that block. An instruction or terminator event at offset 0
// is such an entry. An arrival diverted to a heartbeat handler emits a
// promotion event instead; the handler's return re-arrives at the same
// head and is counted then, so one logical loop iteration counts once
// no matter how many interrupts it absorbs. The per-task maximum, not
// the sum across tasks, is what the static trip bound constrains: a
// promoted loop splits its iteration space across tasks, and each
// task's share, including its final guard-failing entry, is at most
// the serial count. The map fills in as the run proceeds.
func countTrips(cfg *Config) map[tpal.Label]int64 {
	type entry struct {
		task  int
		label tpal.Label
	}
	perTask := make(map[entry]int64)
	trips := make(map[tpal.Label]int64)
	cfg.Trace = func(e TraceEvent) {
		if (e.Kind == TraceInstr || e.Kind == TraceTerm) && e.Offset == 0 {
			k := entry{e.Task, e.Label}
			perTask[k]++
			trips[e.Label] = max(trips[e.Label], perTask[k])
		}
	}
	return trips
}

// staticTripCeilings analyzes p and returns, per loop header, the
// chain product of inferred per-pass upper bounds along the header's
// ancestor chain — the bound on any single task's observed entries.
// Headers under an unbounded ancestor carry no per-task bound and are
// omitted.
func staticTripCeilings(t *testing.T, p *tpal.Program, entry []tpal.Reg) map[tpal.Label]int64 {
	t.Helper()
	r := analysis.Analyze(p, analysis.Options{EntryRegs: entry})
	ceil := make(map[tpal.Label]int64)
	var walk func(l *analysis.Loop, outer int64)
	walk = func(l *analysis.Loop, outer int64) {
		if !l.Trip.Bounded() {
			return // unbounded pass count poisons the whole subtree
		}
		product := outer * l.Trip.Hi
		ceil[l.Header] = product
		for _, c := range l.Children {
			walk(c, product)
		}
	}
	for _, l := range r.Loops {
		walk(l, 1)
	}
	return ceil
}

// TestTripsBoundObserved is the static⇒dynamic trip contract: across
// the schedule matrix (serial plus several heartbeats under every
// scheduling order, race detector on), no task ever enters a loop
// header more often than the phase-7 chain-product upper bound.
func TestTripsBoundObserved(t *testing.T) {
	progs := []struct {
		name string
		src  string
	}{
		{"countdown", tripCountdownSrc},
		{"nested", tripNestedSrc},
		{"const-prod", constProdSrc},
	}
	type sched struct {
		name string
		cfg  Config
	}
	var matrix []sched
	for _, hb := range []int64{0, 8, 16, 50} {
		matrix = append(matrix,
			sched{fmt.Sprintf("hb%d/lockstep", hb), Config{Heartbeat: hb}},
			sched{fmt.Sprintf("hb%d/random", hb), Config{Heartbeat: hb, Schedule: RandomOrder, Seed: 11}},
			sched{fmt.Sprintf("hb%d/depth", hb), Config{Heartbeat: hb, Schedule: DepthFirst}},
		)
	}
	for _, pc := range progs {
		p, err := asm.Parse(pc.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", pc.name, err)
		}
		ceil := staticTripCeilings(t, p, nil)
		if len(ceil) == 0 {
			t.Fatalf("%s: no bounded headers — the program no longer exercises the contract", pc.name)
		}
		for _, sc := range matrix {
			t.Run(pc.name+"/"+sc.name, func(t *testing.T) {
				cfg := sc.cfg
				cfg.RaceDetect = true
				trips := countTrips(&cfg)
				if _, err := Run(p, cfg); err != nil {
					t.Fatalf("run: %v", err)
				}
				if len(trips) == 0 {
					t.Fatal("no block entries counted")
				}
				for h, bound := range ceil {
					if got := trips[h]; got > bound {
						t.Errorf("header %s observed %d trips, static bound %d", h, got, bound)
					}
				}
			})
		}
	}
}

// TestTripCountsExactSerial pins the serial counts for the countdown:
// with the heartbeat off the static exact bound is attained, not just
// respected.
func TestTripCountsExactSerial(t *testing.T) {
	p := asm.MustParse(tripCountdownSrc)
	var cfg Config
	trips := countTrips(&cfg)
	if _, err := Run(p, cfg); err != nil {
		t.Fatal(err)
	}
	if got := trips["loop"]; got != 6 {
		t.Errorf("serial loop trips = %d, want exactly 6", got)
	}
}

// FuzzTrips fuzzes the contract on a parameterized countdown: whatever
// start value, heartbeat, and schedule the fuzzer picks, the observed
// per-task trips stay within the static bound the analyzer infers for
// that exact program.
func FuzzTrips(f *testing.F) {
	f.Add(int64(5), int64(0), uint8(0))
	f.Add(int64(40), int64(8), uint8(1))
	f.Add(int64(0), int64(3), uint8(2))
	f.Fuzz(func(t *testing.T, start, hb int64, schedule uint8) {
		if start < 0 || start > 2000 {
			return
		}
		if hb < 0 || hb > 1000 {
			return
		}
		src := strings.Replace(tripCountdownSrc, "i := 5", fmt.Sprintf("i := %d", start), 1)
		p, err := asm.Parse(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		ceil := staticTripCeilings(t, p, nil)
		cfg := Config{
			Heartbeat: hb,
			Schedule:  SchedulePolicy(schedule % 3),
			Seed:      int64(schedule),
		}
		trips := countTrips(&cfg)
		if _, err := Run(p, cfg); err != nil {
			t.Fatalf("run: %v", err)
		}
		for h, bound := range ceil {
			if got := trips[h]; got > bound {
				t.Errorf("start=%d hb=%d sched=%d: header %s observed %d trips, static bound %d",
					start, hb, schedule, h, got, bound)
			}
		}
	})
}
