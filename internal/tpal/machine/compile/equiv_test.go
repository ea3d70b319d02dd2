package compile

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tpal/internal/minipar"
	"tpal/internal/tpal"
	"tpal/internal/tpal/analysis"
	"tpal/internal/tpal/asm"
	"tpal/internal/tpal/machine"
	"tpal/internal/tpal/programs"
)

// scheduleMatrix is the full schedule matrix the oracle contract is
// checked on: serial elaboration, aggressive and lazy heartbeat,
// random interleavings under several seeds, depth-first, and
// signal-driven rollforward — all with the race sanitizer on and trip
// counting enabled, so every Stats field is exercised.
func scheduleMatrix() []machine.Config {
	return []machine.Config{
		{},
		{Heartbeat: 1},
		{Heartbeat: 8},
		{Heartbeat: 30},
		{Heartbeat: 300},
		{Heartbeat: 8, Schedule: machine.RandomOrder, Seed: 1},
		{Heartbeat: 8, Schedule: machine.RandomOrder, Seed: 7},
		{Heartbeat: 30, Schedule: machine.RandomOrder, Seed: 42},
		{Heartbeat: 8, Schedule: machine.DepthFirst},
		{Heartbeat: 30, Schedule: machine.DepthFirst},
		{SignalPeriod: 16},
		{Heartbeat: 8, SignalPeriod: 16},
	}
}

// renderRegs maps a register file to comparable strings: stacks and
// join records differ by identity across two runs, but their rendered
// forms (absolute offsets, allocation sequence numbers) must agree.
func renderRegs(r machine.RegFile) map[string]string {
	out := make(map[string]string, len(r))
	for k, v := range r {
		out[string(k)] = v.String()
	}
	return out
}

// runBoth executes the program under cfg on both backends, with trace
// capture, and reports the pair of outcomes.
type outcome struct {
	res    machine.Result
	err    error
	events []machine.TraceEvent
}

func runOn(p *tpal.Program, cfg machine.Config, compiled bool) outcome {
	var o outcome
	cfg.Regs = cfg.Regs.Clone()
	cfg.Trace = func(e machine.TraceEvent) { o.events = append(o.events, e) }
	if compiled {
		o.res, o.err = Run(p, cfg)
	} else {
		o.res, o.err = machine.Run(p, cfg)
	}
	return o
}

// assertEquiv runs p under cfg on interpreter and compiled backend and
// requires identical outcomes: same error text (or both nil), same
// final register file, same Stats including MaxPromotionGap, and the
// same trace stream.
func assertEquiv(t *testing.T, label string, p *tpal.Program, cfg machine.Config) {
	t.Helper()
	// Heartbeat 1 livelocks some corpus programs in the interpreter
	// (promotion re-arms faster than the loop body advances); the
	// oracle contract on such runs is that both backends hit the same
	// budget fault on the same step with identical trace prefixes.
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 200_000
	}
	want := runOn(p, cfg, false)
	got := runOn(p, cfg, true)

	if (want.err == nil) != (got.err == nil) {
		t.Fatalf("%s: error divergence: interp=%v compiled=%v", label, want.err, got.err)
	}
	if want.err != nil && want.err.Error() != got.err.Error() {
		t.Fatalf("%s: fault text divergence:\n  interp:   %v\n  compiled: %v", label, want.err, got.err)
	}
	if want.err == nil {
		if wr, gr := renderRegs(want.res.Regs), renderRegs(got.res.Regs); !reflect.DeepEqual(wr, gr) {
			t.Fatalf("%s: register divergence:\n  interp:   %v\n  compiled: %v", label, wr, gr)
		}
	}
	if !reflect.DeepEqual(want.res.Stats, got.res.Stats) {
		t.Fatalf("%s: stats divergence:\n  interp:   %+v\n  compiled: %+v", label, want.res.Stats, got.res.Stats)
	}
	if len(want.events) != len(got.events) {
		t.Fatalf("%s: trace length divergence: interp=%d compiled=%d", label, len(want.events), len(got.events))
	}
	for i := range want.events {
		if want.events[i] != got.events[i] {
			t.Fatalf("%s: trace divergence at event %d:\n  interp:   %v\n  compiled: %v",
				label, i, want.events[i], got.events[i])
		}
	}
}

// progCase is one program plus its entry registers.
type progCase struct {
	name string
	prog *tpal.Program
	regs machine.RegFile
}

// corpusCases is the corpus every equivalence test runs: the paper's
// three programs at the canonical tpal-trace arguments plus edge
// argument vectors.
func corpusCases() []progCase {
	return []progCase{
		{"prod-9x4", programs.Prod(), machine.RegFile{"a": machine.IntV(9), "b": machine.IntV(4)}},
		{"prod-0x5", programs.Prod(), machine.RegFile{"a": machine.IntV(0), "b": machine.IntV(5)}},
		{"pow-2^6", programs.Pow(), machine.RegFile{"d": machine.IntV(2), "e": machine.IntV(6)}},
		{"fib-9", programs.Fib(), machine.RegFile{"n": machine.IntV(9)}},
		{"fib-1", programs.Fib(), machine.RegFile{"n": machine.IntV(1)}},
	}
}

func TestCorpusEquiv(t *testing.T) {
	for _, c := range corpusCases() {
		for i, cfg := range scheduleMatrix() {
			cfg.RaceDetect = true
			cfg.Regs = c.regs
			assertEquiv(t, fmt.Sprintf("%s/schedule-%d", c.name, i), c.prog, cfg)
		}
	}
}

// miniparCases compiles every checked-in minipar sample at its
// canonical argument vector.
func miniparCases(t *testing.T) []progCase {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "..", "minipar", "testdata", "*.mp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no minipar testdata programs found")
	}
	args := map[string][]int64{
		"fib.mp":         {10},
		"mixed.mp":       {7},
		"prod-pow.mp":    {3, 4},
		"sumsquares.mp":  {25},
		"triple-nest.mp": {3},
	}
	var out []progCase
	for _, file := range files {
		name := filepath.Base(file)
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		mp, err := minipar.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		asmProg, err := minipar.Compile(mp)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		argv, ok := args[name]
		if !ok {
			t.Errorf("%s has no argument vector; add it", name)
			continue
		}
		regs := make(machine.RegFile, len(argv))
		for i, p := range mp.Params {
			regs[tpal.Reg(p)] = machine.IntV(argv[i])
		}
		out = append(out, progCase{name, asmProg, regs})
	}
	return out
}

// TestMiniparEquiv runs every compiled minipar sample across the
// matrix on both backends.
func TestMiniparEquiv(t *testing.T) {
	for _, c := range miniparCases(t) {
		for i, cfg := range scheduleMatrix() {
			cfg.RaceDetect = true
			cfg.Regs = c.regs
			assertEquiv(t, fmt.Sprintf("%s/schedule-%d", c.name, i), c.prog, cfg)
		}
	}
}

// faultPrograms triggers every TP0xx runtime-fault class the machine
// can produce; each must yield a byte-identical error on both
// backends. They run with SkipVerify (the verifier would reject most
// of them up front — that path is covered by TestVerifyGateEquiv).
const faultHeader = "program faults entry start\n"

func faultCases() []struct{ name, src string } {
	return []struct{ name, src string }{
		{"sfree-below-base", faultHeader + `
block start [.] {
  sp := snew
  salloc sp, 2
  sfree sp, 5
  halt
}
`},
		{"prmpop-empty-mark", faultHeader + `
block start [.] {
  sp := snew
  salloc sp, 2
  prmpop mem[sp + 0]
  halt
}
`},
		{"prmsplit-no-marks", faultHeader + `
block start [.] {
  sp := snew
  salloc sp, 2
  prmsplit sp, r
  halt
}
`},
		{"load-out-of-bounds", faultHeader + `
block start [.] {
  sp := snew
  salloc sp, 1
  x := mem[sp + 9]
  halt
}
`},
		{"store-out-of-bounds", faultHeader + `
block start [.] {
  sp := snew
  mem[sp + 0] := 1
  halt
}
`},
		{"not-a-pointer", faultHeader + `
block start [.] {
  sp := 7
  salloc sp, 2
  halt
}
`},
		{"division-by-zero", faultHeader + `
block start [.] {
  z := 0
  q := z / z
  halt
}
`},
		{"modulo-by-zero", faultHeader + `
block start [.] {
  z := 0
  q := z % z
  halt
}
`},
		{"binop-on-label", faultHeader + `
block start [.] {
  l := start
  q := l + l
  halt
}
`},
		{"ifjump-target-not-label", faultHeader + `
block start [.] {
  z := 0
  if-jump z, z
  halt
}
`},
		{"jump-target-not-label", faultHeader + `
block start [.] {
  z := 0
  jump z
}
`},
		{"fork-not-a-record", faultHeader + `
block start [.] {
  j := 3
  fork j, start
  halt
}
`},
		{"join-not-a-record", faultHeader + `
block start [.] {
  j := 3
  join j
}
`},
	}
}

func TestFaultEquiv(t *testing.T) {
	for _, c := range faultCases() {
		p, err := asm.Parse(c.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", c.name, err)
		}
		for i, cfg := range scheduleMatrix() {
			cfg.SkipVerify = true
			cfg.RaceDetect = true
			assertEquiv(t, fmt.Sprintf("%s/schedule-%d", c.name, i), p, cfg)
		}
	}
}

// cfgCase is one named machine configuration.
type cfgCase struct {
	name string
	cfg  machine.Config
}

// budgetCases are the fuel, step-bound, and cancellation cuts on fib:
// each must stop both backends on the same step with the same error.
func budgetCases() []cfgCase {
	regs := machine.RegFile{"n": machine.IntV(12)}
	var out []cfgCase
	for _, fuel := range []int64{1, 7, 100, 1000} {
		out = append(out, cfgCase{fmt.Sprintf("fuel-%d", fuel),
			machine.Config{Heartbeat: 8, Fuel: fuel, Regs: regs}})
	}
	for _, steps := range []int64{1, 50, 500} {
		out = append(out, cfgCase{fmt.Sprintf("maxsteps-%d", steps),
			machine.Config{Heartbeat: 8, MaxSteps: steps, Regs: regs}})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return append(out, cfgCase{"context-cancelled", machine.Config{Heartbeat: 8, Context: ctx, Regs: regs}})
}

// TestBudgetEquiv pins fuel and context exhaustion: both backends must
// stop on the same step with the same error class and text.
func TestBudgetEquiv(t *testing.T) {
	fib := programs.Fib()
	for _, c := range budgetCases() {
		assertEquiv(t, c.name, fib, c.cfg)
	}
}

// TestVerifyGateEquiv requires the compiled backend to reject
// unverifiable programs with the interpreter's exact ErrVerify text,
// and to reject structurally invalid programs identically.
func TestVerifyGateEquiv(t *testing.T) {
	p, err := asm.Parse(faultHeader + `
block start [.] {
  sp := snew
  salloc sp, 2
  sfree sp, 5
  halt
}
`)
	if err != nil {
		t.Fatal(err)
	}
	_, ierr := machine.Run(p, machine.Config{})
	_, cerr := Run(p, machine.Config{})
	if ierr == nil || cerr == nil {
		t.Fatalf("verifier gate must reject: interp=%v compiled=%v", ierr, cerr)
	}
	if ierr.Error() != cerr.Error() {
		t.Fatalf("gate text divergence:\n  interp:   %v\n  compiled: %v", ierr, cerr)
	}
	if !strings.Contains(cerr.Error(), machine.ErrVerify.Error()) {
		t.Fatalf("compiled gate error is not ErrVerify: %v", cerr)
	}
}

// TestCheckHoisting pins that the verifier-driven hoisting actually
// fires on the corpus — a compiled verified program elides checks —
// and that a report-less compile does not.
func TestCheckHoisting(t *testing.T) {
	p := programs.Prod()
	report := analysis.Analyze(p, analysis.Options{EntryRegs: []tpal.Reg{"a", "b"}})
	if analysis.HasErrors(report.Diags) {
		t.Fatalf("corpus program does not verify: %v", analysis.Errors(report.Diags))
	}
	hoisted, err := Compile(p, Options{Report: report})
	if err != nil {
		t.Fatal(err)
	}
	bare, err := Compile(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if hoisted.Hoisted() <= bare.Hoisted() {
		t.Fatalf("report-driven compile hoisted %d checks, report-less %d; expected strictly more",
			hoisted.Hoisted(), bare.Hoisted())
	}
	if hoisted.Ops() != bare.Ops() {
		t.Fatalf("hoisting changed op count: %d vs %d", hoisted.Ops(), bare.Ops())
	}
}

// TestReusedProgramIsolation pins that one compiled Program can run
// many times without state leaking between runs.
func TestReusedProgramIsolation(t *testing.T) {
	p := programs.Fib()
	cp, err := Compile(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		res, err := cp.Run(machine.Config{
			SkipVerify: true, Heartbeat: 8, RaceDetect: true,
			Regs: machine.RegFile{"n": machine.IntV(10)},
		})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if got, _ := res.Regs.Get("f").AsInt(); got != programs.FibExpected(10) {
			t.Fatalf("run %d: f = %d, want %d", i, got, programs.FibExpected(10))
		}
	}
}

// TestExtraEntryRegs pins the flat-file edge case: entry registers the
// program text never names must survive to the final register file on
// both backends.
func TestExtraEntryRegs(t *testing.T) {
	assertEquiv(t, "extra-entry-reg", programs.Prod(), extraEntryRegsConfig())
}

func extraEntryRegsConfig() machine.Config {
	return machine.Config{
		Heartbeat: 8,
		Regs: machine.RegFile{
			"a": machine.IntV(5), "b": machine.IntV(5),
			"unused_entry": machine.IntV(99),
		},
	}
}

// FuzzBackendEquiv fuzzes the oracle contract over mutated corpus
// programs and fuzzer-chosen schedules: whatever the mutation does —
// halt, fault, race, diverge into the step budget — the two backends
// must agree byte for byte.
func FuzzBackendEquiv(f *testing.F) {
	f.Add(uint8(0), uint8(0), int64(0), int64(0), uint8(0), uint8(0))
	f.Add(uint8(1), uint8(1), int64(8), int64(3), uint8(2), uint8(1))
	f.Add(uint8(2), uint8(2), int64(30), int64(7), uint8(4), uint8(3))
	f.Fuzz(func(t *testing.T, progIdx, schedule uint8, hb, seed int64, mutKind, mutArg uint8) {
		if hb < 0 || hb > 1000 {
			return
		}
		cases := corpusCases()
		c := cases[int(progIdx)%len(cases)]
		p := c.prog
		mutateForFuzz(p, mutKind, mutArg)
		if p.Validate() != nil {
			return // structurally broken mutants are the assembler's problem
		}
		// Low step ceiling: promotion-livelocked mutants with the race
		// sanitizer on cost superlinear time per step (vector clocks
		// grow with task count), and the fuzzer flags slow inputs as
		// hangs. Equivalence of the truncated prefix is still checked.
		cfg := machine.Config{
			SkipVerify: true,
			Heartbeat:  hb,
			Schedule:   machine.SchedulePolicy(schedule % 3),
			Seed:       seed,
			MaxSteps:   20_000,
			RaceDetect: true,
			Regs:       c.regs,
		}
		if schedule%2 == 1 {
			cfg.SignalPeriod = 16
		}
		assertEquiv(t, "fuzz", p, cfg)
	})
}

// mutateForFuzz applies one small program mutation so the fuzzer
// reaches fault paths and hoisting-sensitive shapes the pristine
// corpus never exercises.
func mutateForFuzz(p *tpal.Program, kind, arg uint8) {
	if len(p.Blocks) == 0 {
		return
	}
	b := p.Blocks[int(arg)%len(p.Blocks)]
	switch kind % 6 {
	case 0:
		// pristine
	case 1:
		if len(b.Instrs) > 0 {
			i := int(arg) % len(b.Instrs)
			if b.Instrs[i].Kind == tpal.IBinOp {
				b.Instrs[i].Op = tpal.Op(int(b.Instrs[i].Op+1) % 17)
			}
		}
	case 2:
		if len(b.Instrs) > 0 {
			i := int(arg) % len(b.Instrs)
			if b.Instrs[i].Kind == tpal.ILoad || b.Instrs[i].Kind == tpal.IStore {
				b.Instrs[i].Off += 50 // push accesses out of bounds
			}
		}
	case 3:
		if len(b.Instrs) > 0 {
			i := int(arg) % len(b.Instrs)
			if b.Instrs[i].Kind == tpal.ISFree {
				b.Instrs[i].Off += 25 // free below the base
			}
		}
	case 4:
		if b.Term.Kind == tpal.TJump && b.Term.Val.Kind == tpal.OperLabel {
			b.Term.Val = tpal.L("no-such-block")
		}
	case 5:
		if len(b.Instrs) > 0 {
			i := int(arg) % len(b.Instrs)
			if b.Instrs[i].Kind == tpal.IMove {
				b.Instrs[i].Val = tpal.N(int64(arg) - 5)
			}
		}
	}
}
