package opt

import (
	"strings"
	"testing"

	"tpal/internal/tpal"
	"tpal/internal/tpal/analysis"
	"tpal/internal/tpal/asm"
	"tpal/internal/tpal/programs"
)

// --- certifier unit behavior ---

func TestCertifyDiagsRejectsGrowth(t *testing.T) {
	d := func(code analysis.Code, sev analysis.Severity) analysis.Diag {
		return analysis.Diag{Code: code, Severity: sev, Block: "b", Instr: 0}
	}
	before := []analysis.Diag{d("TP050", analysis.Warning)}
	if err := certifyDiags(before, nil); err != nil {
		t.Errorf("dropping diagnostics must certify, got %v", err)
	}
	if err := certifyDiags(before, before); err != nil {
		t.Errorf("unchanged diagnostics must certify, got %v", err)
	}
	after := append([]analysis.Diag{d("TP023", analysis.Error)}, before...)
	if err := certifyDiags(before, after); err == nil {
		t.Error("a new diagnostic must fail certification")
	}
	grown := append([]analysis.Diag{d("TP050", analysis.Warning)}, before...)
	if err := certifyDiags(before, grown); err == nil {
		t.Error("more of the same diagnostic must fail certification")
	}
}

func TestCertifyLatency(t *testing.T) {
	fin := func(b int64) analysis.LatencyBound {
		return analysis.LatencyBound{Class: analysis.LatencyFinite, Bound: b}
	}
	unb := analysis.LatencyBound{Class: analysis.LatencyUnbounded, Bound: -1}
	if err := certifyLatency(fin(100), fin(80), 0); err != nil {
		t.Errorf("shrinking bound must certify, got %v", err)
	}
	if err := certifyLatency(fin(100), fin(101), 0); err == nil {
		t.Error("growing bound with zero allowance must fail")
	}
	if err := certifyLatency(fin(100), fin(300), 400); err != nil {
		t.Errorf("growth within allowance must certify, got %v", err)
	}
	if err := certifyLatency(fin(100), unb, 1<<40); err == nil {
		t.Error("grade worsening must fail regardless of allowance")
	}
	if err := certifyLatency(unb, fin(100), 0); err != nil {
		t.Errorf("grade improving must certify, got %v", err)
	}
}

// --- small hand-written programs through the pipeline ---

func mustOptimize(t *testing.T, src string, opts Options) *Result {
	t.Helper()
	res, err := Optimize(asm.MustParse(src), opts)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if err := res.Program.Validate(); err != nil {
		t.Fatalf("optimized program invalid: %v", err)
	}
	if analysis.HasErrors(analysis.Analyze(res.Program, analysis.Options{EntryRegs: opts.EntryRegs, Races: true}).Diags) {
		t.Fatalf("optimized program has verifier errors")
	}
	return res
}

func TestConstFoldCollapsesBranch(t *testing.T) {
	res := mustOptimize(t, `
program cf entry main
block main [.] {
  a := 2
  b := a + 3
  c := b * b
  t := c == 25
  if-jump t, yes
  r := 0
  jump fin
}
block yes [.] {
  r := 1
  jump fin
}
block fin [.] {
  halt
}
`, Options{LiveOut: []tpal.Reg{"r"}})
	if res.Rewrites() == 0 {
		t.Fatal("expected rewrites")
	}
	// The arithmetic chain is known, the comparison holds, so the branch
	// folds into an unconditional transfer and the untaken tail dies.
	p := res.Program
	main := p.Block("main")
	if main.Term.Kind != tpal.TJump || main.Term.Val.Label != "yes" {
		t.Fatalf("main should end in jump yes, got %s", main.Term)
	}
	if res.After.Instrs >= res.Before.Instrs {
		t.Errorf("instruction count should shrink: %d -> %d", res.Before.Instrs, res.After.Instrs)
	}
	yes := p.Block("yes")
	if len(yes.Instrs) != 1 || yes.Instrs[0].String() != "r := 1" {
		t.Errorf("yes block mangled: %v", yes.Instrs)
	}
}

func TestConstFoldKeepsZeroDivisor(t *testing.T) {
	res := mustOptimize(t, `
program dz entry main
block main [.] {
  z := 0
  n := 7
  r := n / z
  halt
}
`, Options{})
	// The division faults at run time; folding it (or substituting the
	// literal zero) would either change behavior or mint a new static
	// diagnostic, so the divisor register must survive.
	main := res.Program.Block("main")
	found := false
	for _, in := range main.Instrs {
		if in.Kind == tpal.IBinOp && in.Op == tpal.OpDiv && in.Val.Kind == tpal.OperReg {
			found = true
		}
	}
	if !found {
		t.Fatalf("division by register zero must be preserved, got %s", res.Program)
	}
}

func TestThreadAndUnreachable(t *testing.T) {
	res := mustOptimize(t, `
program th entry main
block main [.] {
  a := 1
  jump t1
}
block t1 [.] {
  jump t2
}
block t2 [.] {
  jump fin
}
block fin [.] {
  halt
}
`, Options{})
	p := res.Program
	if got := p.Block("main").Term.Val.Label; got != "fin" {
		t.Errorf("jump not threaded to fin: %s", got)
	}
	if len(p.Blocks) != 2 {
		t.Errorf("trivial blocks not collected: %d blocks remain (%s)", len(p.Blocks), p)
	}
}

func TestDCERespectsLiveOut(t *testing.T) {
	src := `
program dc entry main
block main [.] {
  x := 41
  y := 99
  r := x + 1
  halt
}
`
	// With r observable, the whole block folds to one move: the constant
	// chain makes x dead, and y was dead all along.
	res := mustOptimize(t, src, Options{LiveOut: []tpal.Reg{"r"}})
	main := res.Program.Block("main")
	if len(main.Instrs) != 1 || main.Instrs[0].String() != "r := 42" {
		t.Errorf("want single 'r := 42', got %v", main.Instrs)
	}
	// With everything observable (nil LiveOut), no definition may die.
	res = mustOptimize(t, src, Options{})
	if got := len(res.Program.Block("main").Instrs); got != 3 {
		t.Errorf("nil LiveOut must keep all definitions, got %d instrs", got)
	}
}

// --- prppt elimination on the paper programs ---

func TestPrpptKeptInSingleLoop(t *testing.T) {
	res, err := Optimize(programs.Prod(), Options{EntryRegs: []tpal.Reg{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	// prod's two loops each carry the only promotion-ready point on
	// their cycle; removing either unbounds the promotion gap, so both
	// must survive, each reported as load-bearing.
	if got := res.Program.Prppts(); len(got) != 2 {
		t.Fatalf("prod prppts must survive, got %v", got)
	}
	kept := 0
	for _, d := range res.Notes() {
		if d.Code == analysis.CodeOptPrpptGrade {
			kept++
		}
	}
	if kept < 2 {
		t.Errorf("want TP081 notes for both kept prppts, got %d in %v", kept, res.Notes())
	}
}

func TestPrpptGapBudgetRejection(t *testing.T) {
	// A one-step budget can never absorb a removal: every prppt the
	// grade check would allow must instead be rejected on the budget.
	res, err := Optimize(programs.Pow(), Options{EntryRegs: []tpal.Reg{"d", "e"}, GapBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(res.Program.Prppts()), len(programs.Pow().Prppts()); got != want {
		t.Fatalf("GapBudget 1 must keep all %d prppts, kept %d", want, got)
	}
	budget := 0
	for _, d := range res.Notes() {
		if d.Code == analysis.CodeOptPrpptBudget {
			budget++
		}
	}
	if budget == 0 {
		t.Errorf("want at least one TP080 budget rejection, notes: %v", res.Notes())
	}
}

// --- the certifier catches deliberately unsound passes ---

// evilPad is an unsound pass: it pads the entry block with an extra
// instruction, growing the work bound.
func evilPad(p *tpal.Program, c *optCtx) (*tpal.Program, int, []analysis.Diag) {
	b := p.Block(p.Entry)
	b.Instrs = append(b.Instrs, tpal.Instr{Kind: tpal.IMove, Dst: "evil", Val: tpal.N(0)})
	return p, 1, nil
}

// evilUninit is an unsound pass: it rewrites the first move to read a
// register no path initializes, minting a fresh verifier error.
func evilUninit(p *tpal.Program, c *optCtx) (*tpal.Program, int, []analysis.Diag) {
	b := p.Block(p.Entry)
	for i := range b.Instrs {
		if b.Instrs[i].Kind == tpal.IMove {
			b.Instrs[i].Val = tpal.R("never-written")
			return p, 1, nil
		}
	}
	return p, 0, nil
}

func TestCertifierRevertsUnsoundPass(t *testing.T) {
	zero := func(*optCtx) int64 { return 0 }
	for _, tc := range []struct {
		name string
		fn   func(*tpal.Program, *optCtx) (*tpal.Program, int, []analysis.Diag)
	}{
		{"pad-work", evilPad},
		{"uninit-read", evilUninit},
	} {
		t.Run(tc.name, func(t *testing.T) {
			orig := programs.Prod()
			opts := Options{EntryRegs: []tpal.Reg{"a", "b"}}
			rep := analysis.Analyze(orig, analysis.Options{EntryRegs: opts.EntryRegs, Races: true})
			res, err := optimize(orig, rep, opts, []pass{{name: tc.name, latencyAllowance: zero, fn: tc.fn}})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Passes) == 0 || !res.Passes[0].Reverted {
				t.Fatalf("unsound pass must be reverted: %+v", res.Passes)
			}
			var tp082 bool
			for _, d := range res.Passes[0].Notes {
				if d.Code == analysis.CodeOptReverted {
					tp082 = true
				}
			}
			if !tp082 {
				t.Error("reverted pass must carry a TP082 note")
			}
			if res.Program.String() != programs.Prod().String() {
				t.Error("reverted optimization must leave the program byte-identical")
			}
			if res.Rewrites() != 0 {
				t.Errorf("reverted rewrites must not count, got %d", res.Rewrites())
			}
		})
	}
}

func TestOptimizeRejectsUnverifiedInput(t *testing.T) {
	// Jumping through an integer is a definite fault (TP024), so the
	// optimizer must refuse rather than transform a condemned program.
	p := asm.MustParse(`
program bad entry main
block main [.] {
  r := 1
  jump r
}
`)
	if _, err := Optimize(p, Options{}); err == nil {
		t.Fatal("optimizing a program with verifier errors must fail")
	}
}

func TestOptimizeDoesNotMutateInput(t *testing.T) {
	orig := programs.Pow()
	before := orig.String()
	if _, err := Optimize(orig, Options{EntryRegs: []tpal.Reg{"d", "e"}}); err != nil {
		t.Fatal(err)
	}
	if orig.String() != before {
		t.Fatal("Optimize mutated its input")
	}
}

func TestTableMentionsEveryPass(t *testing.T) {
	res, err := Optimize(programs.Fib(), Options{EntryRegs: []tpal.Reg{"n"}})
	if err != nil {
		t.Fatal(err)
	}
	table := res.Table()
	for _, name := range []string{"before:", "after:", "constfold", "thread", "unreachable", "dce", "prppt", "cleanup"} {
		if !strings.Contains(table, name) {
			t.Errorf("table missing %q:\n%s", name, table)
		}
	}
}
