package analysis_test

import (
	"strings"
	"testing"

	"tpal/internal/tpal"
	"tpal/internal/tpal/analysis"
	"tpal/internal/tpal/asm"
	"tpal/internal/tpal/programs"
)

func verifySrc(t *testing.T, src string, entry ...tpal.Reg) []analysis.Diag {
	t.Helper()
	p, err := asm.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return analysis.VerifyWith(p, analysis.Options{EntryRegs: entry})
}

// wantDiag asserts that some diagnostic has the severity and contains
// the substring.
func wantDiag(t *testing.T, diags []analysis.Diag, sev analysis.Severity, sub string) {
	t.Helper()
	for _, d := range diags {
		if d.Severity == sev && strings.Contains(d.Msg, sub) {
			return
		}
	}
	t.Errorf("no %v diagnostic containing %q in:\n%s", sev, sub, diagDump(diags))
}

// wantCodedDiag additionally pins the stable diagnostic code.
func wantCodedDiag(t *testing.T, diags []analysis.Diag, sev analysis.Severity, code analysis.Code, sub string) {
	t.Helper()
	for _, d := range diags {
		if d.Severity == sev && d.Code == code && strings.Contains(d.Msg, sub) {
			return
		}
	}
	t.Errorf("no %v %s diagnostic containing %q in:\n%s", sev, code, sub, diagDump(diags))
}

func diagDump(diags []analysis.Diag) string {
	if len(diags) == 0 {
		return "  (no diagnostics)"
	}
	var b strings.Builder
	for _, d := range diags {
		b.WriteString("  " + d.String() + "\n")
	}
	return b.String()
}

func TestVerifyDetectsDefiniteFaults(t *testing.T) {
	cases := []struct {
		name, src, want string
		code            analysis.Code
	}{
		{"jump-through-unassigned", `
program p entry m
block m [.] {
  jump x
}`, `register "x" is never assigned`, analysis.CodeUseNeverAssigned},
		{"jump-through-int", `
program p entry m
block m [.] {
  x := 3
  jump x
}`, "never a label", analysis.CodeJumpTargetKind},
		{"join-through-int", `
program p entry m
block m [.] {
  j := 3
  join j
}`, "never a join record", analysis.CodeJoinRecordKind},
		{"fork-through-int", `
program p entry m
block m [.] {
  jr := 5
  fork jr, m
  halt
}`, "never a join record", analysis.CodeForkRecordKind},
		{"jralloc-without-jtppt", `
program p entry m
block m [.] {
  jr := jralloc m
  halt
}`, "lacks a jtppt annotation", analysis.CodeJrallocNotJtppt},
		{"binop-on-label", `
program p entry m
block m [.] {
  x := m
  y := x + 1
  halt
}`, "the operator faults on it", analysis.CodeBinopOperandKind},
		{"div-by-constant-zero", `
program p entry m
block m [.] {
  x := 1
  y := x / 0
  halt
}`, "by the constant zero", analysis.CodeDivByZero},
		{"sfree-below-base", `
program p entry m
block m [.] {
  s := snew
  salloc s, 1
  sfree s, 2
  halt
}`, "below the stack base", analysis.CodeSfreeBelowBase},
		{"load-outside-frame", `
program p entry m
block m [.] {
  s := snew
  salloc s, 1
  x := mem[s + 1]
  halt
}`, "the machine faults here", analysis.CodeOutOfFrame},
		{"store-outside-empty-frame", `
program p entry m
block m [.] {
  s := snew
  mem[s + 0] := 7
  halt
}`, "the machine faults here", analysis.CodeOutOfFrame},
		{"prmpop-on-empty", `
program p entry m
block m [.] {
  s := snew
  salloc s, 1
  prmpop mem[s + 0]
  halt
}`, "no live promotion-ready marks", analysis.CodePrmPopEmpty},
		{"prmsplit-on-empty", `
program p entry m
block m [.] {
  s := snew
  salloc s, 1
  prmsplit s, r
  halt
}`, "no live promotion-ready marks", analysis.CodePrmSplitEmpty},
		{"load-through-unassigned-base", `
program p entry m
block m [.] {
  v := mem[x + 0]
  halt
}`, "never assigned", analysis.CodeUseNeverAssigned},
		{"salloc-through-int", `
program p entry m
block m [.] {
  s := 5
  salloc s, 1
  halt
}`, "never a stack pointer", analysis.CodeStackBaseKind},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diags := verifySrc(t, tc.src)
			wantCodedDiag(t, diags, analysis.Error, tc.code, tc.want)
		})
	}
}

func TestVerifyWarnings(t *testing.T) {
	cases := []struct {
		name, src, want string
		code            analysis.Code
		entry           []tpal.Reg
	}{
		{name: "move-from-unassigned", src: `
program p entry m
block m [.] {
  y := x
  halt
}`, want: "before any assignment", code: analysis.CodeUseBeforeAssign},
		{name: "maybe-unassigned-on-branch", src: `
program p entry m
block m [.] {
  if-jump c, b
  x := 1
  jump b
}
block b [.] {
  y := x
  halt
}`, want: "may be unassigned", code: analysis.CodeUseMaybeUnassign, entry: []tpal.Reg{"c"}},
		{name: "fork-cannot-reach-join-parent", src: `
program p entry m
block m [.] {
  jr := jralloc j
  fork jr, w
  halt
}
block w [.] {
  halt
}
block j [jtppt assoc-comm; {x -> x2}; c] {
  halt
}
block c [.] {
  halt
}`, want: "can never reach a join", code: analysis.CodeForkNoJoinParent},
		{name: "forked-child-cannot-join", src: `
program p entry m
block m [.] {
  jr := jralloc j
  fork jr, w
  join jr
}
block w [.] {
  halt
}
block j [jtppt assoc-comm; {x -> x2}; c] {
  halt
}
block c [.] {
  join jr
}`, want: `task starting at "w" can never reach a join`, code: analysis.CodeForkNoJoinChild},
		{name: "unguarded-prmsplit", src: `
program p entry m
block m [.] {
  s := snew
  salloc s, 2
  if-jump c, q
  prmpush mem[s + 0]
  jump q
}
block q [.] {
  prmsplit s, r
  halt
}`, want: "not guarded by a prmempty check", code: analysis.CodePrmSplitUnguard, entry: []tpal.Reg{"c"}},
		{name: "annotated-promotion-handler", src: `
program p entry m
block m [prppt h] {
  halt
}
block h [prppt h2] {
  halt
}
block h2 [.] {
  halt
}`, want: "carries its own annotation", code: analysis.CodeAnnotatedHandler},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diags := verifySrc(t, tc.src, tc.entry...)
			wantCodedDiag(t, diags, analysis.Warning, tc.code, tc.want)
		})
	}
}

func TestVerifyCleanPrograms(t *testing.T) {
	cases := []struct {
		name, src string
		entry     []tpal.Reg
	}{
		{name: "balanced-stack-discipline", src: `
program p entry m
block m [.] {
  s := snew
  salloc s, 2
  mem[s + 0] := 7
  x := mem[s + 0]
  mem[s + 1] := x
  sfree s, 2
  halt
}`},
		{name: "guarded-prmsplit", src: `
program p entry m
block m [.] {
  s := snew
  salloc s, 2
  if-jump c, push
  jump q
}
block push [.] {
  prmpush mem[s + 0]
  jump q
}
block q [.] {
  e := prmempty s
  if-jump e, out
  prmsplit s, r
  jump out
}
block out [.] {
  halt
}`, entry: []tpal.Reg{"c"}},
		{name: "fork-join-round-trip", src: `
program p entry m
block m [.] {
  x := 1
  jr := jralloc j
  fork jr, w
  x := 2
  join jr
}
block w [.] {
  x := 3
  join jr
}
block j [jtppt assoc-comm; {x -> x2}; c] {
  halt
}
block c [.] {
  x := x + x2
  join jr
}`},
		{name: "both-branches-assign", src: `
program p entry m
block m [.] {
  if-jump c, a
  x := 1
  jump b
}
block a [.] {
  x := 2
  jump b
}
block b [.] {
  y := x
  halt
}`, entry: []tpal.Reg{"c"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if diags := verifySrc(t, tc.src, tc.entry...); len(diags) != 0 {
				t.Errorf("want no diagnostics, got:\n%s", diagDump(diags))
			}
		})
	}
}

// TestVerifyStructuralShortCircuit checks that phase 0 (structural
// validation) reports and suppresses the flow phases.
func TestVerifyStructuralShortCircuit(t *testing.T) {
	p := &tpal.Program{
		Name:  "p",
		Entry: "m",
		Blocks: []*tpal.Block{{
			Label: "m",
			Term:  tpal.Term{Kind: tpal.TJump, Val: tpal.L("nowhere")},
		}},
	}
	diags := analysis.Verify(p)
	if len(diags) == 0 {
		t.Fatal("want structural diagnostics")
	}
	for _, d := range diags {
		if d.Severity != analysis.Error {
			t.Errorf("structural diagnostic not an error: %s", d)
		}
	}
	wantCodedDiag(t, diags, analysis.Error, analysis.CodeStructural, "undefined label")
}

// TestVerifyDeadBlocksSilent checks that unreachable blocks produce no
// flow diagnostics: the machine never executes them.
func TestVerifyDeadBlocksSilent(t *testing.T) {
	diags := verifySrc(t, `
program p entry m
block m [.] {
  halt
}
block dead [.] {
  jump x
}`)
	if len(diags) != 0 {
		t.Errorf("dead block produced diagnostics:\n%s", diagDump(diags))
	}
}

func TestHasErrorsAndErrors(t *testing.T) {
	diags := []analysis.Diag{
		{Severity: analysis.Warning, Msg: "w"},
		{Severity: analysis.Error, Msg: "e"},
	}
	if !analysis.HasErrors(diags) {
		t.Error("HasErrors = false with an error present")
	}
	if got := analysis.Errors(diags); len(got) != 1 || got[0].Msg != "e" {
		t.Errorf("Errors = %v", got)
	}
	if analysis.HasErrors(diags[:1]) {
		t.Error("HasErrors = true for warnings only")
	}
}

// TestAnalyzeEntryRegsOutsideProgram checks that entry registers a
// program never names, or an empty name, change nothing: every pass
// holds registers in the slots of one per-program index, and the
// interference pass seeds its label facts from the entry registers.
func TestAnalyzeEntryRegsOutsideProgram(t *testing.T) {
	for name, p := range programs.All() {
		entry := corpusEntryRegs[name]
		want := analysis.VerifyWith(p, analysis.Options{EntryRegs: entry, Races: true})
		extra := append([]tpal.Reg{"", "unused"}, entry...)
		got := analysis.VerifyWith(p, analysis.Options{EntryRegs: extra, Races: true})
		if diagDump(got) != diagDump(want) {
			t.Errorf("%s: with extra entry registers:\n%s\nwithout:\n%s", name, diagDump(got), diagDump(want))
		}
	}
}
