package tpal

import (
	"strings"
	"testing"
)

// oneBlock builds a single-block program around the given instructions
// without running validation.
func oneBlock(term Term, ann Annotation, instrs ...Instr) *Program {
	return MustProgram("p", "a", []*Block{
		{Label: "a", Ann: ann, Instrs: instrs, Term: term},
	})
}

func halt() Term { return Term{Kind: THalt} }

// TestIssuesPerViolationClass drives one violating program per
// structural check and asserts both that Validate rejects it and that
// the Issue is positioned on the offending instruction.
func TestIssuesPerViolationClass(t *testing.T) {
	cases := []struct {
		name      string
		prog      *Program
		wantMsg   string
		wantInstr int
	}{
		{"move-empty-dst",
			oneBlock(halt(), Annotation{}, Instr{Kind: IMove, Val: N(1)}),
			"names no register", 0},
		{"move-undefined-label",
			oneBlock(halt(), Annotation{}, Instr{Kind: IMove, Dst: "r", Val: L("ghost")}),
			"undefined label", 0},
		{"move-empty-reg-operand",
			oneBlock(halt(), Annotation{}, Instr{Kind: IMove, Dst: "r", Val: R("")}),
			"names no register", 0},
		{"binop-empty-left",
			oneBlock(halt(), Annotation{}, Instr{Kind: IBinOp, Dst: "r", Op: OpAdd, Val: N(1)}),
			"names no register", 0},
		{"binop-unknown-op",
			oneBlock(halt(), Annotation{}, Instr{Kind: IBinOp, Dst: "r", Src: "r", Op: Op(200), Val: N(1)}),
			"unknown operator", 0},
		{"ifjump-empty-cond",
			oneBlock(halt(), Annotation{}, Instr{Kind: IIfJump, Val: L("a")}),
			"names no register", 0},
		{"ifjump-int-target",
			oneBlock(halt(), Annotation{}, Instr{Kind: IIfJump, Src: "r", Val: N(3)}),
			"integer literal", 0},
		{"jralloc-empty-dst",
			oneBlock(halt(), Annotation{}, Instr{Kind: IJrAlloc, Lbl: "a"}),
			"names no register", 0},
		{"jralloc-undefined",
			oneBlock(halt(), Annotation{}, Instr{Kind: IJrAlloc, Dst: "j", Lbl: "ghost"}),
			"undefined label", 0},
		{"fork-empty-join-reg",
			oneBlock(halt(), Annotation{}, Instr{Kind: IFork, Val: L("a")}),
			"names no register", 0},
		{"fork-int-target",
			oneBlock(halt(), Annotation{}, Instr{Kind: IFork, Src: "j", Val: N(0)}),
			"integer literal", 0},
		{"snew-empty-dst",
			oneBlock(halt(), Annotation{}, Instr{Kind: ISNew}),
			"names no register", 0},
		{"salloc-negative",
			oneBlock(halt(), Annotation{}, Instr{Kind: ISAlloc, Src: "sp", Off: -2}),
			"negative cell count", 0},
		{"sfree-empty-reg",
			oneBlock(halt(), Annotation{}, Instr{Kind: ISFree, Off: 1}),
			"names no register", 0},
		{"load-negative-offset",
			oneBlock(halt(), Annotation{}, Instr{Kind: ILoad, Dst: "x", Src: "sp", Off: -1}),
			"negative offset", 0},
		{"store-undefined-label",
			oneBlock(halt(), Annotation{}, Instr{Kind: IStore, Src: "sp", Val: L("ghost")}),
			"undefined label", 0},
		{"prmpush-negative-offset",
			oneBlock(halt(), Annotation{}, Instr{Kind: IPrmPush, Src: "sp", Off: -1}),
			"negative offset", 0},
		{"prmpop-empty-base",
			oneBlock(halt(), Annotation{}, Instr{Kind: IPrmPop, Off: 0}),
			"names no register", 0},
		{"prmempty-empty-src",
			oneBlock(halt(), Annotation{}, Instr{Kind: IPrmEmpty, Dst: "t"}),
			"names no register", 0},
		{"prmsplit-empty-offset-reg",
			oneBlock(halt(), Annotation{}, Instr{Kind: IPrmSplit, Src: "sp"}),
			"names no register", 0},
		{"unknown-instr-kind",
			oneBlock(halt(), Annotation{}, Instr{Kind: InstrKind(99)}),
			"unknown instruction kind", 0},
		{"second-instr-positioned",
			oneBlock(halt(), Annotation{},
				Instr{Kind: IMove, Dst: "r", Val: N(1)},
				Instr{Kind: ILoad, Dst: "x", Src: "sp", Off: -4}),
			"negative offset", 1},
		{"jump-int-target",
			oneBlock(Term{Kind: TJump, Val: N(7)}, Annotation{}),
			"integer literal", 0},
		{"jump-undefined",
			oneBlock(Term{Kind: TJump, Val: L("ghost")}, Annotation{}),
			"undefined label", 0},
		{"join-label-operand",
			oneBlock(Term{Kind: TJoin, Val: L("a")}, Annotation{}),
			"can never hold a join record", 0},
		{"join-int-operand",
			oneBlock(Term{Kind: TJoin, Val: N(5)}, Annotation{}),
			"can never hold a join record", 0},
		{"join-empty-reg",
			oneBlock(Term{Kind: TJoin, Val: R("")}, Annotation{}),
			"names no register", 0},
		{"unknown-term-kind",
			oneBlock(Term{Kind: TermKind(42)}, Annotation{}),
			"unknown terminator kind", 0},
		{"prppt-undefined-handler",
			oneBlock(halt(), Annotation{Kind: AnnPrppt, Handler: "ghost"}),
			"undefined label", IssueBlock},
		{"jtppt-undefined-comb",
			oneBlock(halt(), Annotation{Kind: AnnJtppt, Comb: "ghost"}),
			"undefined label", IssueBlock},
		{"jtppt-empty-rename",
			oneBlock(halt(), Annotation{Kind: AnnJtppt, Comb: "a",
				DeltaR: []RegRename{{From: "", To: "x"}}}),
			"empty register", IssueBlock},
		{"jtppt-duplicate-target",
			oneBlock(halt(), Annotation{Kind: AnnJtppt, Comb: "a",
				DeltaR: []RegRename{{From: "x", To: "z"}, {From: "y", To: "z"}}}),
			"two registers", IssueBlock},
		{"unknown-annotation-kind",
			oneBlock(halt(), Annotation{Kind: AnnKind(9)}),
			"unknown annotation kind", IssueBlock},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			issues := tc.prog.Issues()
			if len(issues) == 0 {
				t.Fatalf("Issues() = none, want one containing %q", tc.wantMsg)
			}
			found := false
			for _, is := range issues {
				if strings.Contains(is.Msg, tc.wantMsg) {
					found = true
					if is.Instr != tc.wantInstr {
						t.Errorf("issue %q at instr %d, want %d", is.Msg, is.Instr, tc.wantInstr)
					}
					if is.Block != "a" {
						t.Errorf("issue %q in block %q, want %q", is.Msg, is.Block, "a")
					}
				}
			}
			if !found {
				t.Fatalf("no issue contains %q; got %v", tc.wantMsg, issues)
			}
			if err := tc.prog.Validate(); err == nil || !strings.Contains(err.Error(), tc.wantMsg) {
				t.Errorf("Validate() = %v, want error containing %q", err, tc.wantMsg)
			}
		})
	}
}

// TestIssuesTerminatorPosition checks that terminator issues use the
// one-past-the-last-instruction index, mirroring the machine's program
// counter convention.
func TestIssuesTerminatorPosition(t *testing.T) {
	p := oneBlock(Term{Kind: TJump, Val: L("ghost")}, Annotation{},
		Instr{Kind: IMove, Dst: "r", Val: N(1)},
		Instr{Kind: IMove, Dst: "s", Val: N(2)})
	issues := p.Issues()
	if len(issues) != 1 {
		t.Fatalf("Issues() = %v, want exactly one", issues)
	}
	if issues[0].Instr != 2 {
		t.Fatalf("terminator issue at instr %d, want 2", issues[0].Instr)
	}
}

// TestIssuesCleanPrograms asserts a structurally well-formed program
// yields no issues.
func TestIssuesCleanPrograms(t *testing.T) {
	p := MustProgram("p", "main", []*Block{
		{Label: "main", Instrs: []Instr{
			{Kind: IMove, Dst: "r", Val: N(0)},
			{Kind: ISNew, Dst: "sp"},
			{Kind: ISAlloc, Src: "sp", Off: 2},
			{Kind: IStore, Src: "sp", Off: 0, Val: L("out")},
			{Kind: ILoad, Dst: "t", Src: "sp", Off: 0},
			{Kind: IPrmPush, Src: "sp", Off: 1},
			{Kind: IPrmEmpty, Dst: "e", Src2: "sp"},
			{Kind: IPrmPop, Src: "sp", Off: 1},
			{Kind: ISFree, Src: "sp", Off: 2},
		}, Term: Term{Kind: TJump, Val: L("out")}},
		{Label: "out", Ann: Annotation{Kind: AnnJtppt, Comb: "cmb",
			DeltaR: []RegRename{{From: "r", To: "r2"}}}, Term: Term{Kind: THalt}},
		{Label: "cmb", Term: Term{Kind: TJoin, Val: R("jr")}},
	})
	if got := p.Issues(); len(got) != 0 {
		t.Fatalf("Issues() = %v, want none", got)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate() = %v", err)
	}
}

// TestIssuesCleanProgramAllocatesNothing pins that an issue's subject
// is formatted only when an issue is reported: every analysis starts by
// validating, and clean programs are the common case.
func TestIssuesCleanProgramAllocatesNothing(t *testing.T) {
	var instrs []Instr
	for i := 0; i < 20; i++ {
		instrs = append(instrs,
			Instr{Kind: IBinOp, Dst: "r", Src: "r", Op: OpAdd, Val: R("r")},
			Instr{Kind: IIfJump, Src: "r", Val: L("a")})
	}
	p := oneBlock(halt(), Annotation{}, instrs...)
	if n := testing.AllocsPerRun(20, func() { p.Issues() }); n != 0 {
		t.Fatalf("Issues() on a clean program allocates %.0f times, want 0", n)
	}
}
