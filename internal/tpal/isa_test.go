package tpal

import (
	"math"
	"strings"
	"testing"
)

func block(l Label, ann Annotation, term Term, instrs ...Instr) *Block {
	return &Block{Label: l, Ann: ann, Instrs: instrs, Term: term}
}

func TestNewProgramDuplicateLabel(t *testing.T) {
	_, err := NewProgram("p", "a",
		[]*Block{
			block("a", Annotation{}, Term{Kind: THalt}),
			block("a", Annotation{}, Term{Kind: THalt}),
		})
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("expected duplicate-label error, got %v", err)
	}
}

func TestNewProgramMissingEntry(t *testing.T) {
	_, err := NewProgram("p", "nope",
		[]*Block{block("a", Annotation{}, Term{Kind: THalt})})
	if err == nil || !strings.Contains(err.Error(), "entry") {
		t.Fatalf("expected missing-entry error, got %v", err)
	}
}

func TestValidateUndefinedLabels(t *testing.T) {
	cases := []struct {
		name  string
		block *Block
	}{
		{"jump", block("a", Annotation{}, Term{Kind: TJump, Val: L("ghost")})},
		{"if-jump", block("a", Annotation{}, Term{Kind: THalt},
			Instr{Kind: IIfJump, Src: "r", Val: L("ghost")})},
		{"jralloc", block("a", Annotation{}, Term{Kind: THalt},
			Instr{Kind: IJrAlloc, Dst: "j", Lbl: "ghost"})},
		{"fork", block("a", Annotation{}, Term{Kind: THalt},
			Instr{Kind: IFork, Src: "j", Val: L("ghost")})},
		{"prppt", block("a", Annotation{Kind: AnnPrppt, Handler: "ghost"}, Term{Kind: THalt})},
		{"jtppt", block("a", Annotation{Kind: AnnJtppt, Comb: "ghost"}, Term{Kind: THalt})},
	}
	for _, tc := range cases {
		p, err := NewProgram("p", "a", []*Block{tc.block})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "ghost") {
			t.Errorf("%s: expected undefined-label error, got %v", tc.name, err)
		}
	}
}

func TestValidateDeltaRDuplicateTarget(t *testing.T) {
	p := MustProgram("p", "a", []*Block{
		block("a", Annotation{
			Kind:   AnnJtppt,
			Comb:   "a",
			DeltaR: []RegRename{{From: "x", To: "z"}, {From: "y", To: "z"}},
		}, Term{Kind: THalt}),
	})
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "two registers") {
		t.Fatalf("expected duplicate ΔR target error, got %v", err)
	}
}

func TestValidateNegativeOffsets(t *testing.T) {
	p := MustProgram("p", "a", []*Block{
		block("a", Annotation{}, Term{Kind: THalt},
			Instr{Kind: ISAlloc, Src: "sp", Off: -3},
			Instr{Kind: ILoad, Dst: "x", Src: "sp", Off: -1}),
	})
	err := p.Validate()
	if err == nil {
		t.Fatal("expected errors for negative counts/offsets")
	}
	if !strings.Contains(err.Error(), "negative cell count") || !strings.Contains(err.Error(), "negative offset") {
		t.Fatalf("unexpected error content: %v", err)
	}
}

func TestValidateCleanProgram(t *testing.T) {
	p := MustProgram("p", "main", []*Block{
		block("main", Annotation{}, Term{Kind: TJump, Val: L("loop")},
			Instr{Kind: IMove, Dst: "r", Val: N(0)}),
		block("loop", Annotation{Kind: AnnPrppt, Handler: "h"}, Term{Kind: THalt},
			Instr{Kind: IIfJump, Src: "r", Val: L("main")}),
		block("h", Annotation{}, Term{Kind: TJump, Val: L("loop")}),
	})
	if err := p.Validate(); err != nil {
		t.Fatalf("clean program failed validation: %v", err)
	}
}

func TestOpStringRoundTrip(t *testing.T) {
	ops := []Op{OpAdd, OpSub, OpMul, OpDiv, OpMod, OpLt, OpLe, OpGt, OpGe, OpEq, OpNe, OpAnd, OpOr, OpXor, OpShl, OpShr}
	for _, op := range ops {
		got, ok := OpFromString(op.String())
		if !ok || got != op {
			t.Errorf("OpFromString(%q) = %v, %v", op.String(), got, ok)
		}
	}
	if _, ok := OpFromString("@@"); ok {
		t.Error("OpFromString accepted garbage")
	}
}

func TestIsComparison(t *testing.T) {
	for _, op := range []Op{OpLt, OpLe, OpGt, OpGe, OpEq, OpNe} {
		if !op.IsComparison() {
			t.Errorf("%s should be a comparison", op)
		}
	}
	for _, op := range []Op{OpAdd, OpMul, OpShl} {
		if op.IsComparison() {
			t.Errorf("%s should not be a comparison", op)
		}
	}
}

func TestOpEval(t *testing.T) {
	cases := []struct {
		op   Op
		x, y int64
		want int64
		ok   bool
	}{
		{OpAdd, 2, 3, 5, true},
		{OpAdd, math.MaxInt64, 1, math.MinInt64, true}, // wraps
		{OpSub, 2, 3, -1, true},
		{OpSub, math.MinInt64, 1, math.MaxInt64, true},
		{OpMul, -4, 3, -12, true},
		{OpMul, math.MinInt64, -1, math.MinInt64, true},
		{OpDiv, 7, 2, 3, true},
		{OpDiv, -7, 2, -3, true}, // truncated division
		{OpDiv, math.MinInt64, -1, math.MinInt64, true},
		{OpDiv, 7, 0, 0, false}, // faults on the machine; never folded
		{OpMod, 7, 0, 0, false},
		{OpMod, -7, 2, -1, true},
		{OpMod, math.MinInt64, -1, 0, true},
		{OpLt, 1, 2, 0, true}, // TPAL truth: 0 is true
		{OpLt, 2, 1, 1, true},
		{OpLe, 2, 2, 0, true},
		{OpGt, 2, 1, 0, true},
		{OpGe, 1, 2, 1, true},
		{OpEq, 5, 5, 0, true},
		{OpNe, 5, 5, 1, true},
		{OpAnd, 6, 3, 2, true},
		{OpOr, 6, 3, 7, true},
		{OpXor, 6, 3, 5, true},
		{OpShl, 1, 10, 1024, true},
		{OpShl, 1, 63, math.MinInt64, true},
		{OpShl, 1, 64, 0, true},  // a count of 64 or more shifts every bit out
		{OpShl, 1, -1, 0, true},  // a negative count is a huge uint64
		{OpShr, -8, 1, -4, true}, // arithmetic shift
		{OpShr, -8, 64, -1, true},
		{OpShr, 8, 100, 0, true},
		{OpShr, 8, -1, 0, true},
		{Op(200), 1, 1, 0, false}, // unknown op
	}
	for _, c := range cases {
		got, ok := c.op.Eval(c.x, c.y)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("%s.Eval(%d, %d) = %d, %v; want %d, %v", c.op, c.x, c.y, got, ok, c.want, c.ok)
		}
	}
}

func TestInstrStrings(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Kind: IMove, Dst: "r", Val: N(7)}, "r := 7"},
		{Instr{Kind: IBinOp, Dst: "t", Op: OpLt, Src: "a", Val: N(2)}, "t := a < 2"},
		{Instr{Kind: IIfJump, Src: "t", Val: L("exit")}, "if-jump t, exit"},
		{Instr{Kind: IJrAlloc, Dst: "jr", Lbl: "exit"}, "jr := jralloc exit"},
		{Instr{Kind: IFork, Src: "jr", Val: L("par")}, "fork jr, par"},
		{Instr{Kind: ISNew, Dst: "sp"}, "sp := snew"},
		{Instr{Kind: ISAlloc, Src: "sp", Off: 3}, "salloc sp, 3"},
		{Instr{Kind: ISFree, Src: "sp", Off: 1}, "sfree sp, 1"},
		{Instr{Kind: ILoad, Dst: "n", Src: "sp", Off: 2}, "n := mem[sp + 2]"},
		{Instr{Kind: IStore, Src: "sp", Off: 0, Val: L("branch1")}, "mem[sp + 0] := branch1"},
		{Instr{Kind: IPrmPush, Src: "sp", Off: 1}, "prmpush mem[sp + 1]"},
		{Instr{Kind: IPrmPop, Src: "sp", Off: 1}, "prmpop mem[sp + 1]"},
		{Instr{Kind: IPrmEmpty, Dst: "t", Src2: "sp"}, "t := prmempty sp"},
		{Instr{Kind: IPrmSplit, Src: "sp", Src2: "top"}, "prmsplit sp, top"},
	}
	for _, tc := range cases {
		if got := tc.in.String(); got != tc.want {
			t.Errorf("Instr.String() = %q, want %q", got, tc.want)
		}
	}
}

func TestAnnotationStrings(t *testing.T) {
	if got := (Annotation{}).String(); got != "." {
		t.Errorf("empty annotation = %q", got)
	}
	if got := (Annotation{Kind: AnnPrppt, Handler: "h"}).String(); got != "prppt h" {
		t.Errorf("prppt = %q", got)
	}
	ann := Annotation{Kind: AnnJtppt, Policy: AssocComm, Comb: "comb",
		DeltaR: []RegRename{{From: "r", To: "r2"}}}
	if got := ann.String(); got != "jtppt assoc-comm; {r -> r2}; comb" {
		t.Errorf("jtppt = %q", got)
	}
}

func TestLabelsOrder(t *testing.T) {
	p := MustProgram("p", "b", []*Block{
		block("b", Annotation{}, Term{Kind: THalt}),
		block("a", Annotation{}, Term{Kind: THalt}),
		block("c", Annotation{}, Term{Kind: THalt}),
	})
	got := p.Labels()
	want := []Label{"b", "a", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Labels() = %v, want %v", got, want)
		}
	}
	if p.Block("a") == nil || p.Block("zzz") != nil {
		t.Error("Block lookup wrong")
	}
}
