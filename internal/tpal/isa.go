// Package tpal defines the Task Parallel Assembly Language (TPAL) from
// "Task Parallel Assembly Language for Uncompromising Parallelism"
// (Rainey et al., PLDI 2021).
//
// TPAL is a RISC-like assembly language extended with native task
// parallelism: join-record allocation, fork and join instructions, and two
// kinds of block annotations — promotion-ready program points (prppt) and
// join-target program points (jtppt). A program whose annotations are all
// empty is an ordinary sequential assembly program; adding annotations
// exposes latent parallelism that a heartbeat scheduler can manifest at
// run time without changing the sequential code path.
//
// This package holds the instruction set, program representation, and
// static validation. The abstract machine that executes TPAL programs
// lives in the machine subpackage; the textual assembler lives in the asm
// subpackage.
package tpal

import (
	"fmt"
	"strings"
)

// Reg names a register. TPAL register names follow the paper's convention
// and may contain hyphens (for example "sp-top").
type Reg string

// Label names a code block.
type Label string

// Op is a primitive binary operation, as found on a conventional RISC
// machine. Comparison operators follow the TPAL truth convention: they
// produce 0 for true and 1 for false, so that if-jump (which branches on
// zero) reads naturally as "jump if the condition holds".
type Op uint8

// Binary operations.
const (
	OpAdd Op = iota // +
	OpSub           // -
	OpMul           // *
	OpDiv           // / (integer division, truncated)
	OpMod           // % (integer remainder)
	OpLt            // <  (0 if true)
	OpLe            // <= (0 if true)
	OpGt            // >  (0 if true)
	OpGe            // >= (0 if true)
	OpEq            // == (0 if true)
	OpNe            // != (0 if true)
	OpAnd           // & (bitwise and)
	OpOr            // | (bitwise or)
	OpXor           // ^ (bitwise xor)
	OpShl           // << (shift left)
	OpShr           // >> (arithmetic shift right)
)

var opNames = map[Op]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=", OpEq: "==", OpNe: "!=",
	OpAnd: "&", OpOr: "|", OpXor: "^", OpShl: "<<", OpShr: ">>",
}

// OpFromString resolves an operator token to an Op.
func OpFromString(s string) (Op, bool) {
	for op, name := range opNames {
		if name == s {
			return op, true
		}
	}
	return 0, false
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsComparison reports whether o is one of the comparison operators, which
// produce TPAL truth values (0 = true, 1 = false).
func (o Op) IsComparison() bool {
	switch o {
	case OpLt, OpLe, OpGt, OpGe, OpEq, OpNe:
		return true
	}
	return false
}

// Eval is the one definition of TPAL integer semantics: Go's wrapping
// int64 arithmetic, comparisons yielding TPAL truth values (0 = true),
// and shift counts taken as uint64 (a count of 64 or more, or a
// negative one, shifts every bit out). ok is false for division or
// remainder by zero, which fault on the machine, and for an unknown op.
func (o Op) Eval(x, y int64) (v int64, ok bool) {
	truth := func(cond bool) int64 {
		if cond {
			return 0
		}
		return 1
	}
	switch o {
	case OpAdd:
		return x + y, true
	case OpSub:
		return x - y, true
	case OpMul:
		return x * y, true
	case OpDiv:
		if y == 0 {
			return 0, false
		}
		return x / y, true
	case OpMod:
		if y == 0 {
			return 0, false
		}
		return x % y, true
	case OpLt:
		return truth(x < y), true
	case OpLe:
		return truth(x <= y), true
	case OpGt:
		return truth(x > y), true
	case OpGe:
		return truth(x >= y), true
	case OpEq:
		return truth(x == y), true
	case OpNe:
		return truth(x != y), true
	case OpAnd:
		return x & y, true
	case OpOr:
		return x | y, true
	case OpXor:
		return x ^ y, true
	case OpShl:
		return x << uint64(y), true
	case OpShr:
		return x >> uint64(y), true
	}
	return 0, false
}

// OperandKind discriminates Operand.
type OperandKind uint8

// Operand kinds. Join-record identifiers only arise at run time; the
// static syntax can name registers, labels and integer literals.
const (
	OperReg OperandKind = iota
	OperLabel
	OperInt
)

// Operand is a value position in an instruction: a register, a label, or
// an integer literal.
type Operand struct {
	Kind  OperandKind
	Reg   Reg
	Label Label
	Int   int64
}

// R returns a register operand.
func R(r Reg) Operand { return Operand{Kind: OperReg, Reg: r} }

// L returns a label operand.
func L(l Label) Operand { return Operand{Kind: OperLabel, Label: l} }

// N returns an integer-literal operand.
func N(n int64) Operand { return Operand{Kind: OperInt, Int: n} }

func (o Operand) String() string {
	switch o.Kind {
	case OperReg:
		return string(o.Reg)
	case OperLabel:
		return string(o.Label)
	case OperInt:
		return fmt.Sprintf("%d", o.Int)
	}
	return "?"
}

// InstrKind discriminates Instr.
type InstrKind uint8

// Instruction kinds. The first group is the register-machine core of
// Figure 1; the second group is the stack extension of Figure 21.
const (
	// IMove is r := v.
	IMove InstrKind = iota
	// IBinOp is rd := op rs, v.
	IBinOp
	// IIfJump is if-jump r, v: jump to v when r holds 0 (TPAL truth).
	IIfJump
	// IJrAlloc is r := jralloc l: allocate a join record whose
	// continuation is the block labeled l.
	IJrAlloc
	// IFork is fork r, v: register a dependency edge on the join record
	// in r and spawn a child task starting at the block named by v with a
	// copy of the parent's register file.
	IFork

	// ISNew is r := snew: allocate a fresh, empty stack.
	ISNew
	// ISAlloc is salloc r, n: push n zeroed cells on the stack in r.
	ISAlloc
	// ISFree is sfree r, n: pop n cells from the stack in r.
	ISFree
	// ILoad is rd := mem[rs + n].
	ILoad
	// IStore is mem[r + n] := v.
	IStore
	// IPrmPush is prmpush mem[r + n]: store a promotion-ready mark.
	IPrmPush
	// IPrmPop is prmpop mem[r + n]: remove a promotion-ready mark.
	IPrmPop
	// IPrmEmpty is rd := prmempty r: rd gets the TPAL truth value of
	// "the promotion-ready mark list of the stack in r is empty"
	// (0 when empty, 1 when a mark is present).
	IPrmEmpty
	// IPrmSplit is prmsplit rs, rp: pop the oldest promotion-ready mark
	// from the stack in rs and leave its offset (relative to the stack
	// pointer) in rp.
	IPrmSplit
)

// Instr is a non-terminator instruction.
type Instr struct {
	Kind InstrKind
	Dst  Reg     // IMove, IBinOp, IJrAlloc, ISNew, ILoad, IPrmEmpty destination
	Op   Op      // IBinOp
	Src  Reg     // IBinOp left operand; IFork join register; ILoad/IStore/IPrm* base register; IPrmSplit rs
	Src2 Reg     // IPrmSplit rp; IPrmEmpty source register
	Val  Operand // IMove/IBinOp/IIfJump/IStore value operand; IFork target; IIfJump condition register is Src
	Off  int64   // ISAlloc/ISFree count; ILoad/IStore/IPrmPush/IPrmPop offset
	Lbl  Label   // IJrAlloc continuation label
}

func (i Instr) String() string {
	switch i.Kind {
	case IMove:
		return fmt.Sprintf("%s := %s", i.Dst, i.Val)
	case IBinOp:
		return fmt.Sprintf("%s := %s %s %s", i.Dst, i.Src, i.Op, i.Val)
	case IIfJump:
		return fmt.Sprintf("if-jump %s, %s", i.Src, i.Val)
	case IJrAlloc:
		return fmt.Sprintf("%s := jralloc %s", i.Dst, i.Lbl)
	case IFork:
		return fmt.Sprintf("fork %s, %s", i.Src, i.Val)
	case ISNew:
		return fmt.Sprintf("%s := snew", i.Dst)
	case ISAlloc:
		return fmt.Sprintf("salloc %s, %d", i.Src, i.Off)
	case ISFree:
		return fmt.Sprintf("sfree %s, %d", i.Src, i.Off)
	case ILoad:
		return fmt.Sprintf("%s := mem[%s + %d]", i.Dst, i.Src, i.Off)
	case IStore:
		return fmt.Sprintf("mem[%s + %d] := %s", i.Src, i.Off, i.Val)
	case IPrmPush:
		return fmt.Sprintf("prmpush mem[%s + %d]", i.Src, i.Off)
	case IPrmPop:
		return fmt.Sprintf("prmpop mem[%s + %d]", i.Src, i.Off)
	case IPrmEmpty:
		return fmt.Sprintf("%s := prmempty %s", i.Dst, i.Src2)
	case IPrmSplit:
		return fmt.Sprintf("prmsplit %s, %s", i.Src, i.Src2)
	}
	return "?"
}

// TermKind discriminates block terminators.
type TermKind uint8

// Terminator kinds: unconditional jump, whole-machine halt, and join.
const (
	TJump TermKind = iota
	THalt
	TJoin
)

// Term is the terminator of an instruction sequence: jump v, halt, or
// join v.
type Term struct {
	Kind TermKind
	Val  Operand // TJump target; TJoin join-record register
}

func (t Term) String() string {
	switch t.Kind {
	case TJump:
		return fmt.Sprintf("jump %s", t.Val)
	case THalt:
		return "halt"
	case TJoin:
		return fmt.Sprintf("join %s", t.Val)
	}
	return "?"
}

// JoinPolicy is the jp component of a jtppt annotation: whether the
// combining operation is only associative or both associative and
// commutative. The abstract machine treats both the same way (it always
// combines a matched parent/child pair in tree order, which is valid for
// either policy); the field is preserved for fidelity to the formalism
// and for tooling.
type JoinPolicy uint8

// Join policies.
const (
	Assoc JoinPolicy = iota
	AssocComm
)

func (p JoinPolicy) String() string {
	if p == AssocComm {
		return "assoc-comm"
	}
	return "assoc"
}

// AnnKind discriminates block annotations.
type AnnKind uint8

// Annotation kinds.
const (
	AnnNone AnnKind = iota
	// AnnPrppt marks a promotion-ready program point: when control
	// targets the block and the task's cycle counter exceeds the
	// heartbeat threshold, control flows to Handler instead.
	AnnPrppt
	// AnnJtppt marks a join-target program point: the block is the
	// continuation of a join point, and the annotation carries the
	// join-resolution policy.
	AnnJtppt
)

// Annotation is a block annotation (the ★ of the grammar).
type Annotation struct {
	Kind    AnnKind
	Handler Label       // AnnPrppt: the handler block
	Policy  JoinPolicy  // AnnJtppt
	DeltaR  []RegRename // AnnJtppt: child→parent register renaming (ΔR)
	Comb    Label       // AnnJtppt: the combining block
}

// RegRename is one r ↦ r' entry of a ΔR register-renaming environment:
// the child task's register From is copied into register To of the merged
// register file.
type RegRename struct {
	From, To Reg
}

func (a Annotation) String() string {
	switch a.Kind {
	case AnnNone:
		return "."
	case AnnPrppt:
		return fmt.Sprintf("prppt %s", a.Handler)
	case AnnJtppt:
		pairs := make([]string, len(a.DeltaR))
		for i, rr := range a.DeltaR {
			pairs[i] = fmt.Sprintf("%s -> %s", rr.From, rr.To)
		}
		return fmt.Sprintf("jtppt %s; {%s}; %s", a.Policy, strings.Join(pairs, ", "), a.Comb)
	}
	return "?"
}

// Block is a labeled code block: an annotation, a straight-line
// instruction sequence, and a terminator.
type Block struct {
	Label  Label
	Ann    Annotation
	Instrs []Instr
	Term   Term
}

// Program is a TPAL program: an ordered list of blocks and an entry label.
type Program struct {
	Name   string
	Entry  Label
	Blocks []*Block

	byLabel map[Label]*Block
}

// NewProgram builds a program from blocks and indexes it by label.
// It returns an error for duplicate labels or a missing entry block.
func NewProgram(name string, entry Label, blocks []*Block) (*Program, error) {
	p := &Program{
		Name:    name,
		Entry:   entry,
		Blocks:  blocks,
		byLabel: make(map[Label]*Block, len(blocks)),
	}
	for _, b := range blocks {
		if b == nil {
			return nil, fmt.Errorf("tpal: program %q has a nil block", name)
		}
		if _, dup := p.byLabel[b.Label]; dup {
			return nil, fmt.Errorf("tpal: program %q: duplicate block label %q", name, b.Label)
		}
		p.byLabel[b.Label] = b
	}
	if _, ok := p.byLabel[entry]; !ok {
		return nil, fmt.Errorf("tpal: program %q: entry block %q not defined", name, entry)
	}
	return p, nil
}

// MustProgram is NewProgram but panics on error. It is intended for
// statically known programs, such as the ones in the programs subpackage.
func MustProgram(name string, entry Label, blocks []*Block) *Program {
	p, err := NewProgram(name, entry, blocks)
	if err != nil {
		panic(err)
	}
	return p
}

// Block returns the block with the given label, or nil if absent.
func (p *Program) Block(l Label) *Block { return p.byLabel[l] }

// Labels returns the labels of all blocks in definition order.
func (p *Program) Labels() []Label {
	ls := make([]Label, len(p.Blocks))
	for i, b := range p.Blocks {
		ls[i] = b.Label
	}
	return ls
}

// String renders the program in the assembler's textual syntax, so that
// Parse(p.String()) reproduces p.
func (p *Program) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "program %s entry %s\n\n", p.Name, p.Entry)
	for _, b := range p.Blocks {
		fmt.Fprintf(&sb, "block %s [%s] {\n", b.Label, b.Ann)
		for _, in := range b.Instrs {
			fmt.Fprintf(&sb, "  %s\n", in)
		}
		fmt.Fprintf(&sb, "  %s\n}\n\n", b.Term)
	}
	return sb.String()
}
