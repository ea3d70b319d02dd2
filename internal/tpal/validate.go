package tpal

import (
	"errors"
	"fmt"
)

// Issue is one structural validation finding, positioned inside the
// program. Instr follows the machine's program-counter convention:
// indices 0..len(Instrs)-1 name instructions, len(Instrs) names the
// terminator, and IssueBlock (-1) names the block header/annotation.
type Issue struct {
	Block Label
	Instr int
	Msg   string
}

// IssueBlock is the Instr value of an Issue attached to a block header
// or annotation rather than to a particular instruction.
const IssueBlock = -1

func (is Issue) String() string {
	switch {
	case is.Instr == IssueBlock:
		return fmt.Sprintf("block %q: %s", is.Block, is.Msg)
	default:
		return fmt.Sprintf("block %q instruction %d: %s", is.Block, is.Instr, is.Msg)
	}
}

// Issues performs the structural checks of Validate and returns every
// violation found, positioned by block and instruction:
//
//   - every label referenced by a jump, if-jump, fork, store, move,
//     prppt handler, jtppt combining block, or jralloc continuation is
//     defined (references through registers cannot be checked
//     statically and are skipped);
//   - jtppt ΔR entries name both registers and have no duplicate
//     targets;
//   - every instruction kind carries the register operands it requires;
//   - binary operators and instruction/terminator kinds are in range;
//   - salloc/sfree counts and load/store offsets are non-negative;
//   - jump, if-jump and fork targets are not integer literals, and a
//     join terminator names a register (a label or literal can never
//     hold a join record).
//
// Deeper flow-sensitive properties (definite initialization, stack
// discipline, join protocol) are checked by the analysis subpackage,
// which runs Issues as its phase 0.
func (p *Program) Issues() []Issue {
	var issues []Issue
	for _, b := range p.Blocks {
		at := func(i int, format string, args ...any) {
			issues = append(issues, Issue{Block: b.Label, Instr: i, Msg: fmt.Sprintf(format, args...)})
		}
		checkLabel := func(i int, what subject, l Label) {
			if p.Block(l) == nil {
				at(i, "%s references undefined label %q", what, l)
			}
		}
		checkReg := func(i int, what subject, r Reg) {
			if r == "" {
				at(i, "%s names no register", what)
			}
		}
		// Operand in a value position: registers must be named; labels
		// must be defined; literals are always fine.
		checkVal := func(i int, what subject, o Operand) {
			switch o.Kind {
			case OperReg:
				checkReg(i, what.and(" register operand"), o.Reg)
			case OperLabel:
				checkLabel(i, what, o.Label)
			case OperInt:
			default:
				at(i, "%s has unknown operand kind %d", what, o.Kind)
			}
		}

		switch b.Ann.Kind {
		case AnnNone:
		case AnnPrppt:
			checkLabel(IssueBlock, subject{name: "prppt annotation"}, b.Ann.Handler)
		case AnnJtppt:
			checkLabel(IssueBlock, subject{name: "jtppt annotation"}, b.Ann.Comb)
			seen := make(map[Reg]bool)
			for _, rr := range b.Ann.DeltaR {
				if rr.From == "" || rr.To == "" {
					at(IssueBlock, "jtppt ΔR entry %q -> %q names an empty register", rr.From, rr.To)
				}
				if seen[rr.To] {
					at(IssueBlock, "jtppt ΔR maps two registers to %q", rr.To)
				}
				seen[rr.To] = true
			}
		default:
			at(IssueBlock, "unknown annotation kind %d", b.Ann.Kind)
		}

		for i, in := range b.Instrs {
			what := subject{b: b, instr: i}
			switch in.Kind {
			case IMove:
				checkReg(i, what.and(" destination"), in.Dst)
				checkVal(i, what, in.Val)
			case IBinOp:
				checkReg(i, what.and(" destination"), in.Dst)
				checkReg(i, what.and(" left operand"), in.Src)
				checkVal(i, what, in.Val)
				if _, ok := opNames[in.Op]; !ok {
					at(i, "%s uses unknown operator %d", what, uint8(in.Op))
				}
			case IIfJump:
				checkReg(i, what.and(" condition"), in.Src)
				if in.Val.Kind == OperInt {
					at(i, "%s target is the integer literal %d, which can never name a block", what, in.Val.Int)
				} else {
					checkVal(i, what, in.Val)
				}
			case IJrAlloc:
				checkReg(i, what.and(" destination"), in.Dst)
				checkLabel(i, what, in.Lbl)
			case IFork:
				checkReg(i, what.and(" join register"), in.Src)
				if in.Val.Kind == OperInt {
					at(i, "%s target is the integer literal %d, which can never name a block", what, in.Val.Int)
				} else {
					checkVal(i, what, in.Val)
				}
			case ISNew:
				checkReg(i, what.and(" destination"), in.Dst)
			case ISAlloc, ISFree:
				checkReg(i, what.and(" stack register"), in.Src)
				if in.Off < 0 {
					at(i, "%s has negative cell count %d", what, in.Off)
				}
			case ILoad:
				checkReg(i, what.and(" destination"), in.Dst)
				checkReg(i, what.and(" base register"), in.Src)
				if in.Off < 0 {
					at(i, "%s has negative offset %d", what, in.Off)
				}
			case IStore:
				checkReg(i, what.and(" base register"), in.Src)
				checkVal(i, what, in.Val)
				if in.Off < 0 {
					at(i, "%s has negative offset %d", what, in.Off)
				}
			case IPrmPush, IPrmPop:
				checkReg(i, what.and(" base register"), in.Src)
				if in.Off < 0 {
					at(i, "%s has negative offset %d", what, in.Off)
				}
			case IPrmEmpty:
				checkReg(i, what.and(" destination"), in.Dst)
				checkReg(i, what.and(" stack register"), in.Src2)
			case IPrmSplit:
				checkReg(i, what.and(" stack register"), in.Src)
				checkReg(i, what.and(" offset register"), in.Src2)
			default:
				at(i, "unknown instruction kind %d", in.Kind)
			}
		}

		ti := len(b.Instrs)
		switch b.Term.Kind {
		case TJump:
			if b.Term.Val.Kind == OperInt {
				at(ti, "jump target is the integer literal %d, which can never name a block", b.Term.Val.Int)
			} else {
				checkVal(ti, subject{name: "jump terminator"}, b.Term.Val)
			}
		case THalt:
		case TJoin:
			switch b.Term.Val.Kind {
			case OperReg:
				checkReg(ti, subject{name: "join terminator"}, b.Term.Val.Reg)
			case OperLabel:
				at(ti, "join operand %q is a label; a label can never hold a join record", b.Term.Val.Label)
			case OperInt:
				at(ti, "join operand is the integer literal %d; a literal can never hold a join record", b.Term.Val.Int)
			}
		default:
			at(ti, "unknown terminator kind %d", b.Term.Kind)
		}
	}
	return issues
}

// subject names what an issue is about — an instruction, rendered as
// "(instr)", or a fixed name — plus an optional operand phrase. It is
// formatted only when an issue is actually reported, so validating a
// clean program renders nothing.
type subject struct {
	b     *Block
	instr int
	name  string
	tail  string
}

func (s subject) and(tail string) subject {
	s.tail = tail
	return s
}

func (s subject) String() string {
	if s.b == nil {
		return s.name + s.tail
	}
	return fmt.Sprintf("(%s)%s", s.b.Instrs[s.instr], s.tail)
}

// Validate performs the structural checks of Issues and returns a
// joined error describing every violation found, or nil when the
// program is structurally well formed.
func (p *Program) Validate() error {
	var errs []error
	for _, is := range p.Issues() {
		errs = append(errs, fmt.Errorf("tpal: %s", is))
	}
	return errors.Join(errs...)
}
