package machine

import (
	"errors"
	"fmt"

	"tpal/internal/tpal"
)

// Run executes a program to completion on the reference interpreter and
// returns the halting task's register file and statistics.
func Run(prog *tpal.Program, cfg Config) (Result, error) {
	if _, err := Verify(prog, cfg); err != nil {
		return Result{}, err
	}
	return Lower(prog, interpOp).Run(cfg)
}

// operands are one instruction's register fields resolved to slots —
// the only thing the reference lowering precomputes.
type operands struct{ dst, src, src2, val int }

// interpOp is the trivial lowering: every Op decodes its tpal.Instr (or
// terminator) and switches on it, exactly as an interpreter loop would.
// It is deliberately un-optimised — no analysis report, no operand or
// branch-target specialisation, every dynamic check performed on every
// execution — because its value is being an independent, obviously
// correct dispatch for the compiled lowering to be tested against.
func interpOp(c *Code, b *tpal.Block, i int) Op {
	if i == len(b.Instrs) {
		val := c.Slot(b.Term.Val.Reg)
		return func(e *Engine, t *Task) error { return e.interpTerm(t, b.Term, val) }
	}
	in := &b.Instrs[i]
	s := operands{dst: c.Slot(in.Dst), src: c.Slot(in.Src), src2: c.Slot(in.Src2), val: c.Slot(in.Val.Reg)}
	return func(e *Engine, t *Task) error { return e.interp(t, in, s) }
}

// operand evaluates an operand against t's register file: Resolve over
// slots.
func (t *Task) operand(o tpal.Operand, slot int) Value {
	if o.Kind == tpal.OperReg {
		return t.regs[slot]
	}
	return Resolve(nil, o)
}

// jumpTo transfers t's control to the head of the block a value names.
func (e *Engine) jumpTo(t *Task, what string, target Value) error {
	if target.Kind != VLabel {
		return e.Failf(t, "%s target %s is not a label", what, target)
	}
	b := e.code.blocks[target.Label]
	if b == nil {
		return e.Failf(t, "jump to undefined label %q", target.Label)
	}
	t.Goto(b)
	return nil
}

// interp executes one non-terminator instruction and advances the
// program counter.
func (e *Engine) interp(t *Task, in *tpal.Instr, s operands) error {
	switch in.Kind {
	case tpal.IMove:
		t.SetReg(s.dst, t.operand(in.Val, s.val))

	case tpal.IBinOp:
		v, err := EvalBinOp(in.Op, t.regs[s.src], t.operand(in.Val, s.val))
		if err != nil {
			return e.Failf(t, "%v", err)
		}
		t.SetReg(s.dst, v)

	case tpal.IIfJump:
		if t.regs[s.src].Truthy() {
			return e.jumpTo(t, "if-jump", t.operand(in.Val, s.val))
		}

	case tpal.IJrAlloc:
		cont := e.code.blocks[in.Lbl]
		if cont == nil {
			return e.Failf(t, "jralloc of undefined continuation %q", in.Lbl)
		}
		if !cont.jtppt {
			return e.Failf(t, "jralloc continuation %q lacks a jtppt annotation", in.Lbl)
		}
		t.SetReg(s.dst, e.JrAlloc(cont))

	case tpal.IFork:
		jv := t.regs[s.src]
		if jv.Kind != VJoin {
			return e.Failf(t, "fork join-record argument %s holds %s, not a join record", in.Src, jv)
		}
		target := t.operand(in.Val, s.val)
		if target.Kind != VLabel {
			return e.Failf(t, "fork target %s is not a label", target)
		}
		block := e.code.blocks[target.Label]
		if block == nil {
			return e.Failf(t, "fork to undefined label %q", target.Label)
		}
		return e.Fork(t, jv.Join, block)

	case tpal.ISNew:
		t.SetReg(s.dst, PtrV(NewStack().Top()))

	case tpal.ISAlloc:
		p, err := e.ptrReg(t, in.Src, s.src)
		if err != nil {
			return err
		}
		np, err := p.Stack.Alloc(p, int(in.Off))
		if err != nil {
			return e.Failf(t, "%v", err)
		}
		// salloc zeroes the cells it opens.
		if err := e.RaceWriteRange(t, p.Stack, p.Abs+1, np.Abs); err != nil {
			return err
		}
		t.SetReg(s.src, PtrV(np))

	case tpal.ISFree:
		p, err := e.ptrReg(t, in.Src, s.src)
		if err != nil {
			return err
		}
		np, err := p.Stack.Free(p, int(in.Off))
		if err != nil {
			return e.Failf(t, "%v", err)
		}
		// sfree retires the cells above the new top.
		if err := e.RaceWriteRange(t, p.Stack, np.Abs+1, p.Abs); err != nil {
			return err
		}
		t.SetReg(s.src, PtrV(np))

	case tpal.ILoad:
		p, err := e.ptrReg(t, in.Src, s.src)
		if err != nil {
			return err
		}
		v, err := p.Stack.Load(p, in.Off)
		if err != nil {
			return e.Failf(t, "%v", err)
		}
		if err := e.RaceRead(t, p.Stack, p.Abs-int(in.Off)); err != nil {
			return err
		}
		t.SetReg(s.dst, v)

	case tpal.IStore:
		p, err := e.ptrReg(t, in.Src, s.src)
		if err != nil {
			return err
		}
		if err := p.Stack.Store(p, in.Off, t.operand(in.Val, s.val)); err != nil {
			return e.Failf(t, "%v", err)
		}
		if err := e.RaceWrite(t, p.Stack, p.Abs-int(in.Off)); err != nil {
			return err
		}

	case tpal.IPrmPush, tpal.IPrmPop:
		p, err := e.ptrReg(t, in.Src, s.src)
		if err != nil {
			return err
		}
		if in.Kind == tpal.IPrmPush {
			err = p.Stack.PushMark(p, in.Off)
		} else {
			err = p.Stack.PopMark(p, in.Off)
		}
		if err != nil {
			return e.Failf(t, "%v", err)
		}
		if err := e.RaceWrite(t, p.Stack, p.Abs-int(in.Off)); err != nil {
			return err
		}

	case tpal.IPrmEmpty:
		p, err := e.ptrReg(t, in.Src2, s.src2)
		if err != nil {
			return err
		}
		// The scan reads every live cell from the base up to p.
		if err := e.RaceReadRange(t, p.Stack, 0, p.Abs); err != nil {
			return err
		}
		// TPAL truth: 0 when the mark list is empty, 1 otherwise, so the
		// idiomatic handler prologue "t := prmempty sp; if-jump t, abort"
		// aborts the promotion attempt when there is nothing to promote.
		if p.Stack.MarksEmpty(p) {
			t.SetReg(s.dst, IntV(0))
		} else {
			t.SetReg(s.dst, IntV(1))
		}

	case tpal.IPrmSplit:
		p, err := e.ptrReg(t, in.Src, s.src)
		if err != nil {
			return err
		}
		off, err := p.Stack.SplitOldestMark(p)
		if err != nil {
			return e.Failf(t, "%v", err)
		}
		// The scan reads the live region and consumes (writes) the
		// oldest mark.
		if err := e.RaceReadRange(t, p.Stack, 0, p.Abs); err != nil {
			return err
		}
		if err := e.RaceWrite(t, p.Stack, p.Abs-int(off)); err != nil {
			return err
		}
		t.SetReg(s.src2, IntV(off))

	default:
		return e.Failf(t, "unknown instruction kind %d", in.Kind)
	}
	t.Next()
	return nil
}

// interpTerm executes a block terminator.
func (e *Engine) interpTerm(t *Task, term tpal.Term, val int) error {
	switch term.Kind {
	case tpal.TJump:
		return e.jumpTo(t, "jump", t.operand(term.Val, val))
	case tpal.THalt:
		return e.Halt(t)
	case tpal.TJoin:
		jv := t.operand(term.Val, val)
		if jv.Kind != VJoin {
			return e.Failf(t, "join argument %s is not a join record", jv)
		}
		return e.Join(t, jv.Join)
	}
	return e.Failf(t, "unknown terminator kind %d", term.Kind)
}

func (e *Engine) ptrReg(t *Task, r tpal.Reg, slot int) (Ptr, error) {
	v := t.regs[slot]
	if v.Kind != VPtr {
		return Ptr{}, e.Failf(t, "register %s holds %s, not a stack pointer", r, v)
	}
	return v.Ptr, nil
}

// EvalBinOp evaluates a primitive operation. Integer operands go
// through tpal.Op.Eval, the one definition of TPAL integer semantics.
// Pointer ± integer performs stack-pointer arithmetic: adding moves
// toward the base (older cells), mirroring a downward-growing stack. The function is pure so both execution backends share one
// definition of operator semantics and fault messages.
func EvalBinOp(op tpal.Op, a, b Value) (Value, error) {
	if a.Kind == VPtr || b.Kind == VPtr {
		return evalPtrArith(op, a, b)
	}
	x, okA := a.AsInt()
	y, okB := b.AsInt()
	if !okA || !okB {
		return Value{}, fmt.Errorf("operator %s applied to %s and %s", op, a, b)
	}
	if v, ok := op.Eval(x, y); ok {
		return IntV(v), nil
	}
	switch op {
	case tpal.OpDiv:
		return Value{}, errors.New("division by zero")
	case tpal.OpMod:
		return Value{}, errors.New("modulo by zero")
	}
	return Value{}, fmt.Errorf("unknown operator %s", op)
}

func evalPtrArith(op tpal.Op, a, b Value) (Value, error) {
	switch {
	case a.Kind == VPtr && b.Kind != VPtr:
		n, ok := b.AsInt()
		if !ok {
			return Value{}, fmt.Errorf("pointer arithmetic with non-integer %s", b)
		}
		switch op {
		case tpal.OpAdd:
			return PtrV(Ptr{Stack: a.Ptr.Stack, Abs: a.Ptr.Abs - int(n)}), nil
		case tpal.OpSub:
			return PtrV(Ptr{Stack: a.Ptr.Stack, Abs: a.Ptr.Abs + int(n)}), nil
		}
	case a.Kind == VPtr && b.Kind == VPtr && a.Ptr.Stack == b.Ptr.Stack:
		// Pointer difference: the offset of b relative to a, such that
		// a + (a - b)... not needed by the paper's programs, but cheap to
		// support: a - b yields the relative offset of b from a.
		if op == tpal.OpSub {
			return IntV(int64(a.Ptr.Abs - b.Ptr.Abs)), nil
		}
	}
	return Value{}, fmt.Errorf("unsupported pointer operation %s on %s and %s", op, a, b)
}
