package analysis

import (
	"tpal/internal/tpal"
)

// checkBase reads a stack-base register, reporting definite-init and
// kind findings: the machine's ptrReg faults unless the register holds
// a pointer.
func (it *interp) checkBase(b *tpal.Block, i int, r tpal.Reg, st *state, what string) absVal {
	v := st.get(r)
	it.checkUse(b, i, r, v, true, what+" (the base must hold a stack pointer)")
	if v.never(kPtr) {
		it.report(Error, CodeStackBaseKind, b, i, "%s through register %q, which only ever holds %s, never a stack pointer", what, r, v.kinds)
	}
	return v
}

// checkBounds flags accesses that provably land outside the stack's
// live frame. With the pointer's distance below the top (delta) and the
// stack's live height both known, mem[p + off] faults exactly when
// delta+off reaches beyond the base; accesses above the top may still
// hit dead high-water cells the machine tolerates, so only the
// below-base side is a definite fault.
func (it *interp) checkBounds(b *tpal.Block, i int, base absVal, off int64, st *state, what string) {
	id, ok := base.ptrs.only()
	if !ok || !base.deltaOK {
		return
	}
	h, known := st.heights.get(id)
	if !known {
		return
	}
	if base.delta+off >= h {
		it.report(Error, CodeOutOfFrame, b, i, "%s at offset %d is %d cells below the frame base (pointer %d below top, %d live cells); the machine faults here",
			what, off, base.delta+off-h+1, base.delta, h)
	}
}

// resultPtr is the value left in the stack register after a successful
// salloc/sfree: a pointer to the (new) top of the same stack.
func resultPtr(base absVal) absVal {
	v := absVal{mayDef: true, kinds: kPtr, ptrs: base.ptrs, deltaOK: true}
	if v.ptrs.empty() {
		v.ptrs = sTop()
	}
	return v
}

// clearProven drops every prmempty-guard proof: a mark was consumed or
// may have been, so non-emptiness is no longer established.
func clearProven(st *state) {
	clear(st.proven)
}

// invalidateDeltas forgets the top-distance of every pointer register
// that may alias one of the named stacks: the stack's top just moved.
// The register performing the operation is exempt (its new delta is
// set by the caller).
func invalidateDeltas(st *state, sids sidset, except tpal.Reg) {
	skip := st.ix.of(except)
	for i := range st.regs {
		v := &st.regs[i]
		if i == skip || v.kinds&kPtr == 0 || !v.deltaOK {
			continue
		}
		if sids.top() || v.ptrs.top() || v.ptrs.intersects(sids) {
			v.deltaOK = false
		}
	}
}

func (it *interp) execSAlloc(b *tpal.Block, i int, st *state) {
	in := b.Instrs[i]
	base := it.checkBase(b, i, in.Src, st, "salloc")
	if id, ok := base.ptrs.only(); ok {
		if h, known := st.heights.get(id); known && base.deltaOK {
			// The machine allocates relative to the pointer, not the
			// current top: newTop = p.Abs + n.
			st.heights.set(id, h+in.Off-base.delta)
		} else {
			st.heights.del(id)
		}
	} else {
		st.heights.forget(base.ptrs)
	}
	invalidateDeltas(st, base.ptrs, in.Src)
	clearProven(st)
	st.set(in.Src, resultPtr(base))
}

func (it *interp) execSFree(b *tpal.Block, i int, st *state) {
	in := b.Instrs[i]
	base := it.checkBase(b, i, in.Src, st, "sfree")
	if id, ok := base.ptrs.only(); ok {
		h, known := st.heights.get(id)
		if known && base.deltaOK {
			nh := h - base.delta - in.Off
			if nh < 0 {
				it.report(Error, CodeSfreeBelowBase, b, i, "sfree of %d cells reaches %d cells below the stack base (pointer %d below top, %d live cells); the machine faults here",
					in.Off, -nh, base.delta, h)
				st.heights.del(id)
			} else {
				st.heights.set(id, nh)
			}
		} else {
			st.heights.del(id)
		}
	} else {
		st.heights.forget(base.ptrs)
	}
	invalidateDeltas(st, base.ptrs, in.Src)
	clearProven(st)
	st.set(in.Src, resultPtr(base))
}

// execBinOp models rd := rs op v: definite kind faults, constant-zero
// divisors, and pointer-arithmetic tracking for the frame-bounds check.
func (it *interp) execBinOp(b *tpal.Block, i int, st *state) {
	in := b.Instrs[i]
	a := st.get(in.Src)
	it.checkUse(b, i, in.Src, a, false, "operator")
	bv := it.abstract(st, b, i, in.Val, "operator")

	// The machine's binop accepts integers (nil reads as 0) and pointer
	// ± integer / pointer − pointer; a label, record or mark operand
	// faults unconditionally.
	if a.never(kInt | kPtr) {
		it.report(Error, CodeBinopOperandKind, b, i, "left operand %q only ever holds %s; the operator faults on it", in.Src, a.kinds)
	}
	if bv.never(kInt | kPtr) {
		it.report(Error, CodeBinopOperandKind, b, i, "right operand only ever holds %s; the operator faults on it", bv.kinds)
	}
	if (in.Op == tpal.OpDiv || in.Op == tpal.OpMod) && in.Val.Kind == tpal.OperInt && in.Val.Int == 0 {
		it.report(Error, CodeDivByZero, b, i, "%s by the constant zero; the machine faults here", in.Op)
	}

	var res absVal
	switch {
	case in.Op.IsComparison():
		res = intVal()
	case a.definitely(kPtr) && (in.Op == tpal.OpAdd || in.Op == tpal.OpSub) && in.Val.Kind == tpal.OperInt:
		// Pointer ± constant: adding moves toward the base, growing the
		// distance below the top.
		res = absVal{mayDef: true, kinds: kPtr, ptrs: a.ptrs}
		if a.deltaOK {
			res.deltaOK = true
			if in.Op == tpal.OpAdd {
				res.delta = a.delta + in.Val.Int
			} else {
				res.delta = a.delta - in.Val.Int
			}
		}
	case a.kinds&kPtr != 0:
		// May be pointer arithmetic (unknown offset) or integer math or
		// a pointer difference.
		res = absVal{mayDef: true, kinds: kInt | kPtr, ptrs: a.ptrs.union(bv.ptrs)}
	case bv.kinds&kPtr != 0:
		// int op ptr only succeeds as... it does not: the machine
		// requires the left side of mixed arithmetic to be the pointer.
		// Keep the result loose; the fault fires only on the ptr path.
		res = absVal{mayDef: true, kinds: kInt}
	default:
		res = intVal()
	}
	st.set(in.Dst, res)
}
