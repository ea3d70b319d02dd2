package analysis

import (
	"fmt"

	"tpal/internal/tpal"
)

// Options configures verification.
type Options struct {
	// EntryRegs lists registers the embedder initializes before the
	// program starts (machine.Config.Regs, minipar params). They enter
	// the analysis holding an unknown defined value; every other
	// register starts never-assigned.
	EntryRegs []tpal.Reg
	// Races enables the static interference pass (TP060–TP065): for
	// every fork the analysis summarizes the stack regions each branch
	// may read and write and reports logically-parallel overlaps. The
	// pass assumes entry registers hold no stack pointers (the embedder
	// API passes integers and labels).
	Races bool
	// TripCeiling caps inferred loop trip upper bounds: a loop whose
	// phase-7 trip bound exceeds it gets a TP091 warning. Zero or
	// negative selects DefaultTripCeiling.
	TripCeiling int64
}

// interp is the product abstract interpreter: one walk of a block both
// propagates abstract state along control-flow edges (during the
// fixpoint) and reports diagnostics (during the report pass, when diags
// is non-nil).
type interp struct {
	p     *tpal.Program
	g     *CFG
	opts  Options
	ix    *regIndex
	diags *[]Diag

	// rec, when non-nil, receives every control-flow edge the
	// interpreter emits. It is set during the report pass, when the
	// per-register label sets are at their fixpoint, so the recorded
	// edges form the flow-sharpened CFG: register-indirect transfers
	// contribute only the labels the register can actually hold (havoc
	// edges to every address-taken label remain for fully unresolved
	// targets).
	rec func(Edge)
}

// edge reports a sharpened control-flow edge to the recorder.
func (it *interp) edge(b *tpal.Block, instr int, to tpal.Label, kind EdgeKind) {
	if it.rec == nil || it.p.Block(to) == nil {
		return
	}
	it.rec(Edge{From: b.Label, To: to, Kind: kind, Instr: instr})
}

func (it *interp) entryState() *state {
	st := newState(it.ix)
	for _, r := range it.opts.EntryRegs {
		if r != "" {
			st.regs[it.ix.of(r)] = topVal()
		}
	}
	return st
}

// havocState is the state flowed along a fully unresolved indirect edge
// (a jump through a value loaded from memory): every register is
// assumed assigned with an unknown value and all stack facts are
// dropped. This is deliberately optimistic for definite initialization
// — keeping the jumping block's state instead would flood every
// address-taken block with one caller's facts and drown real programs
// (fib's memory-held return continuations, minipar's call protocol) in
// false positives.
func (it *interp) havocState() *state {
	st := newState(it.ix)
	for i := range st.regs {
		st.regs[i] = topVal()
	}
	return st
}

func (it *interp) report(sev Severity, code Code, b *tpal.Block, instr int, format string, args ...any) {
	if it.diags == nil {
		return
	}
	*it.diags = append(*it.diags, Diag{
		Severity: sev, Code: code, Block: b.Label, Instr: instr, Msg: fmt.Sprintf(format, args...),
	})
}

// checkUse reports definite-initialization findings for a register
// read. In a faulting context (jump target, join record, fork record,
// stack base) a never-assigned register is a guaranteed machine fault;
// elsewhere nil reads as integer 0, so even a definite nil is only
// suspicious.
func (it *interp) checkUse(b *tpal.Block, instr int, r tpal.Reg, v absVal, faulting bool, what string) {
	switch {
	case !v.mayDef:
		if faulting {
			it.report(Error, CodeUseNeverAssigned, b, instr, "register %q is never assigned on any path to this %s", r, what)
		} else {
			it.report(Warning, CodeUseBeforeAssign, b, instr, "register %q is read by this %s before any assignment (nil reads as 0)", r, what)
		}
	case v.mayUndef:
		it.report(Warning, CodeUseMaybeUnassign, b, instr, "register %q may be unassigned on some path to this %s", r, what)
	}
}

// abstract evaluates an operand against the state, reporting
// use-before-def for register operands in non-faulting positions.
func (it *interp) abstract(st *state, b *tpal.Block, instr int, o tpal.Operand, what string) absVal {
	switch o.Kind {
	case tpal.OperReg:
		v := st.get(o.Reg)
		it.checkUse(b, instr, o.Reg, v, false, what)
		return v
	case tpal.OperLabel:
		return labelVal(o.Label)
	case tpal.OperInt:
		return intVal()
	}
	return topVal()
}

// transfer interprets one block. The engine owns the emitted states
// only transiently (it clones or merges them on receipt and never
// mutates them), so an edge emits the working state itself and clones
// only when the edge's state differs from it.
func (it *interp) transfer(b *tpal.Block, st *state, emit func(tpal.Label, *state)) {
	// A prppt block head may divert to the handler before the first
	// instruction runs (the try-promote rule).
	if b.Ann.Kind == tpal.AnnPrppt && it.p.Block(b.Ann.Handler) != nil {
		it.edge(b, tpal.IssueBlock, b.Ann.Handler, EdgeHandler)
		emit(b.Ann.Handler, st)
	}
	for i := range b.Instrs {
		it.step(b, i, st, emit)
	}
	it.term(b, st, emit)
}

// jumpTargets resolves a register-held control-flow target to candidate
// labels. top means "any address-taken label"; never means the value
// can provably not be a label.
func (it *interp) jumpTargets(v absVal) (labels []tpal.Label, top, never bool) {
	if v.never(kLabel) {
		return nil, false, true
	}
	if !v.mayDef || v.kinds&kLabel == 0 {
		// Nil or non-label on every assigned path: nothing to follow.
		// (A may-nil value contributes no label targets either.)
		return nil, false, false
	}
	if v.labels.top() {
		return nil, true, false
	}
	// Sorted (lset keeps its members in order) so the sharpened edge set
	// — and everything downstream of its order: the RPO,
	// irreducible-loop header ties, the cost expressions — is
	// deterministic across runs.
	return v.labels.elems(), false, false
}

// fillVal is the value given to a never-assigned register on an
// indirect edge: assigned to something unnameable. Its label/record/
// stack sets are empty rather than top — on the abstract path that
// needed the fill the register really reads nil, so a jump, join or
// stack access through it faults before reaching any successor;
// contributing no targets is sound for reachability, and a top label
// set here would spray havoc edges across every address-taken block.
func fillVal() absVal { return absVal{mayDef: true, kinds: kindAll} }

// assumeAssigned marks every register as assigned, keeping the value
// facts of registers that have them. It owns st and returns it.
func (it *interp) assumeAssigned(st *state) *state {
	for i := range st.regs {
		if !st.regs[i].mayDef {
			st.regs[i] = fillVal()
		}
		st.regs[i].mayUndef = false
	}
	return st
}

// emitIndirect flows control along a register-held target: per-label
// edges when the label set is known, havoc edges to every address-taken
// label when it is not. Edges are recorded with the given kind
// provenance (EdgeFork for indirect forks, EdgeIndirect otherwise), so
// the sharpened edge set the liveness pass consumes keeps the machine's
// cycle-counter semantics attached.
//
// Both shapes are deliberately optimistic about definite
// initialization: the flow-insensitive register domain cannot express
// the correlation between a continuation register's value and the rest
// of the state (pow's ploop-promote-cont targets the inner loop only on
// paths where the inner registers are live), so flowing may-unassigned
// facts along indirect edges floods real programs with infeasible-path
// warnings. Value and stack facts still flow on the known-label shape;
// only the "never/maybe assigned" bits are forgiven.
func (it *interp) emitIndirect(b *tpal.Block, instr int, kind EdgeKind, st *state, v absVal, emit func(tpal.Label, *state)) {
	labels, top, _ := it.jumpTargets(v)
	if top {
		for _, l := range it.g.AddrTaken {
			it.edge(b, instr, l, kind)
			emit(l, it.havocState())
		}
		return
	}
	for _, l := range labels {
		it.edge(b, instr, l, kind)
		emit(l, it.assumeAssigned(st.clone()))
	}
}

func (it *interp) step(b *tpal.Block, i int, st *state, emit func(tpal.Label, *state)) {
	in := b.Instrs[i]
	switch in.Kind {
	case tpal.IMove:
		v := it.abstract(st, b, i, in.Val, "move")
		st.set(in.Dst, v)

	case tpal.IBinOp:
		it.execBinOp(b, i, st)

	case tpal.IIfJump:
		cond := st.get(in.Src)
		it.checkUse(b, i, in.Src, cond, false, "if-jump condition")
		switch in.Val.Kind {
		case tpal.OperLabel:
			it.edge(b, i, in.Val.Label, EdgeIf)
			emit(in.Val.Label, refinePrmGuard(st, cond))
		case tpal.OperReg:
			tv := st.get(in.Val.Reg)
			it.checkUse(b, i, in.Val.Reg, tv, false, "if-jump target")
			if _, _, never := it.jumpTargets(tv); never {
				it.report(Warning, CodeIfTargetKind, b, i, "if-jump target register %q can only hold %s, never a label; the branch faults if taken", in.Val.Reg, tv.kinds)
			}
			it.emitIndirect(b, i, EdgeIndirect, refinePrmGuard(st, cond), tv, emit)
		}
		// Fall through: the condition was non-zero; a prmempty result
		// being non-zero proves the queried stack had a live mark.
		if cond.prmOf != 0 {
			st.proven[cond.prmOf-1] = true
		}

	case tpal.IJrAlloc:
		cont := it.p.Block(in.Lbl)
		if cont == nil {
			// Phase 0 already rejected this; be defensive.
			st.set(in.Dst, topVal())
			break
		}
		if cont.Ann.Kind != tpal.AnnJtppt {
			it.report(Error, CodeJrallocNotJtppt, b, i, "jralloc continuation %q lacks a jtppt annotation; the machine faults here", in.Lbl)
		}
		st.set(in.Dst, recVal(in.Lbl))

	case tpal.IFork:
		jv := st.get(in.Src)
		it.checkUse(b, i, in.Src, jv, true, "fork (the join register must hold a record)")
		if jv.never(kRec) {
			it.report(Error, CodeForkRecordKind, b, i, "fork through register %q, which only ever holds %s, never a join record", in.Src, jv.kinds)
		}
		// The child starts with a copy of the parent's register file
		// and shares its stacks.
		switch in.Val.Kind {
		case tpal.OperLabel:
			it.edge(b, i, in.Val.Label, EdgeFork)
			emit(in.Val.Label, st)
		case tpal.OperReg:
			tv := st.get(in.Val.Reg)
			it.checkUse(b, i, in.Val.Reg, tv, true, "fork target")
			if _, _, never := it.jumpTargets(tv); never {
				it.report(Error, CodeForkTargetKind, b, i, "fork target register %q can only hold %s, never a label", in.Val.Reg, tv.kinds)
			}
			it.emitIndirect(b, i, EdgeFork, st, tv, emit)
		}

	case tpal.ISNew:
		id := stackID{Block: b.Label, Instr: i}
		st.set(in.Dst, ptrVal(id))
		st.heights.set(id, 0)
		st.marks.set(id, 0)

	case tpal.ISAlloc:
		it.execSAlloc(b, i, st)

	case tpal.ISFree:
		it.execSFree(b, i, st)

	case tpal.ILoad:
		base := it.checkBase(b, i, in.Src, st, "load")
		it.checkBounds(b, i, base, in.Off, st, "load")
		st.set(in.Dst, topVal())

	case tpal.IStore:
		base := it.checkBase(b, i, in.Src, st, "store")
		it.checkBounds(b, i, base, in.Off, st, "store")
		v := it.abstract(st, b, i, in.Val, "store")
		if v.kinds&kMark != 0 {
			// A mark value may be copied in, raising the true mark
			// count above our bookkeeping: drop the upper bound.
			st.marks.forget(base.ptrs)
		}

	case tpal.IPrmPush:
		base := it.checkBase(b, i, in.Src, st, "prmpush")
		it.checkBounds(b, i, base, in.Off, st, "prmpush")
		if id, ok := base.ptrs.only(); ok {
			if n, known := st.marks.get(id); known {
				st.marks.set(id, n+1)
			}
		} else {
			st.marks.forget(base.ptrs)
		}

	case tpal.IPrmPop:
		base := it.checkBase(b, i, in.Src, st, "prmpop")
		it.checkBounds(b, i, base, in.Off, st, "prmpop")
		if id, ok := base.ptrs.only(); ok {
			if n, known := st.marks.get(id); known {
				if n == 0 {
					it.report(Error, CodePrmPopEmpty, b, i, "prmpop on a stack with no live promotion-ready marks; the machine faults here")
				} else {
					st.marks.set(id, n-1)
				}
			}
		}
		clearProven(st)

	case tpal.IPrmEmpty:
		it.checkBase(b, i, in.Src2, st, "prmempty")
		v := intVal()
		v.prmOf = int32(it.ix.of(in.Src2)) + 1
		st.set(in.Dst, v)

	case tpal.IPrmSplit:
		base := it.checkBase(b, i, in.Src, st, "prmsplit")
		known := int64(-1)
		if id, ok := base.ptrs.only(); ok {
			if n, k := st.marks.get(id); k {
				known = n
			}
		}
		switch {
		case known == 0:
			it.report(Error, CodePrmSplitEmpty, b, i, "prmsplit on a stack with no live promotion-ready marks; the machine faults here")
		case known > 0 || st.proven[it.ix.of(in.Src)]:
			// Provably (or at least plausibly) non-empty: fine.
		default:
			it.report(Warning, CodePrmSplitUnguard, b, i, "prmsplit is not guarded by a prmempty check on %q; it faults when the mark list is empty", in.Src)
		}
		if id, ok := base.ptrs.only(); ok {
			if n, k := st.marks.get(id); k && n > 0 {
				st.marks.set(id, n-1)
			}
		}
		clearProven(st)
		st.set(in.Src2, intVal())
	}
}

func (it *interp) term(b *tpal.Block, st *state, emit func(tpal.Label, *state)) {
	ti := len(b.Instrs)
	switch b.Term.Kind {
	case tpal.TJump:
		switch b.Term.Val.Kind {
		case tpal.OperLabel:
			it.edge(b, ti, b.Term.Val.Label, EdgeJump)
			emit(b.Term.Val.Label, st)
		case tpal.OperReg:
			v := st.get(b.Term.Val.Reg)
			it.checkUse(b, ti, b.Term.Val.Reg, v, true, "jump")
			if _, _, never := it.jumpTargets(v); never {
				it.report(Error, CodeJumpTargetKind, b, ti, "jump through register %q, which only ever holds %s, never a label", b.Term.Val.Reg, v.kinds)
			}
			it.emitIndirect(b, ti, EdgeIndirect, st, v, emit)
		}

	case tpal.THalt:

	case tpal.TJoin:
		if b.Term.Val.Kind != tpal.OperReg {
			return // phase 0 rejects this
		}
		r := b.Term.Val.Reg
		v := st.get(r)
		it.checkUse(b, ti, r, v, true, "join (the operand must hold a record)")
		if v.never(kRec) {
			it.report(Error, CodeJoinRecordKind, b, ti, "join through register %q, which only ever holds %s, never a join record", r, v.kinds)
			return
		}
		var conts []tpal.Label
		if v.mayDef && v.kinds&kRec != 0 {
			if v.recs.top() {
				conts = it.g.Jtppts
			} else {
				conts = v.recs.elems()
			}
		}
		for _, cl := range conts {
			cb := it.p.Block(cl)
			if cb == nil || cb.Ann.Kind != tpal.AnnJtppt {
				continue
			}
			// Join-continue: the last arriver proceeds to the
			// continuation with the merged register file; the merged
			// file is this task's file with ΔR targets overwritten, so
			// flowing this task's state (plus defined ΔR targets)
			// covers it. The combining block sees the same file.
			out := st.clone()
			for _, rr := range cb.Ann.DeltaR {
				fv := st.get(rr.From)
				if it.diags != nil {
					it.checkUse(b, ti, rr.From, fv,
						false, fmt.Sprintf("join (ΔR of %q copies it into %q)", cl, rr.To))
				}
				dv := fv
				if !dv.mayDef {
					dv = topVal()
				}
				dv.mayUndef = false
				out.set(rr.To, dv)
			}
			it.edge(b, ti, cl, EdgeJoinCont)
			emit(cl, out)
			if it.p.Block(cb.Ann.Comb) != nil {
				it.edge(b, ti, cb.Ann.Comb, EdgeJoinComb)
				emit(cb.Ann.Comb, out)
			}
		}
	}
}

// refinePrmGuard returns the state on the taken edge of an if-jump.
// When the condition is a prmempty result the branch is taken exactly
// when the mark list was empty, and a refined copy carries that
// knowledge; otherwise it is st itself.
func refinePrmGuard(st *state, cond absVal) *state {
	if cond.prmOf == 0 {
		return st
	}
	taken := st.clone()
	taken.proven[cond.prmOf-1] = false
	if id, ok := st.regs[cond.prmOf-1].ptrs.only(); ok {
		taken.marks.set(id, 0)
	}
	return taken
}
