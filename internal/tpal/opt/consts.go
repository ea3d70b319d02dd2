package opt

import (
	"tpal/internal/tpal"
	"tpal/internal/tpal/analysis"
)

// The must-constant analysis. Where the verifier's abstract domain
// tracks which *sorts* a register may hold, the optimizer needs
// must-facts: "on every path reaching this block, register r holds the
// integer k (or the label l)". The domain is the standard constant
// lattice per register — unknown (⊤), a single integer, or a single
// label — solved over the same conservative CFG the verifier uses, via
// the exported analysis.Solve worklist engine. Facts flow through move
// chains, so the analysis doubles as copy propagation: a value copied
// register-to-register carries its constant with it.

type factKind uint8

const (
	factInt factKind = iota
	factLabel
)

// fact is one known register value. Absence from a state means ⊤.
type fact struct {
	kind  factKind
	n     int64
	label tpal.Label
}

// cstate maps registers to their must-known values at a program point.
type cstate struct {
	regs map[tpal.Reg]fact
}

func newCState() *cstate { return &cstate{regs: make(map[tpal.Reg]fact)} }

func (s *cstate) clone() *cstate {
	n := &cstate{regs: make(map[tpal.Reg]fact, len(s.regs))}
	for r, f := range s.regs {
		n.regs[r] = f
	}
	return n
}

// mergeInto intersects src into dst (must-facts survive a merge only
// when both paths agree) and reports whether dst changed.
func (s *cstate) mergeInto(src *cstate) bool {
	changed := false
	for r, f := range s.regs {
		if g, ok := src.regs[r]; !ok || g != f {
			delete(s.regs, r)
			changed = true
		}
	}
	return changed
}

func (s *cstate) set(r tpal.Reg, f fact)      { s.regs[r] = f }
func (s *cstate) clear(r tpal.Reg)            { delete(s.regs, r) }
func (s *cstate) get(r tpal.Reg) (fact, bool) { f, ok := s.regs[r]; return f, ok }

// operandFact resolves a value operand against the state: literal
// integers and labels are their own facts, registers resolve through
// the state.
func (s *cstate) operandFact(o tpal.Operand) (fact, bool) {
	switch o.Kind {
	case tpal.OperInt:
		return fact{kind: factInt, n: o.Int}, true
	case tpal.OperLabel:
		return fact{kind: factLabel, label: o.Label}, true
	case tpal.OperReg:
		return s.get(o.Reg)
	}
	return fact{}, false
}

// constEnv carries the CFG-level context the transfer function needs.
type constEnv struct {
	prog      *tpal.Program
	addrTaken []tpal.Label
	jtppts    []tpal.Label
}

func newConstEnv(p *tpal.Program) *constEnv {
	g := analysis.BuildCFG(p)
	return &constEnv{prog: p, addrTaken: g.AddrTaken, jtppts: g.Jtppts}
}

// step applies one non-control instruction's register effect to the
// state, mirroring the machine's semantics exactly (fold.go reuses it
// while rewriting).
func (e *constEnv) step(s *cstate, in tpal.Instr) {
	switch in.Kind {
	case tpal.IMove:
		if f, ok := s.operandFact(in.Val); ok {
			s.set(in.Dst, f)
		} else {
			s.clear(in.Dst)
		}
	case tpal.IBinOp:
		l, okL := s.get(in.Src)
		r, okR := s.operandFact(in.Val)
		if okL && okR && l.kind == factInt && r.kind == factInt {
			if v, ok := in.Op.Eval(l.n, r.n); ok {
				s.set(in.Dst, fact{kind: factInt, n: v})
				return
			}
		}
		s.clear(in.Dst)
	case tpal.IJrAlloc, tpal.ISNew, tpal.ILoad, tpal.IPrmEmpty:
		s.clear(in.Dst)
	case tpal.IPrmSplit:
		s.clear(in.Src2)
	}
}

// transfer walks one block from its in-state and emits an out-state
// along every control-flow edge, sharpening branches whose condition
// is a known constant: only the feasible side is emitted, so facts
// downstream of a folded branch reflect the surviving path alone.
func (e *constEnv) transfer(b *tpal.Block, s *cstate, emit func(tpal.Label, *cstate)) {
	// The try-promote rule can divert control to the handler at the
	// block head, before any instruction runs.
	if b.Ann.Kind == tpal.AnnPrppt {
		emit(b.Ann.Handler, s.clone())
	}
	emitTo := func(o tpal.Operand) {
		switch o.Kind {
		case tpal.OperLabel:
			emit(o.Label, s.clone())
		case tpal.OperReg:
			if f, ok := s.get(o.Reg); ok && f.kind == factLabel {
				emit(f.label, s.clone())
				return
			}
			for _, l := range e.addrTaken {
				emit(l, s.clone())
			}
		}
	}
	for _, in := range b.Instrs {
		switch in.Kind {
		case tpal.IIfJump:
			if f, ok := s.get(in.Src); ok && f.kind == factInt {
				if f.n == 0 { // TPAL truth: 0 branches
					emitTo(in.Val)
					return // the rest of the block is dead on every path
				}
				continue // never taken; fall through
			}
			emitTo(in.Val)
		case tpal.IFork:
			// The child starts with a copy of the parent's register file.
			emitTo(in.Val)
		default:
			e.step(s, in)
		}
	}
	switch b.Term.Kind {
	case tpal.TJump:
		emitTo(b.Term.Val)
	case tpal.TJoin:
		// Join merges two register files through ΔR; no must-fact about
		// either side survives into the continuation conservatively.
		top := newCState()
		for _, jt := range e.jtppts {
			emit(jt, top.clone())
			emit(e.prog.Block(jt).Ann.Comb, top.clone())
		}
	}
}

// solveConsts runs the must-constant analysis to a fixpoint and
// returns the in-state of every reached block. Entry registers hold
// unknown caller-supplied values, so the entry state is empty (all ⊤).
func solveConsts(p *tpal.Program) (map[tpal.Label]*cstate, *constEnv) {
	e := newConstEnv(p)
	entry := newCState()
	states := analysis.Solve(p, analysis.Dataflow[*cstate]{
		Clone: func(s *cstate) *cstate { return s.clone() },
		Merge: func(dst, src *cstate) bool { return dst.mergeInto(src) },
		Transfer: func(b *tpal.Block, in *cstate, emit func(tpal.Label, *cstate)) {
			e.transfer(b, in, emit)
		},
	}, entry)
	return states, e
}
