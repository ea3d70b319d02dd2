package opt

import (
	"tpal/internal/tpal"
	"tpal/internal/tpal/analysis"
)

// passConstFold is constant/copy propagation and folding: the
// must-constant fixpoint tells which registers hold known values at
// each block entry, and a forward walk through each reached block
// rewrites against the evolving local state. Rewrites:
//
//   - a binop whose operands are both known integers folds to a move
//     of the result (computed with tpal.Op.Eval, the machine's own
//     semantics);
//   - a register operand with a known value is substituted by its
//     literal (constant or label) — except a known-zero divisor, which
//     must stay in the program to keep its fault;
//   - an if-jump on a known condition folds: a taken branch truncates
//     the block into an unconditional jump, an untaken one deletes the
//     instruction;
//   - a register-indirect jump or if-jump whose register provably
//     holds one label becomes a direct transfer (feeding the threading
//     pass).
//
// Blocks the fixpoint never reached are left untouched: they are dead
// and the unreachable pass decides their fate.
func passConstFold(p *tpal.Program, c *optCtx) (*tpal.Program, int, []analysis.Diag) {
	states, env := solveConsts(p)
	count := 0
	for _, b := range p.Blocks {
		in, ok := states[b.Label]
		if !ok {
			continue
		}
		count += foldBlock(env, b, in.clone())
	}
	return p, count, nil
}

// foldBlock rewrites one block against its entry state and returns the
// rewrite count.
func foldBlock(env *constEnv, b *tpal.Block, s *cstate) int {
	count := 0
	// substVal replaces a register value operand by its known literal.
	// Division and remainder keep a known-zero divisor register: the
	// instruction faults either way, but the literal form would turn a
	// dynamic fault into a new static TP031 diagnostic.
	substVal := func(in *tpal.Instr, divisor bool) {
		if in.Val.Kind != tpal.OperReg {
			return
		}
		f, ok := s.get(in.Val.Reg)
		if !ok {
			return
		}
		switch f.kind {
		case factInt:
			if divisor && f.n == 0 {
				return
			}
			in.Val = tpal.N(f.n)
			count++
		case factLabel:
			in.Val = tpal.L(f.label)
			count++
		}
	}

	for i := 0; i < len(b.Instrs); i++ {
		in := &b.Instrs[i]
		switch in.Kind {
		case tpal.IMove:
			substVal(in, false)
			env.step(s, *in)
		case tpal.IBinOp:
			l, okL := s.get(in.Src)
			r, okR := s.operandFact(in.Val)
			if okL && okR && l.kind == factInt && r.kind == factInt {
				if v, ok := in.Op.Eval(l.n, r.n); ok {
					*in = tpal.Instr{Kind: tpal.IMove, Dst: in.Dst, Val: tpal.N(v)}
					count++
					env.step(s, *in)
					continue
				}
			}
			substVal(in, in.Op == tpal.OpDiv || in.Op == tpal.OpMod)
			env.step(s, *in)
		case tpal.IIfJump:
			if f, ok := s.get(in.Src); ok && f.kind == factInt {
				if f.n == 0 {
					// Always taken: the branch becomes the terminator and
					// the rest of the block is dead.
					b.Term = tpal.Term{Kind: tpal.TJump, Val: in.Val}
					b.Instrs = b.Instrs[:i]
					count++
					return count
				}
				// Never taken: delete the instruction.
				b.Instrs = append(b.Instrs[:i], b.Instrs[i+1:]...)
				count++
				i--
				continue
			}
			// Unknown condition; a known label target still sharpens the
			// indirect transfer into a direct one.
			if in.Val.Kind == tpal.OperReg {
				if f, ok := s.get(in.Val.Reg); ok && f.kind == factLabel {
					in.Val = tpal.L(f.label)
					count++
				}
			}
		case tpal.IFork:
			// A register-indirect fork whose register provably holds one
			// label becomes a direct fork.
			if in.Val.Kind == tpal.OperReg {
				if f, ok := s.get(in.Val.Reg); ok && f.kind == factLabel {
					in.Val = tpal.L(f.label)
					count++
				}
			}
		case tpal.IStore:
			substVal(in, false)
		default:
			env.step(s, *in)
		}
	}
	if b.Term.Kind == tpal.TJump && b.Term.Val.Kind == tpal.OperReg {
		if f, ok := s.get(b.Term.Val.Reg); ok && f.kind == factLabel {
			b.Term.Val = tpal.L(f.label)
			count++
		}
	}
	return count
}
