package analysis

import (
	"fmt"

	"tpal/internal/tpal"
)

// Phase 7b: the induction/trip-count pass. Per loop-forest header it
// derives a bound on trip(h) — the dynamic entries of the header per
// pass of the enclosing region, exactly the quantity the work/span
// estimator's trip leaves denote — from the induction register's
// stride and the guard's interval-refined range at loop entry. Loops
// the intervals prove can never leave get TP090 (Error); bounds above
// the configured ceiling get TP091; guards contradicted by the entry
// state get TP092.

// TripKind classifies an inferred trip bound.
type TripKind uint8

// Trip bound kinds.
const (
	// TripUnknown: the pass could not bound the header's entries.
	TripUnknown TripKind = iota
	// TripExact: the header enters exactly Lo == Hi times per pass of
	// the enclosing region.
	TripExact
	// TripInterval: the entries lie in [Lo, Hi].
	TripInterval
	// TripDivergent: the loop is statically divergent — once entered,
	// no exit is feasible (TP090).
	TripDivergent
)

func (k TripKind) String() string {
	switch k {
	case TripExact:
		return "exact"
	case TripInterval:
		return "interval"
	case TripDivergent:
		return "divergent"
	}
	return "unknown"
}

// TripBound bounds one loop header's dynamic entries per enclosing
// pass. Only Exact and Interval bounds carry meaningful Lo/Hi.
type TripBound struct {
	Kind   TripKind
	Lo, Hi int64
}

// Bounded reports whether the bound carries a usable upper bound.
func (t TripBound) Bounded() bool { return t.Kind == TripExact || t.Kind == TripInterval }

func (t TripBound) String() string {
	switch t.Kind {
	case TripExact:
		return fmt.Sprintf("%d", t.Hi)
	case TripInterval:
		return fmt.Sprintf("[%d,%d]", t.Lo, t.Hi)
	case TripDivergent:
		return "divergent"
	}
	return "unknown"
}

// DefaultTripCeiling is the TP091 threshold: a loop whose phase-7 trip
// bound exceeds it gets a warning, since past four million iterations a
// single loop exceeds any fuel budget serve would grant.
const DefaultTripCeiling = int64(1) << 22

// tripPass runs phase 7b over the loop forest, returning the per-header
// bounds and the TP090–TP092 diagnostics. It also grades each Loop's
// Trip field in place.
func tripPass(p *tpal.Program, g *graph, fix *intervalFix, idom map[tpal.Label]tpal.Label, loops []*Loop) (map[tpal.Label]TripBound, []Diag) {
	trips := make(map[tpal.Label]TripBound)
	var diags []Diag
	inner := innermostLoops(loops)
	var walk func(ls []*Loop, parent *Loop)
	walk = func(ls []*Loop, parent *Loop) {
		for _, l := range ls {
			tb, ds := deriveTrip(p, g, fix, idom, inner, l, parent)
			if tb.Bounded() && tb.Hi > DefaultTripCeiling {
				ds = append(ds, Diag{Severity: Warning, Code: CodeTripCeiling, Block: l.Header, Instr: tpal.IssueBlock,
					Msg: fmt.Sprintf("inferred trip bound %d for loop %q exceeds the ceiling %d; the loop dominates any fuel budget", tb.Hi, l.Header, DefaultTripCeiling)})
			}
			trips[l.Header] = tb
			l.Trip = tb
			diags = append(diags, ds...)
			walk(l.Children, l)
		}
	}
	walk(loops, nil)
	return trips, diags
}

// innermostLoops maps every block to the deepest loop containing it.
func innermostLoops(loops []*Loop) map[tpal.Label]*Loop {
	out := make(map[tpal.Label]*Loop)
	var walk func(ls []*Loop)
	walk = func(ls []*Loop) {
		for _, l := range ls {
			for _, bl := range l.Blocks {
				out[bl] = l // children overwrite parents below
			}
			walk(l.Children)
		}
	}
	walk(loops)
	return out
}

// writesReg reports whether the instruction assigns the register,
// mirroring the machine's register effects.
func writesReg(in tpal.Instr, r tpal.Reg) bool {
	switch in.Kind {
	case tpal.IMove, tpal.IBinOp, tpal.IJrAlloc, tpal.ISNew, tpal.ILoad, tpal.IPrmEmpty:
		return in.Dst == r
	case tpal.IPrmSplit:
		return in.Src2 == r
	}
	return false
}

// guardFact is a resolved loop guard: the loop continues (stays in the
// region) exactly while `ind op bound` holds, checked at branchIdx in
// the header; the comparison reads ind's value as of cmpIdx.
type guardFact struct {
	op        tpal.Op
	ind       tpal.Reg
	boundReg  tpal.Reg
	boundIsRg bool
	boundK    int64
	cmpIdx    int
	branchIdx int
}

// deriveTrip computes one loop's trip bound and diagnostics.
func deriveTrip(p *tpal.Program, g *graph, fix *intervalFix, idom map[tpal.Label]tpal.Label, inner map[tpal.Label]*Loop, l *Loop, parent *Loop) (TripBound, []Diag) {
	h := l.Header
	if fix.in[h] == nil {
		return TripBound{Kind: TripExact}, nil // never entered: 0 trips
	}
	inLoop := make(map[tpal.Label]bool, len(l.Blocks))
	for _, bl := range l.Blocks {
		inLoop[bl] = true
	}

	// Classify the region's edges under the interval fixpoint: feasible
	// back edges, feasible exits, and havoc (join) edges into the loop.
	backFeasible, exitFeasible, escape, havocIn := false, false, false, false
	for _, bl := range l.Blocks {
		if fix.in[bl] == nil {
			continue
		}
		b := p.Block(bl)
		if b.Term.Kind == tpal.THalt || b.Term.Kind == tpal.TJoin {
			escape = true // the task can stop inside the loop
		}
		for _, e := range g.succs[bl] {
			if inLoop[e.To] {
				if e.To == h && fix.edges[e] != nil {
					backFeasible = true
				}
				continue
			}
			if e.Kind == EdgeFork {
				continue // the forking task itself keeps looping
			}
			if fix.edges[e] != nil {
				exitFeasible = true
			}
		}
	}
	for _, es := range g.succs {
		for _, e := range es {
			if (e.Kind == EdgeJoinCont || e.Kind == EdgeJoinComb) && inLoop[e.To] {
				havocIn = true
			}
		}
	}

	if !escape && !exitFeasible {
		return TripBound{Kind: TripDivergent}, []Diag{{Severity: Error, Code: CodeTripDivergent, Block: h, Instr: tpal.IssueBlock,
			Msg: fmt.Sprintf("loop %q is statically divergent: once entered, no exit edge is feasible and the region never halts or joins", h)}}
	}

	// Entry edges: where activations of this loop come from. Only the
	// interval-feasible ones can ever fire.
	var feasibleEntries []Edge
	for _, es := range g.succs {
		for _, e := range es {
			if e.To == h && !inLoop[e.From] && fix.edges[e] != nil {
				feasibleEntries = append(feasibleEntries, e)
			}
		}
	}

	scale := func(eLo, eHi int64) TripBound {
		// Per-pass bound: each feasible entry edge leaves a block of the
		// enclosing region, which runs at most once per enclosing pass —
		// but only when that block really belongs to the enclosing
		// region and not to some other (sibling or deeper) loop.
		for _, e := range feasibleEntries {
			if inner[e.From] != parent {
				return TripBound{Kind: TripUnknown}
			}
		}
		n := int64(len(feasibleEntries))
		if h == p.Entry {
			n++ // the program itself enters the header once
		}
		if n == 0 {
			return TripBound{Kind: TripExact} // unreachable activation
		}
		hi := satMul(eHi, n)
		lo := int64(0)
		if n == 1 && guaranteedReach(p, g, parent, h) {
			lo = eLo
		}
		if lo == hi {
			return TripBound{Kind: TripExact, Lo: lo, Hi: hi}
		}
		return TripBound{Kind: TripInterval, Lo: lo, Hi: hi}
	}

	if !backFeasible {
		// The header is reached but no back edge is feasible: the guard
		// contradicts the entry state and the loop body never re-enters.
		d := Diag{Severity: Warning, Code: CodeTripContradiction, Block: h, Instr: tpal.IssueBlock,
			Msg: fmt.Sprintf("loop %q never iterates: its guard is contradicted by every state reaching the header", h)}
		return scale(1, 1), []Diag{d}
	}

	if havocIn {
		return TripBound{Kind: TripUnknown}, nil // join edges havoc the region's registers
	}

	gf, ok := findGuard(p, p.Block(h), inLoop)
	if !ok {
		return TripBound{Kind: TripUnknown}, nil
	}

	// The induction side must be written exactly once in the loop, by a
	// constant-stride update whose block dominates every latch; the
	// bound side must be loop-invariant.
	ind, bound := gf.ind, gf
	stride, sb, si, ok := findStride(p, l, ind)
	if !ok && gf.boundIsRg {
		// Maybe the registers are the other way around: bound side is
		// the induction variable and the "induction" side is invariant.
		if s2, b2, i2, ok2 := findStride(p, l, gf.boundReg); ok2 && !writtenInLoop(p, l, gf.ind) {
			ind = gf.boundReg
			bound.boundIsRg, bound.boundReg = true, gf.ind
			gf.op = flipCmp(gf.op)
			stride, sb, si, ok = s2, b2, i2, true
		}
	}
	if !ok {
		return TripBound{Kind: TripUnknown}, nil
	}
	if bound.boundIsRg && writtenInLoop(p, l, bound.boundReg) {
		return TripBound{Kind: TripUnknown}, nil // bound is not invariant
	}
	if inner[sb] != l {
		return TripBound{Kind: TripUnknown}, nil // stride sits in a nested loop
	}
	for _, es := range g.succs {
		for _, e := range es {
			if e.To == h && inLoop[e.From] && !dominates(idom, sb, e.From) {
				return TripBound{Kind: TripUnknown}, nil // a latch path skips the stride
			}
		}
	}

	// Induction start and bound intervals, joined over the feasible
	// entry edges. A header that doubles as the program entry starts
	// from the all-⊤ entry state, which yields nothing.
	if h == p.Entry || len(feasibleEntries) == 0 {
		return TripBound{Kind: TripUnknown}, nil
	}
	i0, bv := ival{}, ival{}
	for k, e := range feasibleEntries {
		st := fix.edges[e]
		if k == 0 {
			i0, bv = st.get(ind), boundIval(st, bound)
		} else {
			i0 = ivJoin(i0, st.get(ind))
			bv = ivJoin(bv, boundIval(st, bound))
		}
	}
	if sb == h && si < gf.cmpIdx {
		// The stride runs before the compare in the header block itself
		// (the spin-wait shape): the compared value is already advanced.
		i0 = ivAdd(i0, ivConst(stride))
	}

	nLo, nHi, ok := iterBounds(gf.op, stride, i0, bv)
	if !ok {
		return TripBound{Kind: TripUnknown}, nil
	}
	var diags []Diag
	if nHi == 0 {
		diags = append(diags, Diag{Severity: Warning, Code: CodeTripContradiction, Block: h, Instr: gf.branchIdx,
			Msg: fmt.Sprintf("loop %q's guard fails on first check: the body never runs", h)})
	}
	tb := scale(satAdd(nLo, 1), satAdd(nHi, 1))
	return tb, diags
}

func boundIval(st *ivState, gf guardFact) ival {
	if gf.boundIsRg {
		return st.get(gf.boundReg)
	}
	return ivConst(gf.boundK)
}

func writtenInLoop(p *tpal.Program, l *Loop, r tpal.Reg) bool {
	for _, bl := range l.Blocks {
		for _, in := range p.Block(bl).Instrs {
			if writesReg(in, r) {
				return true
			}
		}
	}
	return false
}

// findStride locates the unique in-loop write of r and requires it to
// be a constant-stride self-update `r := r ± k`. Returns the signed
// stride and the write's position.
func findStride(p *tpal.Program, l *Loop, r tpal.Reg) (stride int64, block tpal.Label, idx int, ok bool) {
	found := false
	for _, bl := range l.Blocks {
		for i, in := range p.Block(bl).Instrs {
			if !writesReg(in, r) {
				continue
			}
			if found {
				return 0, "", 0, false // more than one write
			}
			found = true
			if in.Kind != tpal.IBinOp || in.Src != r || in.Val.Kind != tpal.OperInt {
				return 0, "", 0, false
			}
			switch in.Op {
			case tpal.OpAdd:
				stride = in.Val.Int
			case tpal.OpSub:
				if in.Val.Int == ivMin {
					return 0, "", 0, false
				}
				stride = -in.Val.Int
			default:
				return 0, "", 0, false
			}
			block, idx = bl, i
		}
	}
	if !found || stride == 0 {
		return 0, "", 0, false
	}
	return stride, block, idx, true
}

// findGuard resolves the header's first direct if-jump into a continue
// condition. The TPAL truth convention (0 = true, branch taken when
// the register holds 0) means the branch is taken exactly when the
// comparison that produced the register holds; a condition register
// with no producing comparison in the block is the implicit `r == 0`.
func findGuard(p *tpal.Program, hb *tpal.Block, inLoop map[tpal.Label]bool) (guardFact, bool) {
	for k, in := range hb.Instrs {
		if in.Kind != tpal.IIfJump {
			continue
		}
		if in.Val.Kind != tpal.OperLabel {
			return guardFact{}, false
		}
		gf := guardFact{branchIdx: k}
		cond := in.Src
		resolved := false
		for j := k - 1; j >= 0 && !resolved; j-- {
			pin := hb.Instrs[j]
			if !writesReg(pin, cond) {
				continue
			}
			if pin.Kind != tpal.IBinOp || !pin.Op.IsComparison() || pin.Val.Kind == tpal.OperLabel {
				break // no comparison provenance; fall back to implicit
			}
			cand := guardFact{branchIdx: k, op: pin.Op, ind: pin.Src, cmpIdx: j}
			switch pin.Val.Kind {
			case tpal.OperInt:
				cand.boundK = pin.Val.Int
			case tpal.OperReg:
				cand.boundIsRg, cand.boundReg = true, pin.Val.Reg
			}
			// The operands must survive untouched up to the branch, or
			// the comparison no longer describes the branched value.
			ok := true
			for m := j + 1; m < k; m++ {
				if writesReg(hb.Instrs[m], cand.ind) || (cand.boundIsRg && writesReg(hb.Instrs[m], cand.boundReg)) {
					ok = false
				}
			}
			if ok {
				gf, resolved = cand, true
			}
			break
		}
		if !resolved {
			// An if-jump branches exactly when its register holds 0, so a
			// condition with no usable producing comparison is the
			// implicit guard `cond == 0` read at the branch itself.
			gf.op, gf.ind, gf.boundK, gf.cmpIdx = tpal.OpEq, cond, 0, k
		}

		if !inLoop[in.Val.Label] {
			// Taken exits: the loop continues while the comparison fails.
			gf.op = negateCmp(gf.op)
			return gf, true
		}
		// Taken stays in the loop: the fall-through must exit, with no
		// second decision point in between.
		for m := k + 1; m < len(hb.Instrs); m++ {
			if hb.Instrs[m].Kind == tpal.IIfJump {
				return guardFact{}, false
			}
		}
		switch hb.Term.Kind {
		case tpal.THalt:
			return gf, true
		case tpal.TJump:
			if hb.Term.Val.Kind == tpal.OperLabel && !inLoop[hb.Term.Val.Label] {
				return gf, true
			}
		}
		return guardFact{}, false
	}
	return guardFact{}, false
}

// iterBounds bounds how many consecutive guard checks can answer
// "continue", given the continue condition `i op B`, the stride s
// applied between checks, the induction start interval i0 (as of the
// first check) and the invariant bound interval bv. Any arithmetic
// that could overflow, and any unbounded operand the formula needs,
// makes the derivation fail — the machine wraps, the formulas must
// not.
func iterBounds(op tpal.Op, s int64, i0, bv ival) (lo, hi int64, ok bool) {
	ceilDiv := func(d, m int64) int64 {
		if d <= 0 {
			return 0
		}
		q := d / m
		if d%m != 0 {
			q++
		}
		return q
	}
	diff := func(a, b int64) (int64, bool) {
		if a == ivMax || a == ivMin || b == ivMax || b == ivMin {
			return 0, false
		}
		return checkedSub(a, b)
	}
	switch op {
	case tpal.OpLt, tpal.OpLe:
		if s <= 0 {
			return 0, 0, false // moving away from the bound; only wrap stops it
		}
		extra := int64(0)
		if op == tpal.OpLe {
			extra = 1
		}
		dHi, ok1 := diff(bv.hi, i0.lo)
		dLo, ok2 := diff(bv.lo, i0.hi)
		if !ok1 || !ok2 {
			return 0, 0, false
		}
		dHi, ok1 = checkedAdd(dHi, extra)
		dLo, ok2 = checkedAdd(dLo, extra)
		if !ok1 || !ok2 {
			return 0, 0, false
		}
		return ceilDiv(dLo, s), ceilDiv(dHi, s), true
	case tpal.OpGt, tpal.OpGe:
		if s >= 0 || s == ivMin {
			return 0, 0, false
		}
		m := -s
		extra := int64(0)
		if op == tpal.OpGe {
			extra = 1
		}
		dHi, ok1 := diff(i0.hi, bv.lo)
		dLo, ok2 := diff(i0.lo, bv.hi)
		if !ok1 || !ok2 {
			return 0, 0, false
		}
		dHi, ok1 = checkedAdd(dHi, extra)
		dLo, ok2 = checkedAdd(dLo, extra)
		if !ok1 || !ok2 {
			return 0, 0, false
		}
		return ceilDiv(dLo, m), ceilDiv(dHi, m), true
	case tpal.OpNe:
		// Equality-exit loops only stop when i lands exactly on B: the
		// stride must be ±1 with the bound provably ahead, or any step
		// could hop over it and run to wraparound.
		switch s {
		case 1:
			if bv.lo < i0.hi {
				return 0, 0, false
			}
			dHi, ok1 := diff(bv.hi, i0.lo)
			dLo, ok2 := diff(bv.lo, i0.hi)
			if !ok1 || !ok2 {
				return 0, 0, false
			}
			if dLo < 0 {
				dLo = 0
			}
			return dLo, dHi, true
		case -1:
			if i0.lo < bv.hi {
				return 0, 0, false
			}
			dHi, ok1 := diff(i0.hi, bv.lo)
			dLo, ok2 := diff(i0.lo, bv.hi)
			if !ok1 || !ok2 {
				return 0, 0, false
			}
			if dLo < 0 {
				dLo = 0
			}
			return dLo, dHi, true
		}
		return 0, 0, false
	case tpal.OpEq:
		// Continue while i == B with a nonzero stride: one check can
		// pass, the next value differs.
		return 0, 1, true
	}
	return 0, 0, false
}

// guaranteedReach reports whether the header is reached on every pass
// of the enclosing region, via a chain of unconditional jumps from the
// region entry with no promotion-handler diversions. It underpins only
// the lower bound; failing it just widens Lo to 0.
func guaranteedReach(p *tpal.Program, g *graph, parent *Loop, h tpal.Label) bool {
	cur := p.Entry
	if parent != nil {
		cur = parent.Header
	}
	seen := map[tpal.Label]bool{}
	for !seen[cur] {
		if cur == h {
			return true
		}
		seen[cur] = true
		next, n := tpal.Label(""), 0
		for _, e := range g.succs[cur] {
			switch e.Kind {
			case EdgeHandler:
				return false // a diversion may never come back
			case EdgeFork:
				continue // the parent task carries on regardless
			case EdgeJump:
				next = e.To
				n++
			default:
				return false
			}
		}
		if n != 1 {
			return false
		}
		cur = next
	}
	return false
}
