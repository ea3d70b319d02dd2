package analysis

import (
	"math"
	"slices"
	"sort"

	"tpal/internal/tpal"
)

// Phase 7a: the interval (value-range) abstract interpretation. Every
// register is tracked as a (possibly unbounded) integer interval over
// the flow-sharpened edge set, with branch-condition refinement on
// if-jumps and widening at loop headers. The machine's int64 arithmetic
// wraps, so every abstract operation that could overflow goes to ⊤ —
// saturating would claim an ordering the wrapped value does not have.
// The fixpoint feeds the trip-count pass (trips.go), the numeric
// work/span substitution, and the optimizer's branch-resolution facts.

// Interval bound sentinels. ivMin/ivMax double as "unbounded": they are
// the true extreme machine values, so treating a sentinel as an actual
// bound is always sound.
const (
	ivMin = math.MinInt64
	ivMax = math.MaxInt64
)

// ival is a closed integer interval [lo, hi]. The zero value is NOT a
// valid interval; construct via ivTop/ivConst/ivRange. Empty intervals
// never exist — refinement reports emptiness instead.
type ival struct{ lo, hi int64 }

func ivTop() ival          { return ival{ivMin, ivMax} }
func ivConst(k int64) ival { return ival{k, k} }

// ivBool is the TPAL truth range {0 = true, 1 = false}.
func ivBool() ival { return ival{0, 1} }

func (v ival) isTop() bool { return v.lo == ivMin && v.hi == ivMax }

func (v ival) singleton() (int64, bool) {
	if v.lo == v.hi {
		return v.lo, true
	}
	return 0, false
}

func (v ival) contains(k int64) bool { return v.lo <= k && k <= v.hi }

// ivJoin is the least upper bound.
func ivJoin(a, b ival) ival {
	if b.lo < a.lo {
		a.lo = b.lo
	}
	if b.hi > a.hi {
		a.hi = b.hi
	}
	return a
}

// ivWiden jumps any bound that moved since old to infinity, capping the
// ascending chains of the (infinite-height) interval lattice.
func ivWiden(old, next ival) ival {
	if next.lo < old.lo {
		next.lo = ivMin
	}
	if next.hi > old.hi {
		next.hi = ivMax
	}
	return next
}

// meet intersects; ok is false when the intersection is empty.
func (v ival) meet(o ival) (ival, bool) {
	if o.lo > v.lo {
		v.lo = o.lo
	}
	if o.hi < v.hi {
		v.hi = o.hi
	}
	return v, v.lo <= v.hi
}

// Checked int64 arithmetic. ok is false on overflow — the abstract
// operation must then answer ⊤, because the machine wraps.

func checkedAdd(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s <= 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

func checkedSub(a, b int64) (int64, bool) {
	d := a - b
	// a-b must shrink when b>0 and grow when b<0; otherwise it wrapped.
	if (b > 0 && d >= a) || (b < 0 && d <= a) {
		return 0, false
	}
	return d, true
}

func checkedMul(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a || (a == ivMin && b == -1) || (b == ivMin && a == -1) {
		return 0, false
	}
	return p, true
}

func ivAdd(a, b ival) ival {
	lo, ok1 := checkedAdd(a.lo, b.lo)
	hi, ok2 := checkedAdd(a.hi, b.hi)
	if !ok1 || !ok2 {
		return ivTop()
	}
	return ival{lo, hi}
}

func ivSub(a, b ival) ival {
	lo, ok1 := checkedSub(a.lo, b.hi)
	hi, ok2 := checkedSub(a.hi, b.lo)
	if !ok1 || !ok2 {
		return ivTop()
	}
	return ival{lo, hi}
}

func ivMul(a, b ival) ival {
	lo, hi := int64(ivMax), int64(ivMin)
	for _, x := range [2]int64{a.lo, a.hi} {
		for _, y := range [2]int64{b.lo, b.hi} {
			p, ok := checkedMul(x, y)
			if !ok {
				return ivTop()
			}
			if p < lo {
				lo = p
			}
			if p > hi {
				hi = p
			}
		}
	}
	return ival{lo, hi}
}

// ivTruth renders a three-valued comparison verdict as a TPAL truth
// interval: 0 = true, 1 = false.
func ivTruth(always, never bool) ival {
	switch {
	case always:
		return ivConst(0)
	case never:
		return ivConst(1)
	}
	return ivBool()
}

// ivCmp evaluates a comparison over intervals.
func ivCmp(op tpal.Op, a, b ival) ival {
	switch op {
	case tpal.OpLt:
		return ivTruth(a.hi < b.lo, a.lo >= b.hi)
	case tpal.OpLe:
		return ivTruth(a.hi <= b.lo, a.lo > b.hi)
	case tpal.OpGt:
		return ivTruth(a.lo > b.hi, a.hi <= b.lo)
	case tpal.OpGe:
		return ivTruth(a.lo >= b.hi, a.hi < b.lo)
	case tpal.OpEq:
		eq := a.lo == a.hi && b.lo == b.hi && a.lo == b.lo
		disj := a.hi < b.lo || b.hi < a.lo
		return ivTruth(eq, disj)
	case tpal.OpNe:
		eq := a.lo == a.hi && b.lo == b.hi && a.lo == b.lo
		disj := a.hi < b.lo || b.hi < a.lo
		return ivTruth(disj, eq)
	}
	return ivBool()
}

// ivConstOp mirrors the machine's exact wrapping int64 semantics on two
// known values (machine.binop); ok is false when the machine would
// fault (division by zero).
func ivConstOp(op tpal.Op, x, y int64) (int64, bool) {
	switch op {
	case tpal.OpAdd:
		return x + y, true
	case tpal.OpSub:
		return x - y, true
	case tpal.OpMul:
		return x * y, true
	case tpal.OpDiv:
		if y == 0 {
			return 0, false
		}
		return x / y, true
	case tpal.OpMod:
		if y == 0 {
			return 0, false
		}
		return x % y, true
	case tpal.OpAnd:
		return x & y, true
	case tpal.OpOr:
		return x | y, true
	case tpal.OpXor:
		return x ^ y, true
	case tpal.OpShl:
		return x << uint64(y), true
	case tpal.OpShr:
		return x >> uint64(y), true
	}
	return 0, false
}

// ivBinop is the abstract transfer of rd := rs op v.
func ivBinop(op tpal.Op, a, b ival) ival {
	if op.IsComparison() {
		return ivCmp(op, a, b)
	}
	if x, okX := a.singleton(); okX {
		if y, okY := b.singleton(); okY {
			if v, ok := ivConstOp(op, x, y); ok {
				return ivConst(v)
			}
			return ivTop() // faulting path; the TP031 check owns the diagnostic
		}
	}
	switch op {
	case tpal.OpAdd:
		return ivAdd(a, b)
	case tpal.OpSub:
		return ivSub(a, b)
	case tpal.OpMul:
		return ivMul(a, b)
	case tpal.OpMod:
		// x % y is bounded by |y|-1 in magnitude and takes x's sign.
		if y, ok := b.singleton(); ok && y != 0 {
			m := y
			if m < 0 {
				m = -m
			}
			r := ival{-(m - 1), m - 1}
			if a.lo >= 0 {
				r.lo = 0
			}
			if a.hi <= 0 {
				r.hi = 0
			}
			return r
		}
	}
	return ivTop()
}

// ivCond is a comparison-provenance fact: the holding register was
// produced by `src op val`, with val either a register or a literal,
// and none of the three registers reassigned since. Branch refinement
// replays the comparison against the branch direction. Registers are
// regIndex slots; the zero value (ok false) is "no fact".
type ivCond struct {
	ok    bool
	op    tpal.Op
	isReg bool
	src   int
	vreg  int
	k     int64
}

func (c ivCond) mentions(slot int) bool {
	return c.src == slot || (c.isReg && c.vreg == slot)
}

// ivState is the per-program-point abstract state, one slot per
// register of the program's regIndex. A register holding ivTop() is
// unknown, or of a non-integer sort: labels, records and stack pointers
// are all folded into ⊤, which is sound because the machine never
// compares them arithmetically without faulting first.
type ivState struct {
	ix    *regIndex
	regs  []ival
	conds []ivCond
}

func newIvState(ix *regIndex) *ivState {
	s := &ivState{ix: ix, regs: make([]ival, len(ix.regs)), conds: make([]ivCond, len(ix.regs))}
	for i := range s.regs {
		s.regs[i] = ivTop()
	}
	return s
}

func (s *ivState) clone() *ivState {
	return &ivState{ix: s.ix, regs: slices.Clone(s.regs), conds: slices.Clone(s.conds)}
}

// copyFrom overwrites s with src, reusing s's slots.
func (s *ivState) copyFrom(src *ivState) {
	copy(s.regs, src.regs)
	copy(s.conds, src.conds)
}

func (s *ivState) get(r tpal.Reg) ival { return s.regs[s.ix.of(r)] }

// assign is a strong update of slot i: any comparison fact reading or
// held by it is stale afterwards.
func (s *ivState) assign(i int, v ival) {
	for j, c := range s.conds {
		if c.ok && (j == i || c.mentions(i)) {
			s.conds[j] = ivCond{}
		}
	}
	s.regs[i] = v
}

// mergeFrom joins src into s and reports whether s changed. With widen
// set, bounds that moved are sent to infinity instead of the join.
func (s *ivState) mergeFrom(src *ivState, widen bool) bool {
	changed := false
	for i, v := range s.regs {
		if v.isTop() {
			continue
		}
		j := ivJoin(v, src.regs[i])
		if widen {
			j = ivWiden(v, j)
		}
		if j != v {
			s.regs[i] = j
			changed = true
		}
	}
	for i, c := range s.conds {
		if c.ok && src.conds[i] != c {
			s.conds[i] = ivCond{}
			changed = true
		}
	}
	return changed
}

// refineTruth constrains the state by "slot r holds a TPAL truth value
// and the branch direction is known": holds means r == 0 (condition
// true). When r carries comparison provenance the comparison itself is
// replayed against both operands. Returns false when the refined state
// is empty (the direction is infeasible).
func (s *ivState) refineTruth(r int, holds bool) bool {
	rv := s.regs[r]
	if holds {
		m, ok := rv.meet(ivConst(0))
		if !ok {
			return false
		}
		s.regs[r] = m
	} else {
		// r != 0: only boundary exclusion is expressible.
		if rv.lo == 0 && rv.hi == 0 {
			return false
		}
		if rv.lo == 0 {
			rv.lo = 1
			s.regs[r] = rv
		} else if rv.hi == 0 {
			rv.hi = -1
			s.regs[r] = rv
		}
	}
	c := s.conds[r]
	if !c.ok {
		return true
	}
	op := c.op
	if !holds {
		op = negateCmp(op)
	}
	bv := ivConst(c.k)
	if c.isReg {
		bv = s.regs[c.vreg]
	}
	av, aOK := refineCmpLeft(op, s.regs[c.src], bv)
	if !aOK {
		return false
	}
	s.regs[c.src] = av
	if c.isReg {
		nv, bOK := refineCmpLeft(flipCmp(op), bv, av)
		if !bOK {
			return false
		}
		s.regs[c.vreg] = nv
	}
	return true
}

// negateCmp returns the comparison that holds exactly when op does not.
func negateCmp(op tpal.Op) tpal.Op {
	switch op {
	case tpal.OpLt:
		return tpal.OpGe
	case tpal.OpLe:
		return tpal.OpGt
	case tpal.OpGt:
		return tpal.OpLe
	case tpal.OpGe:
		return tpal.OpLt
	case tpal.OpEq:
		return tpal.OpNe
	case tpal.OpNe:
		return tpal.OpEq
	}
	return op
}

// flipCmp mirrors a comparison across its operands: a op b ⇔ b flip(op) a.
func flipCmp(op tpal.Op) tpal.Op {
	switch op {
	case tpal.OpLt:
		return tpal.OpGt
	case tpal.OpLe:
		return tpal.OpGe
	case tpal.OpGt:
		return tpal.OpLt
	case tpal.OpGe:
		return tpal.OpLe
	}
	return op
}

// refineCmpLeft meets a with the constraint "a op b holds"; ok false
// means the constraint is unsatisfiable for a.
func refineCmpLeft(op tpal.Op, a, b ival) (ival, bool) {
	switch op {
	case tpal.OpLt:
		if b.hi == ivMin {
			return a, false
		}
		return a.meet(ival{ivMin, b.hi - 1})
	case tpal.OpLe:
		return a.meet(ival{ivMin, b.hi})
	case tpal.OpGt:
		if b.lo == ivMax {
			return a, false
		}
		return a.meet(ival{b.lo + 1, ivMax})
	case tpal.OpGe:
		return a.meet(ival{b.lo, ivMax})
	case tpal.OpEq:
		return a.meet(b)
	case tpal.OpNe:
		if k, ok := b.singleton(); ok {
			if a.lo == k && a.hi == k {
				return a, false
			}
			if a.lo == k {
				a.lo = k + 1
			} else if a.hi == k {
				a.hi = k - 1
			}
		}
		return a, true
	}
	return a, true
}

// pcKey addresses one instruction slot for branch-fact and edge lookup.
type pcKey struct {
	block tpal.Label
	instr int
}

// BranchFate resolves a direct-label if-jump under the interval
// fixpoint.
type BranchFate uint8

// Branch fates. AlwaysTaken means the condition register provably
// holds 0 at the branch on every execution that reaches it; NeverTaken
// means it provably never does.
const (
	BranchUnknown BranchFate = iota
	BranchAlwaysTaken
	BranchNeverTaken
)

func (f BranchFate) String() string {
	switch f {
	case BranchAlwaysTaken:
		return "always"
	case BranchNeverTaken:
		return "never"
	}
	return "unknown"
}

// BranchFact is one interval-resolved direct if-jump, consumed by the
// optimizer's branch-resolution pass.
type BranchFact struct {
	Block tpal.Label
	Instr int
	Fate  BranchFate
}

// intervalFix is the published fixpoint: per-block in-states, the
// joined state observed on every feasible edge (absence means the edge
// is provably never traversed from a reached block), and the resolved
// direct branches.
type intervalFix struct {
	in     map[tpal.Label]*ivState
	edges  map[Edge]*ivState
	branch map[pcKey]BranchFate
}

// ivWidenDelay is how many times a loop header may be re-merged with
// plain joins before widening kicks in; a couple of precise rounds let
// small constant strides settle before bounds get thrown to infinity.
const ivWidenDelay = 2

// ivRoundCap bounds the fixpoint's full sweeps. Reducible flows
// converge in a handful of rounds once headers widen; past the cap
// (irreducible regions from fuzzed indirect jumps) every merge widens,
// which forces termination.
const ivRoundCap = 48

// ivInterp drives the interval transfer over the sharpened edge graph.
// replay is set only during the post-fixpoint recording sweep.
type ivInterp struct {
	p      *tpal.Program
	ix     *regIndex
	top    *ivState // all ⊤, the state after a join; never mutated
	at     map[pcKey][]Edge
	order  map[tpal.Label]int
	replay *intervalFix
}

// intervalPass runs the interval abstract interpretation to a fixpoint
// over the sharpened edge graph g and returns the published facts.
// headers marks the loop-forest headers, the widening points.
func intervalPass(p *tpal.Program, g *graph, regs *regIndex, headers map[tpal.Label]bool) *intervalFix {
	ix := &ivInterp{p: p, ix: regs, top: newIvState(regs), at: make(map[pcKey][]Edge), order: make(map[tpal.Label]int, len(p.Blocks))}
	for i, b := range p.Blocks {
		ix.order[b.Label] = i
	}
	for _, es := range g.succs {
		for _, e := range es {
			k := pcKey{e.From, e.Instr}
			ix.at[k] = append(ix.at[k], e)
		}
	}
	for k := range ix.at {
		es := ix.at[k]
		sort.Slice(es, func(i, j int) bool {
			if es[i].Kind != es[j].Kind {
				return es[i].Kind < es[j].Kind
			}
			return ix.order[es[i].To] < ix.order[es[j].To]
		})
	}

	in := map[tpal.Label]*ivState{g.entry: newIvState(regs)}
	visits := make(map[tpal.Label]int)
	dirty := map[tpal.Label]bool{g.entry: true}
	work := newIvState(regs) // the block being transferred
	for round := 0; round < ivRoundCap; round++ {
		any := false
		for _, l := range g.rpo {
			if !dirty[l] {
				continue
			}
			dirty[l] = false
			any = true
			b := p.Block(l)
			if b == nil {
				continue
			}
			work.copyFrom(in[l])
			ix.transfer(b, work, func(e Edge, out *ivState) {
				visits[e.To]++
				widen := round >= ivRoundCap/2 ||
					(headers[e.To] && visits[e.To] > ivWidenDelay*(1+len(g.preds[e.To])))
				cur, ok := in[e.To]
				if !ok {
					in[e.To] = out.clone()
					dirty[e.To] = true
					return
				}
				if cur.mergeFrom(out, widen) {
					dirty[e.To] = true
				}
			})
		}
		if !any {
			break
		}
	}
	for _, d := range dirty {
		if !d {
			continue
		}
		// The round cap fired before convergence (pathological irreducible
		// flow). A partial fixpoint may under-approximate, so fall back to
		// ⊤ states over everything the sharpened graph can reach: every
		// edge feasible, every branch unknown — sound, just impotent.
		in = make(map[tpal.Label]*ivState, len(g.rpo))
		for _, l := range g.rpo {
			in[l] = newIvState(regs)
		}
		break
	}

	// Narrowing: recompute every in-state from the fixpoint, twice.
	// Starting from a sound over-approximation, a full recompute
	// (in' = F(in)) is itself sound — the abstract transfer covers the
	// concrete successors of any covering state — and it claws back the
	// precision widening threw away: a widened [0,∞) loop counter
	// narrows to the join of its real entry and guard-refined back-edge
	// values.
	for pass := 0; pass < 2; pass++ {
		next := map[tpal.Label]*ivState{g.entry: newIvState(regs)}
		for _, l := range g.rpo {
			st, ok := in[l]
			if !ok {
				continue
			}
			b := p.Block(l)
			if b == nil {
				continue
			}
			// st is dropped with the rest of in after this pass.
			ix.transfer(b, st, func(e Edge, out *ivState) {
				if cur, ok := next[e.To]; ok {
					cur.mergeFrom(out, false)
				} else {
					next[e.To] = out.clone()
				}
			})
		}
		in = next
	}

	// Replay against the narrowed states to record feasible edges and
	// branch fates.
	fix := &intervalFix{
		in:     in,
		edges:  make(map[Edge]*ivState),
		branch: make(map[pcKey]BranchFate),
	}
	for _, b := range p.Blocks {
		st, ok := in[b.Label]
		if !ok {
			continue
		}
		ix.replay = fix
		ix.transfer(b, st.clone(), func(e Edge, out *ivState) {
			if cur, ok := fix.edges[e]; ok {
				cur.mergeFrom(out, false)
			} else {
				fix.edges[e] = out.clone()
			}
		})
		ix.replay = nil
	}
	return fix
}

// branchFacts extracts the resolved direct branches from the fixpoint
// in deterministic program order.
func branchFacts(p *tpal.Program, fix *intervalFix) []BranchFact {
	var out []BranchFact
	for _, b := range p.Blocks {
		for i := range b.Instrs {
			if fate, ok := fix.branch[pcKey{b.Label, i}]; ok && fate != BranchUnknown {
				out = append(out, BranchFact{Block: b.Label, Instr: i, Fate: fate})
			}
		}
	}
	return out
}

// transfer walks one block from the given in-state, emitting successor
// states along the sharpened edges. When ix.replay is set, direct
// if-jump resolutions are recorded as branch facts.
func (ix *ivInterp) transfer(b *tpal.Block, st *ivState, emit func(Edge, *ivState)) {
	for _, e := range ix.at[pcKey{b.Label, tpal.IssueBlock}] {
		emit(e, st) // EdgeHandler: diversion happens before instr 0
	}
	slot := ix.ix.of
	operIval := func(o tpal.Operand) ival {
		switch o.Kind {
		case tpal.OperInt:
			return ivConst(o.Int)
		case tpal.OperReg:
			return st.get(o.Reg)
		}
		return ivTop()
	}
	for i := 0; i < len(b.Instrs); i++ {
		in := b.Instrs[i]
		switch in.Kind {
		case tpal.IMove:
			st.assign(slot(in.Dst), operIval(in.Val))
		case tpal.IBinOp:
			a := st.get(in.Src)
			bv := operIval(in.Val)
			res := ivBinop(in.Op, a, bv)
			var cond ivCond
			if in.Op.IsComparison() && in.Src != in.Dst {
				switch in.Val.Kind {
				case tpal.OperInt:
					cond = ivCond{ok: true, op: in.Op, src: slot(in.Src), k: in.Val.Int}
				case tpal.OperReg:
					if in.Val.Reg != in.Dst {
						cond = ivCond{ok: true, op: in.Op, src: slot(in.Src), isReg: true, vreg: slot(in.Val.Reg)}
					}
				}
			}
			d := slot(in.Dst)
			st.assign(d, res)
			st.conds[d] = cond
		case tpal.IIfJump:
			c := slot(in.Src)
			cv := st.regs[c]
			always := cv.lo == 0 && cv.hi == 0
			never := !cv.contains(0)
			if ix.replay != nil && in.Val.Kind == tpal.OperLabel {
				fate := BranchUnknown
				if always {
					fate = BranchAlwaysTaken
				} else if never {
					fate = BranchNeverTaken
				}
				ix.replay.branch[pcKey{b.Label, i}] = fate
			}
			if !never {
				taken := st.clone()
				if taken.refineTruth(c, true) {
					for _, e := range ix.at[pcKey{b.Label, i}] {
						emit(e, taken)
					}
				}
			}
			if always {
				return // fall-through is dead
			}
			if !st.refineTruth(c, false) {
				return
			}
		case tpal.IFork:
			for _, e := range ix.at[pcKey{b.Label, i}] {
				emit(e, st) // the child copies the register file
			}
		case tpal.IJrAlloc, tpal.ISNew, tpal.ILoad:
			st.assign(slot(in.Dst), ivTop())
		case tpal.IPrmEmpty:
			st.assign(slot(in.Dst), ivBool())
		case tpal.IPrmSplit:
			st.assign(slot(in.Src2), ivTop())
		}
	}
	ti := len(b.Instrs)
	switch b.Term.Kind {
	case tpal.TJump:
		for _, e := range ix.at[pcKey{b.Label, ti}] {
			emit(e, st)
		}
	case tpal.TJoin:
		// The merged register file after a join mixes parent and child
		// values under ΔR; havoc everything, mirroring the constant pass.
		for _, e := range ix.at[pcKey{b.Label, ti}] {
			emit(e, ix.top)
		}
	}
}
