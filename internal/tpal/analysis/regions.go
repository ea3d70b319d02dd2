package analysis

// Region summaries for the static interference pass (races.go). The
// pass asks, for each fork, which stack cells each branch may touch and
// whether any pair of touches can name the same dynamic cell. Three
// layers of abstraction answer that:
//
//   - one program-wide, flow-insensitive value-flow pass (flowFacts)
//     bounding which snew sites, join records and code labels each
//     register may ever hold, and whether a value of each kind is ever
//     stored to memory (once one is, loads yield an arbitrary value of
//     that kind);
//
//   - a block-local freshness scan (freshAtFork) identifying stack
//     instances allocated by the forking block itself before the fork
//     and still unaliased by memory — the child-private stacks the
//     fib/minipar promotion template hands to forked tasks;
//
//   - a per-branch provenance dataflow (walker), which resolves the
//     branch's control flow itself and classifies every pointer by
//     where its stack instance comes from relative to the fork: a
//     pre-fork fresh instance, a branch-local allocation, or the
//     fork-time value of a register.
//
// Instances from different provenance classes are dynamically distinct
// (see the disjointness notes on prov), which is what lets the pass
// prove the paper's promotion handlers race-free even though every
// promotion allocates from the same snew site.

import (
	"cmp"
	"slices"

	"tpal/internal/tpal"
)

// flowFacts is the program-wide, flow-insensitive value-flow analysis
// under the branch walks. It over-approximates, per register, three
// kinds of value the register may ever hold: stack pointers (by snew
// site), join records (by jralloc continuation) and code labels. Each
// kind originates at one instruction (snew, jralloc, a label operand)
// and flows through moves, ΔR renames, operator results and, once a
// value of that kind has been stored, loads. The kinds never feed each
// other, so one fixpoint over all three computes each one's own least
// fixpoint.
//
// The facts are flow-insensitive on purpose: the main interpretation's
// flow-sharpened facts are merged over the whole program, where one
// havocked path fans an indirect transfer or a join out to every
// address-taken label or jtppt and leaks blocks from an unrelated phase
// of the program into a branch summary. The walkers track values
// themselves, starting from these facts at the fork and falling back on
// them at loads and at ⊤ sets.
type flowFacts struct {
	regs map[tpal.Reg]regFacts
	// Escape bits, one per kind: some store may store a value of that
	// kind, so memory cells may hold one and every load yields ⊤.
	ptrEsc, recEsc, labEsc bool
	// conts is every jralloc continuation in the program, the expansion
	// of a ⊤ record set at a join.
	conts lset
	// addrTaken is the CFG's address-taken labels, the expansion of a ⊤
	// label set at a register-indirect transfer.
	addrTaken []tpal.Label
}

// regFacts is what one register may hold: snew sites it may point
// into, jralloc continuations of the records it may hold, and labels.
type regFacts struct {
	ptrs       sidset
	recs, labs lset
}

func (r regFacts) empty() bool { return r.ptrs.empty() && r.recs.empty() && r.labs.empty() }

// union folds q into r, reporting whether r grew.
func (r *regFacts) union(q regFacts) bool {
	u := regFacts{r.ptrs.union(q.ptrs), r.recs.union(q.recs), r.labs.union(q.labs)}
	grew := !u.ptrs.equal(r.ptrs) || !u.recs.equal(r.recs) || !u.labs.equal(r.labs)
	*r = u
	return grew
}

// computeFlowFacts runs the fixpoint over every instruction of the
// program (reachability is irrelevant for a may-analysis; covering dead
// code only loses precision, never soundness). Entry registers are
// under the caller's control and may hold any label.
func computeFlowFacts(p *tpal.Program, g *CFG, entry []tpal.Reg) *flowFacts {
	f := &flowFacts{regs: make(map[tpal.Reg]regFacts), addrTaken: g.AddrTaken}
	for _, r := range entry {
		if r != "" {
			f.regs[r] = regFacts{labs: lTop()}
		}
	}
	changed := false
	add := func(r tpal.Reg, v regFacts) {
		if r == "" || v.empty() {
			return
		}
		cur := f.regs[r]
		if cur.union(v) {
			f.regs[r] = cur
			changed = true
		}
	}
	escape := func(bit *bool, may bool) {
		if may && !*bit {
			*bit, changed = true, true
		}
	}
	operand := func(o tpal.Operand) regFacts {
		switch o.Kind {
		case tpal.OperReg:
			return f.regs[o.Reg]
		case tpal.OperLabel:
			return regFacts{labs: lOf(o.Label)}
		}
		return regFacts{}
	}
	for changed = true; changed; {
		changed = false
		for _, b := range p.Blocks {
			for _, rr := range b.Ann.DeltaR {
				add(rr.To, f.regs[rr.From])
			}
			for i, in := range b.Instrs {
				switch in.Kind {
				case tpal.ISNew:
					add(in.Dst, regFacts{ptrs: sOf(stackID{Block: b.Label, Instr: i})})
				case tpal.IJrAlloc:
					l := lOf(in.Lbl)
					f.conts = f.conts.union(l)
					add(in.Dst, regFacts{recs: l})
				case tpal.IMove:
					add(in.Dst, operand(in.Val))
				case tpal.IBinOp:
					// The result keeps its operands' pointers (comparisons
					// included: this channel stays coarse there), never a
					// record, and their labels unless it is a comparison's 0/1.
					v := f.regs[in.Src]
					v.union(operand(in.Val))
					v.recs = lset{}
					if in.Op.IsComparison() {
						v.labs = lset{}
					}
					add(in.Dst, v)
				case tpal.ILoad:
					var v regFacts
					if f.ptrEsc {
						v.ptrs = sTop()
					}
					if f.recEsc {
						v.recs = lTop()
					}
					if f.labEsc {
						v.labs = lTop()
					}
					add(in.Dst, v)
				case tpal.IStore:
					v := operand(in.Val)
					escape(&f.ptrEsc, !v.ptrs.empty())
					escape(&f.recEsc, !v.recs.empty())
					escape(&f.labEsc, !v.labs.empty())
				}
			}
		}
	}
	return f
}

// freshInfo describes a register holding a block-fresh stack instance
// at a fork: the snew site that created it and, when trackable, the
// absolute index of the cell the register points at (snew yields -1,
// the empty stack's pre-top).
type freshInfo struct {
	id    stackID
	abs   int64
	absOK bool
}

// freshAtFork scans the forking block's instructions before the fork
// and returns the registers that, at the fork, hold a stack instance
// the block itself allocated — instances no pre-fork register value and
// no memory cell can alias. Storing a fresh pointer to memory cancels
// its freshness (every register holding that instance falls back to
// fork-time-value provenance, and the global escape bit covers loads).
func freshAtFork(b *tpal.Block, forkIdx int) map[tpal.Reg]freshInfo {
	fresh := make(map[tpal.Reg]freshInfo)
	cancel := func(id stackID) {
		for r, fi := range fresh {
			if fi.id == id {
				delete(fresh, r)
			}
		}
	}
	for i := 0; i < forkIdx && i < len(b.Instrs); i++ {
		in := b.Instrs[i]
		switch in.Kind {
		case tpal.ISNew:
			fresh[in.Dst] = freshInfo{id: stackID{Block: b.Label, Instr: i}, abs: -1, absOK: true}
		case tpal.IMove:
			if in.Val.Kind == tpal.OperReg {
				if fi, ok := fresh[in.Val.Reg]; ok {
					fresh[in.Dst] = fi
					continue
				}
			}
			delete(fresh, in.Dst)
		case tpal.IBinOp:
			fi, ok := fresh[in.Src]
			if !ok {
				delete(fresh, in.Dst)
				continue
			}
			// Pointer arithmetic stays within the instance; a constant
			// offset keeps the absolute cell index trackable (the machine
			// maps ptr+n to abs-n).
			switch {
			case in.Op == tpal.OpAdd && in.Val.Kind == tpal.OperInt:
				fi.abs -= in.Val.Int
			case in.Op == tpal.OpSub && in.Val.Kind == tpal.OperInt:
				fi.abs += in.Val.Int
			default:
				fi.absOK = false
			}
			if in.Op.IsComparison() {
				delete(fresh, in.Dst)
				continue
			}
			fresh[in.Dst] = fi
		case tpal.ISAlloc:
			if fi, ok := fresh[in.Src]; ok {
				fi.abs += in.Off // new top = p.Abs + n
				fresh[in.Src] = fi
			}
		case tpal.ISFree:
			if fi, ok := fresh[in.Src]; ok {
				fi.abs -= in.Off
				fresh[in.Src] = fi
			}
		case tpal.IStore:
			if in.Val.Kind == tpal.OperReg {
				if fi, ok := fresh[in.Val.Reg]; ok {
					cancel(fi.id)
				}
			}
		case tpal.ILoad, tpal.IPrmEmpty, tpal.IPrmSplit, tpal.IJrAlloc:
			// Loads and the integer/record results overwrite Dst (prmsplit
			// writes Src2, prmempty writes Dst).
			if in.Kind == tpal.IPrmSplit {
				delete(fresh, in.Src2)
			} else {
				delete(fresh, in.Dst)
			}
		}
	}
	return fresh
}

// prov classifies the stack instances a pointer value may name,
// relative to one fork:
//
//   - fresh: instances the forking block allocated before the fork
//     (shared by both branches' initial register files, aliased by
//     nothing older);
//   - news: instances allocated by snew inside the branch after the
//     fork — the two branches' news are always dynamically distinct,
//     even from the same site;
//   - olds: the fork-time values of registers — olds[r] in both
//     branches names the same dynamic value, and an old value can never
//     equal a fresh or new instance (fresh instances were unaliased at
//     the fork, new ones did not exist yet);
//   - top: an unclassifiable pointer (loaded from memory after a
//     pointer escaped).
//
// adj, when adjOK and the value has exactly one origin, tracks the
// pointer's cell coordinate: for fresh/news origins the absolute cell
// index, for an olds origin the offset from the fork-time value. The
// cell touched by mem[p + off] is then adj - off in the origin's
// coordinate system.
//
// The origins live behind one immutable, shared handle (union swaps in
// a new one when they grow), so a prov is a small plain value and
// copying a branch state copies its provs by reference. The zero value
// holds no pointer.
type prov struct {
	o     *origins
	adj   int64
	adjOK bool
}

// origins are a pointer value's possible instances: never empty, and
// never mutated once built.
type origins struct {
	top   bool
	fresh []stackID
	news  []stackID
	olds  []tpal.Reg
}

func provNone() prov { return prov{} }

var anyOrigin = &origins{top: true}

func provTop() prov { return prov{o: anyOrigin} }

func provFresh(fi freshInfo) prov {
	return prov{o: &origins{fresh: []stackID{fi.id}}, adj: fi.abs, adjOK: fi.absOK}
}

func provNew(id stackID) prov {
	return prov{o: &origins{news: []stackID{id}}, adj: -1, adjOK: true}
}

func provOld(r tpal.Reg) prov {
	return prov{o: &origins{olds: []tpal.Reg{r}}, adjOK: true}
}

// hasPtr reports whether the value may be a stack pointer at all.
func (p prov) hasPtr() bool { return p.o != nil }

// singleOrigin reports whether the value has exactly one possible
// instance origin, the precondition for using adj as a cell coordinate.
func (p prov) singleOrigin() bool {
	return p.o != nil && !p.o.top && len(p.o.fresh)+len(p.o.news)+len(p.o.olds) == 1
}

// shift moves the pointer by d cells toward the base (the machine's
// ptr + d), preserving origin sets.
func (p prov) shift(d int64) prov {
	p.adj -= d
	return p
}

// widen drops the cell coordinate (pointer arithmetic with an unknown
// offset).
func (p prov) widen() prov {
	p.adjOK = false
	return p
}

// union folds q into p, reporting whether p grew. Coordinates survive
// only when both sides agree.
func (p *prov) union(q prov) bool {
	changed := false
	if o := joinOrigins(p.o, q.o); o != p.o {
		p.o, changed = o, true
	}
	if p.adjOK && (!q.adjOK || q.adj != p.adj) && q.hasPtr() {
		p.adjOK = false
		changed = true
	}
	return changed
}

// joinOrigins is the union of two origin sets, returning an operand
// itself whenever it already covers the other.
func joinOrigins(a, b *origins) *origins {
	switch {
	case a == b || b == nil:
		return a
	case a == nil:
		return b
	}
	u := origins{
		top:   a.top || b.top,
		fresh: sortedUnion(a.fresh, b.fresh, stackID.compare),
		news:  sortedUnion(a.news, b.news, stackID.compare),
		olds:  sortedUnion(a.olds, b.olds, cmp.Compare[tpal.Reg]),
	}
	if u.top == a.top && len(u.fresh) == len(a.fresh) && len(u.news) == len(a.news) && len(u.olds) == len(a.olds) {
		return a
	}
	return &u
}

// pairTrit classifies whether a register may hold the analyzed fork's
// own join record — the fork-time value of the fork instruction's
// record register. That record is the one whose join pairs with the
// fork: resolving the fork's edge on it is what serializes the two
// branches, so emitJoin treats joins on it specially.
type pairTrit uint8

const (
	pairNo   pairTrit = iota // definitely a different record (or none)
	pairMay                  // may or may not be the fork's own record
	pairMust                 // definitely the fork's own record
)

// mergeTrit joins two pair classifications: agreement survives, any
// disagreement widens to pairMay.
func mergeTrit(a, b pairTrit) pairTrit {
	if a == b {
		return a
	}
	return pairMay
}

// branchState is a branch walk's per-register environment: one slot
// per register of the program's regIndex, each holding the register's
// pointer provenance, the continuations of the join records it may
// hold, the code labels it may hold, and whether it may hold the
// analyzed fork's own record. Records and labels let the walker resolve
// join terminators and register-indirect transfers without consulting
// the main interpretation's merged edges. Each fact's "absent" is its
// zero value: no pointer, no record, no label, pairNo.
type branchState struct {
	ix   *regIndex
	regs []branchReg
	// mayPost marks states some of whose executions may already be past
	// the fork's pairing join, and hence serialized with the other
	// branch; accesses recorded under it are never definite
	// interference.
	mayPost bool
}

type branchReg struct {
	prov prov
	recs lset
	labs lset
	pair pairTrit
}

func newBranchState(ix *regIndex) *branchState {
	return &branchState{ix: ix, regs: make([]branchReg, len(ix.regs))}
}

func (s *branchState) clone() *branchState {
	return &branchState{ix: s.ix, regs: slices.Clone(s.regs), mayPost: s.mayPost}
}

// copyFrom overwrites s with src, reusing s's slots.
func (s *branchState) copyFrom(src *branchState) {
	copy(s.regs, src.regs)
	s.mayPost = src.mayPost
}

// mergeInto folds src into dst pointwise, reporting change.
func (dst *branchState) mergeInto(src *branchState) bool {
	changed := false
	for i := range src.regs {
		d, q := &dst.regs[i], &src.regs[i]
		if *d == *q {
			continue
		}
		if q.prov.hasPtr() {
			if !d.prov.hasPtr() {
				// Copy, coordinate included: unioning into the zero prov
				// would drop adjOK.
				d.prov = q.prov
				changed = true
			} else if d.prov.union(q.prov) {
				changed = true
			}
		}
		if nv := d.recs.union(q.recs); !nv.equal(d.recs) {
			d.recs, changed = nv, true
		}
		if nv := d.labs.union(q.labs); !nv.equal(d.labs) {
			d.labs, changed = nv, true
		}
		// pair is a flat lattice: pairNo on one side only widens to
		// pairMay unless it already is.
		if nv := mergeTrit(d.pair, q.pair); nv != d.pair {
			d.pair, changed = nv, true
		}
	}
	if src.mayPost && !dst.mayPost {
		dst.mayPost = true
		changed = true
	}
	return changed
}

// initState builds the fork-time environment shared by both branches:
// fresh registers carry their instance, every other possibly-pointer
// register carries its own fork-time value, and record and label
// registers carry what the flow-insensitive facts allow. forkRec is the
// fork instruction's record register: it definitely holds the fork's
// own record, and any other record register whose may-continuation set
// intersects its own may hold a copy of that record.
func initState(ix *regIndex, facts *flowFacts, fresh map[tpal.Reg]freshInfo, forkRec tpal.Reg) *branchState {
	st := newBranchState(ix)
	forkConts := facts.regs[forkRec].recs
	for r, rf := range facts.regs {
		d := &st.regs[ix.of(r)]
		if !rf.ptrs.empty() {
			if fi, ok := fresh[r]; ok {
				d.prov = provFresh(fi)
			} else {
				d.prov = provOld(r)
			}
		}
		d.recs, d.labs = rf.recs, rf.labs
		if r != forkRec && !rf.recs.empty() &&
			(rf.recs.top() || forkConts.top() || rf.recs.intersects(forkConts)) {
			d.pair = pairMay
		}
	}
	if forkRec != "" {
		st.regs[ix.of(forkRec)].pair = pairMust
	}
	return st
}

// accKind classifies one abstract memory access.
type accKind uint8

const (
	accRead      accKind = iota // load of one cell
	accWrite                    // store of one cell (incl. prmpush/prmpop rewriting a cell)
	accMarkRead                 // prmempty/prmsplit scan of the live region
	accMarkWrite                // prmsplit consuming a mark somewhere in the live region
	accStruct                   // salloc/sfree moving the stack top
)

func (k accKind) String() string {
	switch k {
	case accRead:
		return "read"
	case accWrite:
		return "write"
	case accMarkRead:
		return "mark-scan"
	case accMarkWrite:
		return "mark-split"
	case accStruct:
		return "alloc/free"
	}
	return "?"
}

// writes reports whether the access mutates the stack.
func (k accKind) writes() bool { return k != accRead && k != accMarkRead }

// access is one abstract memory access a branch may perform: a program
// point, an access kind, the static cell offset (meaningful when offOK;
// mark scans and structural operations cover an unknown range), and the
// provenance of the base pointer. mayPost records that some walk path
// reaching the access may already be past the fork's pairing join; a
// conflict involving such an access is never definite (the join may
// serialize it with the whole other branch), so classify demotes it to
// a warning.
type access struct {
	block   tpal.Label
	instr   int
	kind    accKind
	off     int64
	offOK   bool
	mayPost bool
	p       prov
}

// cell returns the coordinate of the touched cell in the coordinate
// system of the access's single origin, when determined.
func (a *access) cell() (int64, bool) {
	if !a.offOK || !a.p.adjOK || !a.p.singleOrigin() {
		return 0, false
	}
	return a.p.adj - a.off, true
}

// rangeTop returns the upper cell coordinate of a live-region scan
// (prmempty/prmsplit cover every cell from the base up to the pointer),
// when determined.
func (a *access) rangeTop() (int64, bool) {
	if (a.kind != accMarkRead && a.kind != accMarkWrite) || !a.p.adjOK || !a.p.singleOrigin() {
		return 0, false
	}
	return a.p.adj, true
}

type accKey struct {
	block tpal.Label
	instr int
	kind  accKind
}

// walker runs the provenance dataflow for one branch of one fork,
// accumulating the branch's access summary. All control flow is
// resolved from the walk's own state — direct targets from the
// instruction, register-indirect jumps and forks from the walk's label
// tracking, join terminators from its record tracking, and handler
// diversions from the block annotation. The main interpretation's
// sharpened edges are deliberately not reused inside a branch: they
// reflect its global merged state, where one havocked path fans an
// indirect transfer or a join out to every address-taken label or
// jtppt in the program and leaks blocks from an unrelated program
// phase into the branch summary.
type walker struct {
	p     *tpal.Program
	ix    *regIndex
	facts *flowFacts

	states map[tpal.Label]*branchState
	queue  []tpal.Label
	queued map[tpal.Label]bool
	// work and join are scratch states: the block being replayed and
	// the state flowing along one join edge. seed clones or merges what
	// it receives, so neither outlives its use.
	work, join *branchState

	accs map[accKey]*access

	// Fork-shape assumptions for emitJoin's treatment of the fork's own
	// record, and the shape actually observed by the walk. A join on the
	// pairing record can leave control parallel with the other branch
	// only through an edge some in-branch fork created: a re-fork on the
	// same record leaves its pair-completion combining block in the
	// branch subtree, and a fork on another record makes the
	// [join-continue] case possible. runBranch re-runs the walk until
	// the observed flags are covered by the assumed ones.
	assumePairFork  bool
	assumeOtherFork bool
	sawPairFork     bool
	sawOtherFork    bool
}

func newWalker(p *tpal.Program, ix *regIndex, facts *flowFacts) *walker {
	return &walker{
		p:      p,
		ix:     ix,
		facts:  facts,
		states: make(map[tpal.Label]*branchState),
		queued: make(map[tpal.Label]bool),
		work:   newBranchState(ix),
		join:   newBranchState(ix),
		accs:   make(map[accKey]*access),
	}
}

// seed merges a state into a block head and queues the block.
func (w *walker) seed(l tpal.Label, st *branchState) {
	if w.p.Block(l) == nil {
		return
	}
	cur, ok := w.states[l]
	if !ok {
		w.states[l] = st.clone()
	} else if !cur.mergeInto(st) {
		return
	}
	if !w.queued[l] {
		w.queued[l] = true
		w.queue = append(w.queue, l)
	}
}

// run drives the walk to a fixpoint. The budget mirrors Solve's defense
// against non-monotone transfer bugs.
func (w *walker) run() {
	budget := 2000 * (len(w.p.Blocks) + 1)
	for len(w.queue) > 0 && budget > 0 {
		budget--
		l := w.queue[0]
		w.queue = w.queue[1:]
		w.queued[l] = false
		b := w.p.Block(l)
		if b == nil {
			continue
		}
		w.work.copyFrom(w.states[l])
		w.replay(b, 0, w.work)
	}
}

// record accumulates one access, merging provenance at repeated visits
// of the same program point.
func (w *walker) record(b *tpal.Block, i int, kind accKind, off int64, offOK bool, mayPost bool, p prov) {
	if !p.hasPtr() {
		return
	}
	k := accKey{block: b.Label, instr: i, kind: kind}
	if a, ok := w.accs[k]; ok {
		a.p.union(p)
		if !offOK {
			a.offOK = false
		}
		if mayPost {
			a.mayPost = true
		}
		return
	}
	w.accs[k] = &access{block: b.Label, instr: i, kind: kind, off: off, offOK: offOK, mayPost: mayPost, p: p}
}

// emitTarget flows the working state to a transfer target: a direct
// label operand goes to that label, a register operand to every label
// the walk's label tracking allows (every address-taken label when the
// set is top — the register was loaded after a label escaped).
func (w *walker) emitTarget(o tpal.Operand, st *branchState) {
	switch o.Kind {
	case tpal.OperLabel:
		w.seed(o.Label, st)
	case tpal.OperReg:
		ls := st.regs[w.ix.of(o.Reg)].labs
		if ls.top() {
			for _, l := range w.facts.addrTaken {
				w.seed(l, st)
			}
			return
		}
		for _, l := range ls.elems() {
			w.seed(l, st)
		}
	}
}

// emitJoin flows the working state to a join terminator's possible
// continuations: for every continuation the joined record may name, the
// continuation block itself (with its jtppt ΔR renames applied,
// mirroring the machine's register merge) and its combining block.
//
// The joined record decides how far the branch's logical parallelism
// with the other branch extends. Joins resolve pairwise along fork
// edges, so the join that pairs with the analyzed fork is a join on the
// fork's own record by a task whose current edge is the fork's edge —
// and everything after that pair completion happens-after both
// branches. Concretely:
//
//   - record definitely the fork's own (pairMust): the combining block
//     runs on pair completion of an edge on that record. Absent an
//     in-branch re-fork on the same record, that edge is the fork's own
//     edge, the continuation is serial with the other branch, and the
//     walk stops (post-join accesses belong to no branch summary). The
//     [join-continue] continuation needs the task's edge off the record
//     entirely, which only an unresolved in-branch fork on another
//     record provides. Either in-branch fork re-opens the target with
//     mayPost set: the continuation may or may not still be parallel.
//   - record possibly the fork's own (pairMay): both targets stay
//     reachable but carry mayPost — a conflict there is real only if
//     the joined record was not the pairing one.
//   - record definitely another one (pairNo): the join leaves the
//     branch's parallel structure unchanged (a [join-continue], or the
//     pair completion of some inner fork's edge).
func (w *walker) emitJoin(b *tpal.Block, st *branchState) {
	if b.Term.Val.Kind != tpal.OperReg {
		return
	}
	r := st.regs[w.ix.of(b.Term.Val.Reg)]
	conts := r.recs
	if conts.top() {
		conts = w.facts.conts
	}
	pair := r.pair
	for _, c := range conts.elems() {
		cb := w.p.Block(c)
		if cb == nil {
			continue
		}
		out := w.join
		out.copyFrom(st)
		applyDeltaR(out, st, cb.Ann.DeltaR)
		if pair != pairNo {
			out.mayPost = true
		}
		if pair != pairMust || w.assumeOtherFork {
			w.seed(c, out)
		}
		if cb.Ann.Kind == tpal.AnnJtppt {
			if pair != pairMust || w.assumePairFork {
				w.seed(cb.Ann.Comb, out)
			}
		}
	}
}

// applyDeltaR copies provenance, record, and label sets across a
// join's register renames.
func applyDeltaR(dst *branchState, src *branchState, deltaR []tpal.RegRename) {
	for _, rr := range deltaR {
		dst.regs[dst.ix.of(rr.To)] = src.regs[src.ix.of(rr.From)]
	}
}

// replay walks block b from instruction index start with branch state
// st, recording accesses and flowing states along edges. start > 0 is
// used once per fork, for the parent's post-fork tail; control
// re-enters blocks only at their heads afterwards.
func (w *walker) replay(b *tpal.Block, start int, st *branchState) {
	if start == 0 && b.Ann.Kind == tpal.AnnPrppt {
		// The try-promote rule may divert to the handler before the
		// first instruction runs.
		w.seed(b.Ann.Handler, st)
	}
	reg := func(r tpal.Reg) *branchReg { return &st.regs[w.ix.of(r)] }
	get := func(r tpal.Reg) prov { return reg(r).prov }
	// setPtr overwrites a register with a value whose only fact is its
	// pointer provenance, and returns the register's facts.
	setPtr := func(r tpal.Reg, p prov) *branchReg {
		d := reg(r)
		*d = branchReg{prov: p}
		return d
	}
	for i := start; i < len(b.Instrs); i++ {
		in := b.Instrs[i]
		switch in.Kind {
		case tpal.IMove:
			switch in.Val.Kind {
			case tpal.OperReg:
				// A move copies every fact of the source register.
				*reg(in.Dst) = *reg(in.Val.Reg)
			case tpal.OperLabel:
				setPtr(in.Dst, provNone()).labs = lOf(in.Val.Label)
			default:
				setPtr(in.Dst, provNone())
			}

		case tpal.IBinOp:
			base := get(in.Src)
			var res prov
			switch {
			case in.Op.IsComparison():
				res = provNone()
			case base.hasPtr() && in.Op == tpal.OpAdd && in.Val.Kind == tpal.OperInt:
				res = base.shift(in.Val.Int)
			case base.hasPtr() && in.Op == tpal.OpSub && in.Val.Kind == tpal.OperInt:
				res = base.shift(-in.Val.Int)
			default:
				res = base.widen()
				if in.Val.Kind == tpal.OperReg {
					res.union(get(in.Val.Reg).widen())
				}
			}
			setPtr(in.Dst, res)

		case tpal.IIfJump, tpal.IFork:
			// Forked children start from the forking task's register
			// file: the current state flows to the target unchanged.
			if in.Kind == tpal.IFork {
				// Note the branch's fork shape for emitJoin: an in-branch
				// fork creates the edge that can keep control parallel
				// past a join on the analyzed fork's own record.
				pt := reg(in.Src).pair
				if pt != pairNo {
					w.sawPairFork = true
				}
				if pt != pairMust {
					w.sawOtherFork = true
				}
			}
			w.emitTarget(in.Val, st)

		case tpal.IJrAlloc:
			setPtr(in.Dst, provNone()).recs = lOf(in.Lbl)

		case tpal.ISNew:
			setPtr(in.Dst, provNew(stackID{Block: b.Label, Instr: i}))

		case tpal.ISAlloc:
			base := get(in.Src)
			w.record(b, i, accStruct, 0, false, st.mayPost, base)
			if base.hasPtr() {
				reg(in.Src).prov = base.shift(-in.Off) // new top = p.Abs + n
			}

		case tpal.ISFree:
			base := get(in.Src)
			w.record(b, i, accStruct, 0, false, st.mayPost, base)
			if base.hasPtr() {
				reg(in.Src).prov = base.shift(in.Off)
			}

		case tpal.ILoad:
			w.record(b, i, accRead, in.Off, true, st.mayPost, get(in.Src))
			loaded := provNone()
			if w.facts.ptrEsc {
				loaded = provTop()
			}
			d := setPtr(in.Dst, loaded)
			if w.facts.recEsc {
				d.recs = lTop()
				// A record loaded after some record escaped may be the
				// fork's own.
				d.pair = pairMay
			}
			if w.facts.labEsc {
				d.labs = lTop()
			}

		case tpal.IStore:
			w.record(b, i, accWrite, in.Off, true, st.mayPost, get(in.Src))

		case tpal.IPrmPush:
			w.record(b, i, accWrite, in.Off, true, st.mayPost, get(in.Src))

		case tpal.IPrmPop:
			w.record(b, i, accWrite, in.Off, true, st.mayPost, get(in.Src))

		case tpal.IPrmEmpty:
			w.record(b, i, accMarkRead, 0, false, st.mayPost, get(in.Src2))
			setPtr(in.Dst, provNone())

		case tpal.IPrmSplit:
			w.record(b, i, accMarkRead, 0, false, st.mayPost, get(in.Src))
			w.record(b, i, accMarkWrite, 0, false, st.mayPost, get(in.Src))
			setPtr(in.Src2, provNone())
		}
	}
	switch b.Term.Kind {
	case tpal.TJoin:
		w.emitJoin(b, st)
	case tpal.TJump:
		w.emitTarget(b.Term.Val, st)
	}
}
