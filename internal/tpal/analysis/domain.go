package analysis

import (
	"cmp"
	"fmt"
	"slices"

	"tpal/internal/tpal"
)

// kindSet is a bitset of machine value kinds an abstract value may
// hold. Nil (never-assigned) is tracked separately via absVal.mayUndef,
// not as a kind.
type kindSet uint8

const (
	kInt kindSet = 1 << iota
	kLabel
	kRec
	kPtr
	kMark

	kindAll = kInt | kLabel | kRec | kPtr | kMark
	// kNumeric are the kinds AsInt accepts in arithmetic positions.
	kNumeric = kInt
)

func (k kindSet) String() string {
	names := []struct {
		bit  kindSet
		name string
	}{{kInt, "int"}, {kLabel, "label"}, {kRec, "join record"}, {kPtr, "stack pointer"}, {kMark, "mark"}}
	out := ""
	for _, n := range names {
		if k&n.bit != 0 {
			if out != "" {
				out += "|"
			}
			out += n.name
		}
	}
	if out == "" {
		return "nothing"
	}
	return out
}

// regIndex numbers every register a program names — in any instruction
// operand, terminator or ΔR rename — plus the embedder's entry
// registers. It is built once per Analyze, and every per-block abstract
// state (state, ivState, branchState) holds its registers as a dense
// vector over these slots: cloning a state is a copy and merging one is
// a single loop, the same change machine.Engine made to its register
// file. No pass ever looks up a register outside the index.
type regIndex struct {
	regs []tpal.Reg
	slot map[tpal.Reg]int
}

func newRegIndex(p *tpal.Program, entry []tpal.Reg) *regIndex {
	ix := &regIndex{slot: make(map[tpal.Reg]int)}
	add := func(r tpal.Reg) {
		if _, ok := ix.slot[r]; r != "" && !ok {
			ix.slot[r] = len(ix.regs)
			ix.regs = append(ix.regs, r)
		}
	}
	for _, b := range p.Blocks {
		for _, rr := range b.Ann.DeltaR {
			add(rr.From)
			add(rr.To)
		}
		for _, in := range b.Instrs {
			add(in.Dst)
			add(in.Src)
			add(in.Src2)
			if in.Val.Kind == tpal.OperReg {
				add(in.Val.Reg)
			}
		}
		if b.Term.Val.Kind == tpal.OperReg {
			add(b.Term.Val.Reg)
		}
	}
	for _, r := range entry {
		add(r)
	}
	return ix
}

// of returns a register's slot.
func (ix *regIndex) of(r tpal.Reg) int {
	s, ok := ix.slot[r]
	if !ok {
		panic(fmt.Sprintf("analysis: register %q is outside the program's register index", r))
	}
	return s
}

// Sorted sets. The may-sets below keep their members in a sorted,
// duplicate-free slice that is never mutated once built, so states copy
// them by reference and a union that adds nothing returns an operand
// unchanged instead of allocating.

// sortedOf sorts and deduplicates a fresh copy of xs.
func sortedOf[T any](xs []T, cmp func(T, T) int) []T {
	out := slices.Clone(xs)
	slices.SortFunc(out, cmp)
	return slices.CompactFunc(out, func(a, b T) bool { return cmp(a, b) == 0 })
}

// sortedUnion returns the union of two sorted sets. When one operand
// already contains the other it is returned itself.
func sortedUnion[T any](a, b []T, cmp func(T, T) int) []T {
	if sortedSubset(b, a, cmp) {
		return a
	}
	if sortedSubset(a, b, cmp) {
		return b
	}
	out := make([]T, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := cmp(a[i], b[j]); {
		case c < 0:
			out = append(out, a[i])
			i++
		case c > 0:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// sortedSubset reports whether every member of a is in b.
func sortedSubset[T any](a, b []T, cmp func(T, T) int) bool {
	if len(a) > len(b) {
		return false
	}
	j := 0
	for _, x := range a {
		for j < len(b) && cmp(b[j], x) < 0 {
			j++
		}
		if j == len(b) || cmp(b[j], x) != 0 {
			return false
		}
		j++
	}
	return true
}

// sortedIntersects reports whether two sorted sets share a member.
func sortedIntersects[T any](a, b []T, cmp func(T, T) int) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := cmp(a[i], b[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			return true
		}
	}
	return false
}

// members is the representation behind lset and sidset: an immutable
// sorted member list, or top. A set is a one-word handle on one (nil is
// the empty set, and no handle ever names an empty list), so copying a
// set, or a whole state of them, copies pointers only.
type members[T any] struct {
	top   bool
	elems []T
	one   [1]T // backing store of a singleton, saving an allocation
}

func singleton[T any](x T) *members[T] {
	m := &members[T]{}
	m.one[0] = x
	m.elems = m.one[:]
	return m
}

func membersOf[T any](xs []T, cmp func(T, T) int) *members[T] {
	switch len(xs) {
	case 0:
		return nil
	case 1:
		return singleton(xs[0])
	}
	return &members[T]{elems: sortedOf(xs, cmp)}
}

// joinMembers is the union of two sets, returning an operand itself
// whenever it already covers the other.
func joinMembers[T any](a, b *members[T], cmp func(T, T) int) *members[T] {
	switch {
	case a == b || b == nil || (a != nil && a.top):
		return a
	case a == nil || b.top:
		return b
	}
	u := sortedUnion(a.elems, b.elems, cmp)
	switch len(u) {
	case len(a.elems):
		return a
	case len(b.elems):
		return b
	}
	return &members[T]{elems: u}
}

func sameMembers[T comparable](a, b *members[T]) bool {
	return a == b || (a != nil && b != nil && a.top == b.top && slices.Equal(a.elems, b.elems))
}

// lset is a may-set of labels, with an explicit top ("any label"). The
// flow interpretation uses it for the labels and join-record
// continuations a register may hold, the race walker and its
// flow-insensitive facts for the same two facts inside one branch.
type lset struct{ m *members[tpal.Label] }

var anyLabel = &members[tpal.Label]{top: true}

func lTop() lset { return lset{anyLabel} }

func lOf(ls ...tpal.Label) lset { return lset{membersOf(ls, cmp.Compare[tpal.Label])} }

func (a lset) top() bool { return a.m != nil && a.m.top }

func (a lset) empty() bool { return a.m == nil }

// elems lists the members of a non-top set in sorted order.
func (a lset) elems() []tpal.Label {
	if a.m == nil {
		return nil
	}
	return a.m.elems
}

func (a lset) union(b lset) lset { return lset{joinMembers(a.m, b.m, cmp.Compare[tpal.Label])} }

func (a lset) equal(b lset) bool { return sameMembers(a.m, b.m) }

// intersects reports whether two non-top sets share a label.
func (a lset) intersects(b lset) bool {
	return sortedIntersects(a.elems(), b.elems(), cmp.Compare[tpal.Label])
}

// stackID names an abstract stack by its snew allocation site.
type stackID struct {
	Block tpal.Label
	Instr int
}

func (a stackID) compare(b stackID) int {
	if c := cmp.Compare(a.Block, b.Block); c != 0 {
		return c
	}
	return cmp.Compare(a.Instr, b.Instr)
}

// sidset is a may-set of stack identities, with top.
type sidset struct{ m *members[stackID] }

var anyStack = &members[stackID]{top: true}

func sTop() sidset { return sidset{anyStack} }

func sOf(id stackID) sidset { return sidset{singleton(id)} }

func (a sidset) top() bool { return a.m != nil && a.m.top }

func (a sidset) empty() bool { return a.m == nil }

// elems lists the members of a non-top set in sorted order.
func (a sidset) elems() []stackID {
	if a.m == nil {
		return nil
	}
	return a.m.elems
}

func (a sidset) union(b sidset) sidset { return sidset{joinMembers(a.m, b.m, stackID.compare)} }

func (a sidset) equal(b sidset) bool { return sameMembers(a.m, b.m) }

func (a sidset) has(id stackID) bool {
	_, ok := slices.BinarySearchFunc(a.elems(), id, stackID.compare)
	return ok
}

// intersects reports whether two non-top sets share a stack.
func (a sidset) intersects(b sidset) bool {
	return sortedIntersects(a.elems(), b.elems(), stackID.compare)
}

// only returns the single member of the set, if it is a known
// singleton.
func (a sidset) only() (stackID, bool) {
	if a.top() || len(a.elems()) != 1 {
		return stackID{}, false
	}
	return a.m.elems[0], true
}

// absVal abstracts one register's value as a may-description:
//
//   - mayUndef: some path reaches here without assigning the register
//     (it reads as nil, which TPAL arithmetic treats as 0);
//   - mayDef: some path assigns it; the remaining fields describe the
//     assigned value and are meaningful only when mayDef holds;
//   - kinds: the machine value kinds it may hold;
//   - labels / recs / ptrs: which labels, join-record continuations, or
//     stacks it may name (valid when the corresponding kind bit is
//     set);
//   - delta/deltaOK: for pointers, the known distance below the
//     stack's top (0 = at the top; positive = toward the base);
//   - prmOf: when the value is the result of "prmempty r", the regIndex
//     slot of the stack register it queried, plus one (zero: not a
//     prmempty result) — used to sharpen prmsplit guards.
type absVal struct {
	mayUndef bool
	mayDef   bool
	kinds    kindSet
	deltaOK  bool
	prmOf    int32
	labels   lset
	recs     lset
	ptrs     sidset
	delta    int64
}

func undefVal() absVal { return absVal{mayUndef: true} }

func topVal() absVal {
	return absVal{mayDef: true, kinds: kindAll, labels: lTop(), recs: lTop(), ptrs: sTop()}
}

func intVal() absVal { return absVal{mayDef: true, kinds: kInt} }

func labelVal(l tpal.Label) absVal {
	return absVal{mayDef: true, kinds: kLabel, labels: lOf(l)}
}

func recVal(cont tpal.Label) absVal {
	return absVal{mayDef: true, kinds: kRec, recs: lOf(cont)}
}

func ptrVal(id stackID) absVal {
	return absVal{mayDef: true, kinds: kPtr, ptrs: sOf(id), deltaOK: true}
}

// definitely reports that the value is always assigned and only ever
// holds kinds inside mask.
func (v absVal) definitely(mask kindSet) bool {
	return v.mayDef && !v.mayUndef && v.kinds != 0 && v.kinds&^mask == 0
}

// never reports that the value is always assigned but can never hold a
// kind in mask — the premise for definite-fault errors. A value that
// may be nil is excluded: nil reads as integer 0 and several contexts
// accept it.
func (v absVal) never(mask kindSet) bool {
	return v.mayDef && !v.mayUndef && v.kinds&mask == 0
}

func (a absVal) equal(b absVal) bool {
	return a.mayUndef == b.mayUndef && a.mayDef == b.mayDef &&
		a.kinds == b.kinds && a.labels.equal(b.labels) &&
		a.recs.equal(b.recs) && a.ptrs.equal(b.ptrs) &&
		a.delta == b.delta && a.deltaOK == b.deltaOK && a.prmOf == b.prmOf
}

// mergeVal joins two abstract values.
func mergeVal(a, b absVal) absVal {
	if !b.mayDef {
		a.mayUndef = a.mayUndef || b.mayUndef
		return a
	}
	if !a.mayDef {
		b.mayUndef = a.mayUndef || b.mayUndef
		return b
	}
	out := absVal{
		mayUndef: a.mayUndef || b.mayUndef,
		mayDef:   true,
		kinds:    a.kinds | b.kinds,
		labels:   a.labels.union(b.labels),
		recs:     a.recs.union(b.recs),
		ptrs:     a.ptrs.union(b.ptrs),
	}
	if a.deltaOK && b.deltaOK && a.delta == b.delta {
		out.delta, out.deltaOK = a.delta, true
	}
	if a.prmOf == b.prmOf {
		out.prmOf = a.prmOf
	}
	return out
}

// stackCounts maps stack identities to known counts: a short list
// sorted by stack id (a program has few snew sites), nil until the
// first snew. A state owns its list; clone copies it.
type stackCounts []stackCount

type stackCount struct {
	id stackID
	n  int64
}

func (s stackCounts) find(id stackID) (int, bool) {
	return slices.BinarySearchFunc(s, id, func(c stackCount, id stackID) int { return c.id.compare(id) })
}

func (s stackCounts) get(id stackID) (int64, bool) {
	if i, ok := s.find(id); ok {
		return s[i].n, true
	}
	return 0, false
}

func (s *stackCounts) set(id stackID, n int64) {
	i, ok := s.find(id)
	if ok {
		(*s)[i].n = n
		return
	}
	*s = slices.Insert(*s, i, stackCount{id, n})
}

func (s *stackCounts) del(id stackID) {
	if i, ok := s.find(id); ok {
		*s = slices.Delete(*s, i, i+1)
	}
}

// forget drops the counts of the named stacks (all of them when the set
// is top).
func (s *stackCounts) forget(sids sidset) {
	if sids.top() {
		*s = (*s)[:0]
		return
	}
	*s = slices.DeleteFunc(*s, func(c stackCount) bool { return sids.has(c.id) })
}

// keepAgreeing drops every count src does not share exactly, reporting
// whether any went.
func (s *stackCounts) keepAgreeing(src stackCounts) bool {
	n := len(*s)
	*s = slices.DeleteFunc(*s, func(c stackCount) bool {
		sn, ok := src.get(c.id)
		return !ok || sn != c.n
	})
	return len(*s) != n
}

// state is the product abstract state at a block head, one slot per
// register of the program's regIndex:
//
//   - regs: per-register abstract values (undefVal() = never
//     assigned);
//   - proven: registers whose stack passed a prmempty guard on this
//     path, licensing an unguarded-looking prmsplit;
//   - heights: per-stack known live cell counts (absent = unknown) —
//     a must-fact, merged by dropping disagreement;
//   - marks: per-stack known promotion-mark counts. The count is an
//     upper bound on the marks actually live (plain stores may
//     overwrite marks), so it supports "definitely empty" conclusions
//     (prmsplit/prmpop on a known-0 stack must fault) but not
//     "definitely non-empty" ones.
type state struct {
	ix      *regIndex
	regs    []absVal
	proven  []bool
	heights stackCounts
	marks   stackCounts
}

// newState returns a state in which no register is assigned.
func newState(ix *regIndex) *state {
	st := &state{ix: ix, regs: make([]absVal, len(ix.regs)), proven: make([]bool, len(ix.regs))}
	for i := range st.regs {
		st.regs[i] = undefVal()
	}
	return st
}

func (s *state) clone() *state {
	c := &state{ix: s.ix, regs: slices.Clone(s.regs), proven: slices.Clone(s.proven)}
	if len(s.heights) > 0 {
		c.heights = slices.Clone(s.heights)
	}
	if len(s.marks) > 0 {
		c.marks = slices.Clone(s.marks)
	}
	return c
}

func (s *state) get(r tpal.Reg) absVal { return s.regs[s.ix.of(r)] }

// set assigns a register, clearing facts predicated on its old value:
// prmempty provenance pointing at it and its non-empty proof.
func (s *state) set(r tpal.Reg, v absVal) {
	i := s.ix.of(r)
	for k := range s.regs {
		if s.regs[k].prmOf == int32(i)+1 {
			s.regs[k].prmOf = 0
		}
	}
	s.proven[i] = false
	s.regs[i] = v
}

// mergeInto folds src into dst, reporting change. Register facts join
// pointwise; heights and marks keep only agreeing entries; proofs
// intersect.
func (dst *state) mergeInto(src *state) bool {
	changed := false
	for i, sv := range src.regs {
		// Identical values (the common case once a fixpoint nears, since
		// states share their sets) join to themselves.
		if dv := dst.regs[i]; dv != sv {
			if nv := mergeVal(dv, sv); !nv.equal(dv) {
				dst.regs[i] = nv
				changed = true
			}
		}
		if dst.proven[i] && !src.proven[i] {
			dst.proven[i] = false
			changed = true
		}
	}
	if dst.heights.keepAgreeing(src.heights) {
		changed = true
	}
	if dst.marks.keepAgreeing(src.marks) {
		changed = true
	}
	return changed
}
