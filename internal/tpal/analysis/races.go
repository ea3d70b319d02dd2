package analysis

// The static interference pass (Options.Races, codes TP060–TP065).
//
// Fork/join in TPAL is strictly nested: every fork names a join record,
// and the cost semantics (Fig. 28) gives each execution a
// series-parallel graph whose parallel compositions are exactly the
// forks. Two accesses are logically parallel iff one happens in the
// parent's continuation of some fork F and the other in the subtree of
// F's child (or vice versa). The pass therefore works fork-by-fork:
// for each reachable fork it walks the parent continuation and the
// child entry over the flow-sharpened edges (regions.go), collects
// each side's abstract accesses, and reports every pair that may touch
// the same cell of the same dynamic stack instance.
//
// Soundness leans on three facts established in regions.go:
//   - a pointer can only originate at snew and can only reach memory
//     through a store the taint analysis observes (escaped);
//   - a block-fresh instance is unaliased by any fork-time non-fresh
//     value and by memory;
//   - instances allocated after the fork (news) are distinct from
//     every fork-time value and from the other branch's allocations,
//     even when they share an allocation site.
//
// Completeness of the walk: a branch's walker seeds every sub-fork's
// child entry it encounters, so the summary covers the branch's whole
// series-parallel subtree, and join-edge ΔR renames are applied the
// same way the main abstract interpretation applies them.
//
// Extent of a branch: a branch ends at the fork's pairing join — the
// join that resolves the fork's own edge — and code after it is serial
// with the other branch, not parallel. The walker tracks which
// registers may still hold the fork's own record (branchState.pair) and
// emitJoin stops the walk at a join that is definitely the pairing one,
// or marks downstream accesses as possibly-post-join (mayPost) when the
// joined record is only possibly the fork's own; classify never reports
// a mayPost access as definite interference.

import (
	"cmp"
	"fmt"
	"sort"

	"tpal/internal/tpal"
)

// indexEdges groups sharpened edges by source block and instruction.
func indexEdges(sharp []Edge) map[tpal.Label]map[int][]Edge {
	out := make(map[tpal.Label]map[int][]Edge)
	for _, e := range sharp {
		m := out[e.From]
		if m == nil {
			m = make(map[int][]Edge)
			out[e.From] = m
		}
		m[e.Instr] = append(m[e.Instr], e)
	}
	return out
}

// racePass runs the interference analysis over every reachable fork and
// returns the race diagnostics. The sharpened edges resolve only the
// analyzed fork's own child targets; inside a branch the walker
// resolves all control flow itself (see walker).
func racePass(p *tpal.Program, ix *regIndex, sharp []Edge, reached map[tpal.Label]bool, entry []tpal.Reg) []Diag {
	facts := computePtrFacts(p)
	rf := computeRecFacts(p)
	lf := computeLabFacts(p, entry)
	byInstr := indexEdges(sharp)

	var diags []Diag
	seen := make(map[string]bool)
	emit := func(d Diag) {
		k := fmt.Sprintf("%v|%s|%d|%s", d.Code, d.Block, d.Instr, d.Msg)
		if !seen[k] {
			seen[k] = true
			diags = append(diags, d)
		}
	}

	for _, fs := range p.Forks() {
		if !reached[fs.Block] {
			continue
		}
		b := p.Block(fs.Block)
		if b == nil || fs.Instr >= len(b.Instrs) {
			continue
		}
		var targets []tpal.Label
		for _, e := range byInstr[fs.Block][fs.Instr] {
			if e.Kind == EdgeFork {
				targets = append(targets, e.To)
			}
		}
		if len(targets) == 0 {
			continue // unresolvable fork target; TP025 covers it
		}

		forkRec := b.Instrs[fs.Instr].Src
		init := initState(ix, facts, rf, lf, freshAtFork(b, fs.Instr), forkRec)

		parent := runBranch(p, ix, facts, rf, lf, func(w *walker) {
			w.replay(b, fs.Instr+1, init.clone())
		})
		child := runBranch(p, ix, facts, rf, lf, func(w *walker) {
			for _, tgt := range targets {
				w.seed(tgt, init)
			}
		})

		compareBranches(facts, fs, sortedAccs(parent.accs), sortedAccs(child.accs), emit)
	}
	return diags
}

// runBranch drives one branch walk to a fixpoint over the walker's
// fork-shape flags: emitJoin's treatment of a join on the analyzed
// fork's own record depends on whether the branch forks again (on the
// same record, or on another one), which is only known once the walk
// has covered the branch. Both flags grow monotonically and assuming
// them true only adds seeds, so re-running with the observed flags
// converges within three rounds.
func runBranch(p *tpal.Program, ix *regIndex, facts *ptrFacts, rf *recFacts, lf *labFacts, seed func(*walker)) *walker {
	assumePair, assumeOther := false, false
	for {
		w := newWalker(p, ix, facts, rf, lf)
		w.assumePairFork, w.assumeOtherFork = assumePair, assumeOther
		seed(w)
		w.run()
		if (!w.sawPairFork || assumePair) && (!w.sawOtherFork || assumeOther) {
			return w
		}
		assumePair = assumePair || w.sawPairFork
		assumeOther = assumeOther || w.sawOtherFork
	}
}

// sortedAccs orders a walker's access map deterministically.
func sortedAccs(m map[accKey]*access) []*access {
	out := make([]*access, 0, len(m))
	for _, a := range m {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.block != b.block {
			return a.block < b.block
		}
		if a.instr != b.instr {
			return a.instr < b.instr
		}
		return a.kind < b.kind
	})
	return out
}

// compareBranches reports every logically-parallel pair of accesses that
// may conflict across the two branch summaries of one fork.
func compareBranches(facts *ptrFacts, fs tpal.ForkSite, parent, child []*access, emit func(Diag)) {
	for _, pa := range parent {
		for _, ca := range child {
			if !pa.kind.writes() && !ca.kind.writes() {
				continue
			}
			if d, ok := classify(facts, fs, pa, ca); ok {
				emit(d)
			}
		}
	}
}

// classify decides whether one parent access and one child access can
// touch the same cell of the same dynamic stack instance, and with what
// certainty.
//
// Instance identity across the two branches:
//   - top vs anything: unclassifiable — a pointer escaped to memory, so
//     any loaded pointer may alias any instance (TP063);
//   - fresh(id) vs fresh(id): the same pre-fork instance, definitely;
//   - old(r) vs old(r): the same fork-time value, definitely;
//   - old(r1) vs old(r2), r1 ≠ r2: the fork-time values may alias when
//     their may-point-to site sets intersect (TP065), else proven
//     distinct;
//   - every pairing involving news, and fresh-vs-old, fresh or old vs a
//     different fresh id: proven distinct (see regions.go).
//
// When the same instance is certain, cell coordinates decide: equal
// known cells are definite interference (TP060/TP061, or TP062 when a
// mark-list scan definitely covers the cell), distinct known cells are
// no interference, and everything else is an inseparable overlap
// (TP064).
//
// An access marked mayPost may execute after the fork's pairing join,
// serialized with the whole other branch; a pair involving one is
// therefore never definite and demotes to a TP064 warning.
func classify(facts *ptrFacts, fs tpal.ForkSite, pa, ca *access) (Diag, bool) {
	at := func(sev Severity, code Code, msg string) (Diag, bool) {
		return Diag{Severity: sev, Code: code, Block: fs.Block, Instr: fs.Instr, Msg: msg}, true
	}
	pair := func() string {
		return fmt.Sprintf("parent %s at %s and child %s at %s",
			pa.kind, posString(pa.block, pa.instr), ca.kind, posString(ca.block, ca.instr))
	}

	// Recorded accesses always carry a pointer: their origins are set.
	po, co := pa.p.o, ca.p.o
	if po.top || co.top {
		return at(Warning, CodeRaceEscape,
			fmt.Sprintf("a stack pointer escapes to memory, so the branches of this fork cannot be separated: %s may touch the same stack", pair()))
	}

	definite := false
	possible := false
	mayAliasRegs := ""
	if pa.p.singleOrigin() && ca.p.singleOrigin() {
		switch {
		case len(po.fresh) == 1 && len(co.fresh) == 1:
			definite = po.fresh[0] == co.fresh[0]
		case len(po.olds) == 1 && len(co.olds) == 1:
			if po.olds[0] == co.olds[0] {
				definite = true
			} else if oldsMayAlias(facts, po.olds, co.olds) {
				mayAliasRegs = oldsPair(po.olds, co.olds)
			}
		}
		possible = definite
	} else {
		// Multi-origin values: any shared fresh id or shared old
		// register makes the same instance possible.
		possible = sortedIntersects(po.fresh, co.fresh, stackID.compare) ||
			sortedIntersects(po.olds, co.olds, cmp.Compare[tpal.Reg])
		if !possible && oldsMayAlias(facts, po.olds, co.olds) {
			mayAliasRegs = oldsPair(po.olds, co.olds)
		}
	}

	if mayAliasRegs != "" {
		return at(Warning, CodeRaceMayAlias,
			fmt.Sprintf("the fork-time values of %s may alias (same allocation sites): %s may touch the same stack", mayAliasRegs, pair()))
	}
	if !possible {
		return Diag{}, false
	}

	if definite {
		pc, pok := pa.cell()
		cc, cok := ca.cell()
		pt, ptok := pa.rangeTop()
		ct, ctok := ca.rangeTop()
		serializable := pa.mayPost || ca.mayPost
		switch {
		case pok && cok:
			if pc != cc {
				return Diag{}, false // same instance, provably distinct cells
			}
			if serializable {
				return at(Warning, CodeRaceSameStack,
					fmt.Sprintf("%s may touch the same stack cell, but an intervening join may serialize them", pair()))
			}
			code := CodeRaceReadWrite
			if pa.kind.writes() && ca.kind.writes() {
				code = CodeRaceWriteWrite
			}
			return at(Error, code,
				fmt.Sprintf("%s touch the same stack cell in parallel", pair()))
		case ptok && cok:
			if cc > pt {
				return Diag{}, false // the scan cannot reach the cell
			}
			if serializable {
				return at(Warning, CodeRaceSameStack,
					fmt.Sprintf("%s may overlap on the mark-list scan's range, but an intervening join may serialize them", pair()))
			}
			return at(Error, CodeRaceMarkList,
				fmt.Sprintf("%s overlap: the mark-list scan covers the accessed cell", pair()))
		case ctok && pok:
			if pc > ct {
				return Diag{}, false
			}
			if serializable {
				return at(Warning, CodeRaceSameStack,
					fmt.Sprintf("%s may overlap on the mark-list scan's range, but an intervening join may serialize them", pair()))
			}
			return at(Error, CodeRaceMarkList,
				fmt.Sprintf("%s overlap: the mark-list scan covers the accessed cell", pair()))
		}
	}
	return at(Warning, CodeRaceSameStack,
		fmt.Sprintf("%s may touch the same stack at cells the analysis cannot separate", pair()))
}

func posString(b tpal.Label, instr int) string {
	if instr == tpal.IssueBlock {
		return string(b)
	}
	return fmt.Sprintf("%s[%d]", b, instr)
}

// oldsMayAlias reports whether two sets of fork-time register values may
// name the same instance, judged by the taint analysis's may-point-to
// site sets.
func oldsMayAlias(facts *ptrFacts, a, b []tpal.Reg) bool {
	for _, ra := range a {
		for _, rb := range b {
			if ra == rb {
				continue
			}
			sa, sb := facts.sites[ra], facts.sites[rb]
			if sa.top() || sb.top() || sa.intersects(sb) {
				return true
			}
		}
	}
	return false
}

// oldsPair renders the two register sets of a may-alias finding.
func oldsPair(a, b []tpal.Reg) string {
	return fmt.Sprintf("%s and %s", regSet(a), regSet(b))
}

// regSet renders a sorted register set.
func regSet(rs []tpal.Reg) string {
	if len(rs) == 1 {
		return "register " + string(rs[0])
	}
	return "registers " + fmt.Sprint(rs)
}
