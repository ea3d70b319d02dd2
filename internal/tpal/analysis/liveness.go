package analysis

import (
	"fmt"
	"sort"

	"tpal/internal/tpal"
)

// LatencyClass classifies a program's (or loop's) static
// promotion-latency behavior: how many machine steps can separate two
// consecutive promotion events. Promotion events are the points where
// the machine either checks the heartbeat (arrival at a prppt head) or
// restarts a task's cycle counter (fork, pair-completing join, handler
// entry) or retires the task (halt, join-block) — exactly the points
// the machine's MaxPromotionGap counter resets at.
type LatencyClass uint8

const (
	// LatencyUnknown means the program failed an earlier phase and the
	// scheduling analyses never ran.
	LatencyUnknown LatencyClass = iota
	// LatencyFinite means every event-free path is acyclic: the gap
	// between promotion events never exceeds Bound steps.
	LatencyFinite
	// LatencyStackBounded means event-free cycles exist but each pass
	// consumes a bounded resource — a join-continue edge or a
	// frame-popping block (negative stack delta) — so the gap is Bound
	// steps per consumed frame, as in the recursive-function unwind
	// chains of the fib template.
	LatencyStackBounded
	// LatencyUnbounded means some cycle crosses no promotion event at
	// all: a task can starve the scheduler forever.
	LatencyUnbounded
)

func (c LatencyClass) String() string {
	switch c {
	case LatencyFinite:
		return "finite"
	case LatencyStackBounded:
		return "stack-bounded"
	case LatencyUnbounded:
		return "unbounded"
	}
	return "unknown"
}

// LatencyBound is the promotion-latency result of the liveness pass.
// Bound is the longest event-free instruction path: for LatencyFinite
// it bounds the observed gap between promotion events on any run; for
// LatencyStackBounded it bounds the gap per consumed stack frame; it is
// -1 when the class is unbounded or unknown.
type LatencyBound struct {
	Class LatencyClass
	Bound int64
}

func (lb LatencyBound) String() string {
	switch lb.Class {
	case LatencyFinite, LatencyStackBounded:
		return fmt.Sprintf("%s(%d)", lb.Class, lb.Bound)
	}
	return lb.Class.String()
}

// pos is a segment-graph node: a block plus the instruction offset the
// segment enters it at — 0 for the block head, f+1 for the parent's
// position just after the fork at index f (the fork restarts the cycle
// counter, so the tail of the block is a fresh segment).
type pos struct {
	b   tpal.Label
	off int
}

type segEdge struct {
	to  int
	w   int64
	cut bool // in the stack-bounded cut set (join-continue or frame-popping source)
}

// segGraph is the promotion-segment graph: positions connected by the
// event-free flow-sharpened edges, weighted by the number of machine
// steps the transfer executes (instructions from the position to the
// transfer, terminator included). Promotion events — fork edges,
// pair-completion (join-comb) edges, arrivals at prppt heads, handler
// diversions, task retirement — do not appear as edges; they end the
// incoming segment, and their step cost is folded into ev, the maximal
// event tail weight per position.
type segGraph struct {
	list []pos
	ix   map[pos]int
	adj  [][]segEdge
	ev   []int64
}

func (sg *segGraph) add(p pos) int {
	if i, ok := sg.ix[p]; ok {
		return i
	}
	i := len(sg.list)
	sg.ix[p] = i
	sg.list = append(sg.list, p)
	sg.adj = append(sg.adj, nil)
	sg.ev = append(sg.ev, 0)
	return i
}

func (sg *segGraph) noteEvent(i int, w int64) {
	if w > sg.ev[i] {
		sg.ev[i] = w
	}
}

// buildSegGraph constructs the segment graph over the reached blocks
// from the flow-sharpened edge set.
func buildSegGraph(p *tpal.Program, sharp []Edge, reached map[tpal.Label]bool) *segGraph {
	sg := &segGraph{ix: make(map[pos]int)}
	forks := make(map[tpal.Label][]int)
	for _, b := range p.Blocks {
		if !reached[b.Label] {
			continue
		}
		fs := b.ForkIndices()
		forks[b.Label] = fs
		sg.add(pos{b.Label, 0})
		for _, f := range fs {
			sg.add(pos{b.Label, f + 1})
		}
	}
	// owner maps an instruction index (len(Instrs) for the terminator)
	// to the position whose segment executes it.
	owner := func(l tpal.Label, i int) pos {
		o := 0
		for _, f := range forks[l] {
			if f+1 <= i {
				o = f + 1
			}
		}
		return pos{l, o}
	}

	for _, b := range p.Blocks {
		if !reached[b.Label] {
			continue
		}
		// Each fork is an event for the position containing it (both
		// sides restart their counters), and every terminator is a
		// potential segment end (halt and first-arriver joins retire the
		// task; other terminators dominate this candidate through their
		// recorded edges).
		for _, f := range forks[b.Label] {
			op := owner(b.Label, f)
			sg.noteEvent(sg.ix[op], int64(f-op.off+1))
		}
		ti := len(b.Instrs)
		op := owner(b.Label, ti)
		sg.noteEvent(sg.ix[op], int64(ti-op.off+1))
	}

	for _, e := range sharp {
		if e.Kind == EdgeHandler {
			// The handler diversion happens at the prppt head before any
			// instruction runs; the arrival event already ends the
			// segment, and the handler head starts a fresh one.
			continue
		}
		if !reached[e.From] || !reached[e.To] {
			continue
		}
		op := owner(e.From, e.Instr)
		oi := sg.ix[op]
		w := int64(e.Instr - op.off + 1)
		tb := p.Block(e.To)
		if e.Kind == EdgeFork || e.Kind == EdgeJoinComb || tb.Ann.Kind == tpal.AnnPrppt {
			sg.noteEvent(oi, w)
			continue
		}
		cut := e.Kind == EdgeJoinCont || p.Block(e.From).StackDelta() < 0
		sg.adj[oi] = append(sg.adj[oi], segEdge{to: sg.ix[pos{e.To, 0}], w: w, cut: cut})
	}
	return sg
}

// sccs returns the non-trivial strongly connected components (size > 1,
// or a single node with a self-edge) of the segment graph, optionally
// with the cut edges removed and optionally restricted to positions of
// the given blocks.
func (sg *segGraph) sccs(useCut bool, within map[tpal.Label]bool) [][]int {
	keepNode := func(i int) bool { return within == nil || within[sg.list[i].b] }
	keepEdge := func(e segEdge) bool { return (!useCut || !e.cut) && keepNode(e.to) }
	deg := func(v int) int {
		if !keepNode(v) {
			return 0
		}
		return len(sg.adj[v])
	}
	succ := func(v, k int) int {
		if e := sg.adj[v][k]; keepEdge(e) {
			return e.to
		}
		return -1
	}
	var out [][]int
	for _, scc := range tarjan(len(sg.list), deg, succ) {
		if len(scc) > 1 {
			out = append(out, scc)
			continue
		}
		for _, e := range sg.adj[scc[0]] {
			if keepEdge(e) && e.to == scc[0] {
				out = append(out, scc)
				break
			}
		}
	}
	return out
}

// longest returns the maximal event-free path weight — the promotion
// latency bound — assuming the (possibly cut) graph is acyclic. With
// useCut set, cut edges end their segment like events do and contribute
// only their own weight.
func (sg *segGraph) longest(useCut bool) int64 {
	memo := make([]int64, len(sg.list))
	state := make([]uint8, len(sg.list))
	var rec func(int) int64
	rec = func(i int) int64 {
		if state[i] == 2 {
			return memo[i]
		}
		if state[i] == 1 {
			return 0 // cycle guard; callers establish acyclicity first
		}
		state[i] = 1
		best := sg.ev[i]
		for _, e := range sg.adj[i] {
			if useCut && e.cut {
				if e.w > best {
					best = e.w
				}
				continue
			}
			if v := e.w + rec(e.to); v > best {
				best = v
			}
		}
		memo[i], state[i] = best, 2
		return best
	}
	var b int64
	for i := range sg.list {
		if v := rec(i); v > b {
			b = v
		}
	}
	return b
}

// classify grades a region (nil within = the whole program).
func (sg *segGraph) classify(within map[tpal.Label]bool) LatencyClass {
	if len(sg.sccs(false, within)) == 0 {
		return LatencyFinite
	}
	if len(sg.sccs(true, within)) == 0 {
		return LatencyStackBounded
	}
	return LatencyUnbounded
}

// livenessPass runs phase 4: the promotion-latency classification plus
// the dead-annotation and promotion-starved-loop checks. It grades each
// loop in the forest in place and returns the diagnostics and the
// program-wide bound.
func livenessPass(p *tpal.Program, sharp []Edge, reached map[tpal.Label]bool, loops []*Loop) ([]Diag, LatencyBound) {
	var diags []Diag
	sg := buildSegGraph(p, sharp, reached)

	lb := LatencyBound{Class: sg.classify(nil), Bound: -1}
	switch lb.Class {
	case LatencyFinite:
		lb.Bound = sg.longest(false)
	case LatencyStackBounded:
		lb.Bound = sg.longest(true)
	}

	var walk func([]*Loop)
	walk = func(ls []*Loop) {
		for _, l := range ls {
			within := make(map[tpal.Label]bool, len(l.Blocks))
			for _, b := range l.Blocks {
				within[b] = true
			}
			l.Class = sg.classify(within)
			walk(l.Children)
		}
	}
	walk(loops)

	// TP050: cycles with no promotion event at all. Serial programs
	// legitimately contain promotion-free loops, so the check is gated
	// on the program using the promotion machinery anywhere.
	anyPrppt := false
	for _, l := range p.Prppts() {
		if reached[l] {
			anyPrppt = true
			break
		}
	}
	if anyPrppt && lb.Class == LatencyUnbounded {
		seen := make(map[tpal.Label]bool)
		for _, scc := range sg.sccs(true, nil) {
			rep := repBlock(p, sg, scc)
			if seen[rep] {
				continue
			}
			seen[rep] = true
			diags = append(diags, Diag{Severity: Warning, Code: CodeNonPromotingLoop, Block: rep, Instr: tpal.IssueBlock,
				Msg: "control can cycle through this block without crossing any promotion-ready program point; promotion latency is unbounded"})
		}
	}

	// TP051: loops that create tasks without ever offering a promotion.
	var starved func([]*Loop)
	starved = func(ls []*Loop) {
		for _, l := range ls {
			forksIn, prpptIn := false, false
			for _, bl := range l.Blocks {
				b := p.Block(bl)
				if b.Ann.Kind == tpal.AnnPrppt {
					prpptIn = true
				}
				if len(b.ForkIndices()) > 0 {
					forksIn = true
				}
			}
			if forksIn && !prpptIn {
				diags = append(diags, Diag{Severity: Warning, Code: CodeLoopForksNoPrppt, Block: l.Header, Instr: tpal.IssueBlock,
					Msg: "this loop forks on every pass but contains no promotion-ready program point; tasks are created unconditionally instead of by heartbeat promotion"})
			} else {
				// A promoting outer loop can still hide a starved inner
				// one; only recurse while the region is clean.
				starved(l.Children)
			}
		}
	}
	starved(loops)

	// TP052/TP053: dead annotations.
	for _, l := range p.Prppts() {
		if !reached[l] {
			b := p.Block(l)
			diags = append(diags, Diag{Severity: Warning, Code: CodeDeadPrppt, Block: l, Instr: tpal.IssueBlock,
				Msg: fmt.Sprintf("prppt on an unreachable block; its handler %q can never run", b.Ann.Handler)})
		}
	}
	targets := p.JrallocTargets()
	for _, l := range p.Jtppts() {
		if !targets[l] {
			diags = append(diags, Diag{Severity: Warning, Code: CodeDeadJtppt, Block: l, Instr: tpal.IssueBlock,
				Msg: "jtppt continuation is never named by any jralloc; no join record can reach it"})
		}
	}
	return diags, lb
}

// repBlock picks a stable representative block for an SCC of positions:
// the earliest member block in program order.
func repBlock(p *tpal.Program, sg *segGraph, scc []int) tpal.Label {
	order := make(map[tpal.Label]int, len(p.Blocks))
	for i, b := range p.Blocks {
		order[b.Label] = i
	}
	blocks := make([]tpal.Label, 0, len(scc))
	for _, i := range scc {
		blocks = append(blocks, sg.list[i].b)
	}
	sort.Slice(blocks, func(i, j int) bool { return order[blocks[i]] < order[blocks[j]] })
	return blocks[0]
}
