package analysis

import (
	"tpal/internal/tpal"
)

// Report is the full result of the static analyses: the diagnostics of
// every phase plus the scheduling facts the later phases compute. The
// scheduling fields are only populated when phase 0 passes (Latency is
// LatencyUnknown and Work/Span nil otherwise).
type Report struct {
	Diags []Diag
	// Latency is the program-wide static promotion-latency bound.
	Latency LatencyBound
	// Loops is the loop forest of the flow-sharpened CFG, each loop
	// graded with its latency class and per-pass work/span.
	Loops []*Loop
	// Work and Span are symbolic upper bounds on the whole program's
	// cost-semantics work and span (Figure 28), in machine steps.
	Work *Expr
	Span *Expr
	// Trips maps every loop-forest header to its phase-7 inferred trip
	// bound (entries per pass of the enclosing region).
	Trips map[tpal.Label]TripBound
	// NumWork and NumSpan are Work and Span with every bounded trip
	// leaf substituted by its inferred upper bound; for constant-bounded
	// programs they are fully numeric (no trip leaves left).
	NumWork *Expr
	NumSpan *Expr
	// Branches lists the direct if-jumps the interval analysis resolved
	// to a single direction, for the optimizer's branch-fold pass.
	Branches []BranchFact
}

// AllLoops returns every loop in the forest, outer before inner,
// flattened in header program order per level.
func (r *Report) AllLoops() []*Loop {
	var out []*Loop
	var walk func([]*Loop)
	walk = func(ls []*Loop) {
		for _, l := range ls {
			out = append(out, l)
			walk(l.Children)
		}
	}
	walk(r.Loops)
	return out
}

// Verify statically checks a program and returns its diagnostics,
// sorted by position with errors first within a position. A program
// with no Error-severity diagnostics is guaranteed not to trip the
// faults the analyses model (assignment-free jumps, non-record joins,
// below-base stack traffic, mark-less prmsplit at guarded sites) on any
// reachable path the analysis can resolve.
func Verify(p *tpal.Program) []Diag { return VerifyWith(p, Options{}) }

// VerifyWith is Verify with configuration.
func VerifyWith(p *tpal.Program, opts Options) []Diag {
	return Analyze(p, opts).Diags
}

// Analyze runs all five phases and returns the full report: structural
// validation, CFG-shape checks, the abstract interpretation, the
// promotion-liveness pass over the flow-sharpened edges, and the
// symbolic work/span estimator. Structural errors short-circuit — the
// flow phases assume structurally sound programs.
func Analyze(p *tpal.Program, opts Options) *Report {
	r := &Report{}

	// Phase 0: structural validation.
	for _, is := range p.Issues() {
		r.Diags = append(r.Diags, Diag{Severity: Error, Code: CodeStructural, Block: is.Block, Instr: is.Instr, Msg: is.Msg})
	}
	if len(r.Diags) > 0 {
		sortDiags(p, r.Diags)
		return r
	}

	g := BuildCFG(p)
	r.Diags = append(r.Diags, cfgChecks(p, g)...)

	// One register index serves every abstract state below.
	ix := newRegIndex(p, opts.EntryRegs)

	// Phase 3: the abstract interpretation, which also records the
	// flow-sharpened edge set and the set of blocks it reached.
	flowDiags, sharp, reached := flowChecks(p, g, ix, opts)
	r.Diags = append(r.Diags, flowDiags...)

	// Phases 4 and 5 run on the sharpened edges: the cost graph keeps
	// every edge kind (in heartbeat-compiled code all forks sit behind
	// promotion handlers, so dropping either handler or fork edges
	// would hide the parallel structure from the loop forest), while
	// the liveness pass excludes handler edges itself.
	cg := newGraph(p, p.Entry, sharp, nil)
	idom := cg.dominators()
	r.Loops = loopForest(cg, idom)
	r.Work, r.Span = costAnalysis(p, cg, r.Loops)

	// Phase 7: interval value analysis and trip-count inference. The
	// widening points are the loop-forest headers; the inferred bounds
	// substitute into the symbolic work/span for numeric bounds.
	headers := make(map[tpal.Label]bool)
	for _, l := range r.AllLoops() {
		headers[l.Header] = true
	}
	fix := intervalPass(p, cg, ix, headers)
	var tripDiags []Diag
	r.Trips, tripDiags = tripPass(p, cg, fix, idom, r.Loops)
	r.Diags = append(r.Diags, tripDiags...)
	r.Branches = branchFacts(p, fix)
	vals := make(map[tpal.Label]int64, len(r.Trips))
	for h, tb := range r.Trips {
		if tb.Bounded() {
			vals[h] = tb.Hi
		}
	}
	r.NumWork = r.Work.Subst(vals)
	r.NumSpan = r.Span.Subst(vals)

	liveDiags, lb := livenessPass(p, sharp, reached, r.Loops)
	r.Diags = append(r.Diags, liveDiags...)
	r.Latency = lb

	// Phase 6 (opt-in): the static interference pass, fork-by-fork over
	// the same sharpened edge set.
	if opts.Races {
		r.Diags = append(r.Diags, racePass(p, g, ix, sharp, reached, opts.EntryRegs)...)
	}

	sortDiags(p, r.Diags)
	return r
}

// cfgChecks runs the graph-shape checks: every fork must be able to
// reach a join on both the parent's and the child's side (a forked task
// whose control flow can never join leaks the join record and blocks
// the continuation forever), and promotion handlers must be plain
// blocks (an annotated handler re-enters the promotion machinery).
func cfgChecks(p *tpal.Program, g *CFG) []Diag {
	var diags []Diag
	reachable := g.Reachable()
	// Joinable: blocks from which some join terminator is reachable.
	joinable := make(map[tpal.Label]bool)
	for _, b := range p.Blocks {
		if b.Term.Kind == tpal.TJoin {
			joinable[b.Label] = true
		}
	}
	canJoin := func(from tpal.Label) bool {
		for l := range g.ReachableFrom(from) {
			if joinable[l] {
				return true
			}
		}
		return false
	}

	for _, b := range p.Blocks {
		if !reachable[b.Label] {
			continue
		}
		if b.Ann.Kind == tpal.AnnPrppt {
			if h := p.Block(b.Ann.Handler); h != nil && h.Ann.Kind != tpal.AnnNone {
				diags = append(diags, Diag{Severity: Warning, Code: CodeAnnotatedHandler, Block: b.Label, Instr: tpal.IssueBlock,
					Msg: "promotion handler \"" + string(b.Ann.Handler) + "\" carries its own annotation; handlers are expected to be plain blocks"})
			}
		}
		for i, in := range b.Instrs {
			if in.Kind != tpal.IFork {
				continue
			}
			if !canJoin(b.Label) {
				diags = append(diags, Diag{Severity: Warning, Code: CodeForkNoJoinParent, Block: b.Label, Instr: i,
					Msg: "the forking task can never reach a join after this fork; the join record never resolves"})
			}
			if in.Val.Kind == tpal.OperLabel && !canJoin(in.Val.Label) {
				diags = append(diags, Diag{Severity: Warning, Code: CodeForkNoJoinChild, Block: b.Label, Instr: i,
					Msg: "the forked task starting at \"" + string(in.Val.Label) + "\" can never reach a join; the join record never resolves"})
			}
		}
	}
	return diags
}

// flowChecks runs the abstract interpretation to a fixpoint, then
// replays every reached block against its fixpoint in-state to collect
// diagnostics and record the flow-sharpened control-flow edges —
// register-indirect transfers contribute only the labels the fixpoint
// proved the register can hold. Blocks the analysis never reaches are
// dead code: they get no flow diagnostics and no edges.
func flowChecks(p *tpal.Program, g *CFG, ix *regIndex, opts Options) ([]Diag, []Edge, map[tpal.Label]bool) {
	it := &interp{p: p, g: g, opts: opts, ix: ix}
	states := Solve(p, Dataflow[*state]{
		Clone: func(s *state) *state { return s.clone() },
		Merge: func(dst, src *state) bool { return dst.mergeInto(src) },
		Transfer: func(b *tpal.Block, in *state, emit func(tpal.Label, *state)) {
			it.transfer(b, in, emit)
		},
	}, it.entryState())

	var diags []Diag
	var sharp []Edge
	seen := make(map[Edge]bool)
	it.diags = &diags
	it.rec = func(e Edge) {
		if !seen[e] {
			seen[e] = true
			sharp = append(sharp, e)
		}
	}
	drop := func(tpal.Label, *state) {}
	reached := make(map[tpal.Label]bool, len(states))
	for _, b := range p.Blocks {
		st, ok := states[b.Label]
		if !ok {
			continue
		}
		reached[b.Label] = true
		it.transfer(b, st, drop)
	}
	it.diags = nil
	it.rec = nil
	return diags, sharp, reached
}
