package analysis

import (
	"fmt"
	"sort"
	"strings"

	"tpal/internal/tpal"
)

// ExprKind enumerates the symbolic cost expression forms.
type ExprKind uint8

// Expression forms.
const (
	ExprConst ExprKind = iota
	ExprTau            // τ, the fork-join cost of the Figure 28 cost semantics
	ExprTrip           // trip(h): dynamic entries of the loop header h
	ExprAdd
	ExprMul
	ExprMax
)

// Expr is a symbolic upper bound on machine steps. Unknown loop trip
// counts stay symbolic as ExprTrip leaves keyed by the loop header; τ
// stays symbolic so one expression serves any fork cost. Expressions
// are immutable once built.
type Expr struct {
	Kind ExprKind
	K    int64      // ExprConst value
	Loop tpal.Label // ExprTrip header
	Args []*Expr    // ExprAdd/ExprMul/ExprMax operands
}

func eConst(k int64) *Expr     { return &Expr{Kind: ExprConst, K: k} }
func eTau() *Expr              { return &Expr{Kind: ExprTau} }
func eTrip(h tpal.Label) *Expr { return &Expr{Kind: ExprTrip, Loop: h} }

// eAdd sums expressions, folding constants and flattening nested sums.
func eAdd(xs ...*Expr) *Expr {
	var args []*Expr
	var k int64
	var collect func(*Expr)
	collect = func(e *Expr) {
		switch {
		case e == nil:
		case e.Kind == ExprConst:
			k = satAdd(k, e.K)
		case e.Kind == ExprAdd:
			for _, a := range e.Args {
				collect(a)
			}
		default:
			args = append(args, e)
		}
	}
	for _, x := range xs {
		collect(x)
	}
	if k != 0 || len(args) == 0 {
		args = append(args, eConst(k))
	}
	if len(args) == 1 {
		return args[0]
	}
	return &Expr{Kind: ExprAdd, Args: args}
}

// eMul multiplies two expressions, folding the 0/1/const cases.
func eMul(a, b *Expr) *Expr {
	if a == nil || b == nil {
		return eConst(0)
	}
	if a.Kind == ExprConst && b.Kind == ExprConst {
		return eConst(satMul(a.K, b.K))
	}
	if a.Kind == ExprConst {
		a, b = b, a
	}
	if b.Kind == ExprConst {
		switch b.K {
		case 0:
			return eConst(0)
		case 1:
			return a
		}
	}
	return &Expr{Kind: ExprMul, Args: []*Expr{a, b}}
}

// eMax takes the maximum, folding constants and flattening.
func eMax(xs ...*Expr) *Expr {
	var args []*Expr
	var k int64
	haveK := false
	var collect func(*Expr)
	collect = func(e *Expr) {
		switch {
		case e == nil:
		case e.Kind == ExprConst:
			if !haveK || e.K > k {
				k, haveK = e.K, true
			}
		case e.Kind == ExprMax:
			for _, a := range e.Args {
				collect(a)
			}
		default:
			args = append(args, e)
		}
	}
	for _, x := range xs {
		collect(x)
	}
	if len(args) == 0 {
		return eConst(k)
	}
	if haveK && k > 0 {
		args = append(args, eConst(k))
	}
	if len(args) == 1 {
		return args[0]
	}
	return &Expr{Kind: ExprMax, Args: args}
}

const satCap = int64(1) << 62

func satAdd(a, b int64) int64 {
	if a > satCap-b {
		return satCap
	}
	return a + b
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > satCap/b {
		return satCap
	}
	return a * b
}

// Expressions are DAGs, not trees: the cost pass memoizes each
// condensation node's span and every predecessor shares it, so a chain
// of diamonds reaches one node along exponentially many paths. Every
// walk below therefore visits each node once, memoized by pointer.

// Eval evaluates the expression under a trip-count valuation and a
// concrete τ, saturating instead of overflowing. A nil trips treats
// every trip count as zero.
func (e *Expr) Eval(trips map[tpal.Label]int64, tau int64) int64 {
	memo := make(map[*Expr]int64)
	var eval func(*Expr) int64
	eval = func(e *Expr) int64 {
		if e == nil {
			return 0
		}
		switch e.Kind {
		case ExprConst:
			return e.K
		case ExprTau:
			return tau
		case ExprTrip:
			return trips[e.Loop]
		}
		if s, ok := memo[e]; ok {
			return s
		}
		var s int64
		switch e.Kind {
		case ExprAdd:
			for _, a := range e.Args {
				s = satAdd(s, eval(a))
			}
		case ExprMul:
			s = 1
			for _, a := range e.Args {
				s = satMul(s, eval(a))
			}
		case ExprMax:
			for _, a := range e.Args {
				if v := eval(a); v > s {
					s = v
				}
			}
		}
		memo[e] = s
		return s
	}
	return eval(e)
}

// Subst replaces every trip leaf that has a valuation with its
// constant, rebuilding through the folding constructors so the result
// is fully folded. Trip leaves without a valuation stay symbolic; a
// nil receiver stays nil. A node shared in e is shared in the result.
func (e *Expr) Subst(vals map[tpal.Label]int64) *Expr {
	memo := make(map[*Expr]*Expr)
	var subst func(*Expr) *Expr
	subst = func(e *Expr) *Expr {
		if e == nil {
			return nil
		}
		switch e.Kind {
		case ExprTrip:
			if v, ok := vals[e.Loop]; ok {
				return eConst(v)
			}
			return e
		case ExprAdd, ExprMul, ExprMax:
		default:
			return e
		}
		if r, ok := memo[e]; ok {
			return r
		}
		args := make([]*Expr, len(e.Args))
		for i, a := range e.Args {
			args[i] = subst(a)
		}
		var r *Expr
		switch e.Kind {
		case ExprAdd:
			r = eAdd(args...)
		case ExprMax:
			r = eMax(args...)
		default:
			r = args[0]
			for _, a := range args[1:] {
				r = eMul(r, a)
			}
		}
		memo[e] = r
		return r
	}
	return subst(e)
}

// Trips returns the set of loop headers the expression mentions, in
// sorted order.
func (e *Expr) Trips() []tpal.Label {
	set := make(map[tpal.Label]bool)
	seen := make(map[*Expr]bool)
	var walk func(*Expr)
	walk = func(x *Expr) {
		if x == nil || seen[x] {
			return
		}
		seen[x] = true
		if x.Kind == ExprTrip {
			set[x.Loop] = true
		}
		for _, a := range x.Args {
			walk(a)
		}
	}
	walk(e)
	out := make([]tpal.Label, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (e *Expr) String() string { return e.render(0) }

// render prints with minimal parentheses; prec 0 = additive context,
// 1 = multiplicative.
func (e *Expr) render(prec int) string {
	if e == nil {
		return "0"
	}
	switch e.Kind {
	case ExprConst:
		return fmt.Sprintf("%d", e.K)
	case ExprTau:
		return "τ"
	case ExprTrip:
		return fmt.Sprintf("trip(%s)", e.Loop)
	case ExprAdd:
		s := strings.Join(e.renderParts(0), " + ")
		if prec > 0 {
			return "(" + s + ")"
		}
		return s
	case ExprMul:
		parts := make([]string, len(e.Args))
		for i, a := range e.Args {
			parts[i] = a.render(1)
		}
		return strings.Join(parts, "*")
	case ExprMax:
		return "max(" + strings.Join(e.renderParts(0), ", ") + ")"
	}
	return "?"
}

// renderParts renders the operands of a commutative node (+ or max)
// with the non-constant terms in sorted order, so equal expressions
// always print identically: construction order reflects CFG-map
// iteration and is not stable across runs. The folded constant (at
// most one, placed last by eAdd/eMax) stays last.
func (e *Expr) renderParts(prec int) []string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.render(prec)
	}
	n := len(parts)
	if n > 0 && e.Args[n-1].Kind == ExprConst {
		n--
	}
	sort.Strings(parts[:n])
	return parts
}

// costAnalysis runs phase 5: it folds per-block step counts through the
// loop forest of the cost graph into symbolic work/span bounds for the
// whole program, recording per-pass bounds on each loop along the way.
//
// The model over-approximates in the safe direction for upper bounds:
//
//   - Work of a region is the sum over its plain blocks (each runs at
//     most once per region pass in the acyclic condensation) plus, for
//     each nested loop, trip(header) × the nested region's work, where
//     trip counts every dynamic entry of the header.
//   - Span of a region is the weight of the maximal condensation path
//     from the region entry; fork edges participate like ordinary
//     edges (the path takes whichever branch is longer) and each fork
//     instruction adds τ, matching the Figure 28 rule that both
//     branches of a parallel composition start τ past the parent.
//   - A nested loop's span contributes trip(header) × per-pass span:
//     passes are serialized by the loop-carried dependence.
func costAnalysis(p *tpal.Program, g *graph, loops []*Loop) (work, span *Expr) {
	nodes := make(map[tpal.Label]bool, len(g.rpo))
	for _, l := range g.rpo {
		nodes[l] = true
	}
	return regionCost(p, g, g.entry, nodes, loops)
}

// blockSteps is the step cost of one execution of the block: its
// instructions, its terminator, and τ per fork.
func blockSteps(b *tpal.Block) *Expr {
	e := eConst(int64(len(b.Instrs)) + 1)
	for range b.ForkIndices() {
		e = eAdd(e, eTau())
	}
	return e
}

// regionCost computes (work, span) of one pass over a region: the
// blocks in nodes, of which the children regions are condensed
// sub-loops, entered at entry. Edges back to entry are the region's own
// back edges and are excluded.
func regionCost(p *tpal.Program, g *graph, entry tpal.Label, nodes map[tpal.Label]bool, children []*Loop) (work, span *Expr) {
	// Condensation: every block maps to itself or to its top-level
	// child loop, represented by the child's header.
	rep := make(map[tpal.Label]tpal.Label, len(nodes))
	for l := range nodes {
		rep[l] = l
	}
	childOf := make(map[tpal.Label]*Loop, len(children))
	for _, c := range children {
		childOf[c.Header] = c
		for _, bl := range c.Blocks {
			rep[bl] = c.Header
		}
	}

	// Per-condensation-node cost, recursing into children.
	nodeWork := make(map[tpal.Label]*Expr)
	nodeSpan := make(map[tpal.Label]*Expr)
	work = eConst(0)
	for l := range nodes {
		if rep[l] != l {
			continue
		}
		if c, ok := childOf[l]; ok {
			cn := make(map[tpal.Label]bool, len(c.Blocks))
			for _, bl := range c.Blocks {
				cn[bl] = true
			}
			cw, cs := regionCost(p, g, c.Header, cn, c.Children)
			c.Work, c.Span = cw, cs
			nodeWork[l] = eMul(eTrip(c.Header), cw)
			nodeSpan[l] = eMul(eTrip(c.Header), cs)
		} else {
			e := blockSteps(p.Block(l))
			nodeWork[l] = e
			nodeSpan[l] = e
		}
		work = eAdd(work, nodeWork[l])
	}

	// Condensation successors (a DAG by SCC maximality): edges between
	// distinct condensation nodes, excluding the region back edges.
	succs := make(map[tpal.Label]map[tpal.Label]bool)
	for l := range nodes {
		for _, e := range g.succs[l] {
			if !nodes[e.To] || e.To == entry {
				continue
			}
			a, b := rep[l], rep[e.To]
			if a == b {
				continue
			}
			if succs[a] == nil {
				succs[a] = make(map[tpal.Label]bool)
			}
			succs[a][b] = true
		}
	}

	// Maximal path from the entry's condensation node.
	memo := make(map[tpal.Label]*Expr)
	visiting := make(map[tpal.Label]bool)
	var maxFrom func(tpal.Label) *Expr
	maxFrom = func(l tpal.Label) *Expr {
		if e, ok := memo[l]; ok {
			return e
		}
		if visiting[l] {
			return eConst(0) // defensive; the condensation is acyclic
		}
		visiting[l] = true
		var tails []tpal.Label
		for t := range succs[l] {
			tails = append(tails, t)
		}
		sort.Slice(tails, func(i, j int) bool { return tails[i] < tails[j] })
		tail := eConst(0)
		if len(tails) > 0 {
			parts := make([]*Expr, len(tails))
			for i, t := range tails {
				parts[i] = maxFrom(t)
			}
			tail = eMax(parts...)
		}
		e := eAdd(nodeSpan[l], tail)
		delete(visiting, l)
		memo[l] = e
		return e
	}
	en, ok := rep[entry]
	if !ok {
		return work, eConst(0)
	}
	span = maxFrom(en)
	return work, span
}
