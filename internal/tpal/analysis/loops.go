package analysis

import (
	"sort"

	"tpal/internal/tpal"
)

// Loop is one cyclic region of the flow-sharpened CFG, discovered by
// recursive strongly-connected-component decomposition (which, unlike
// back-edge natural loops, also handles the irreducible regions
// register-indirect continuations produce). Header is the region's
// canonical entry: the unique region block dominating every other
// region block when one exists, otherwise the first region block in
// reverse post-order. Blocks lists every block of the region, nested
// regions included, in program order.
type Loop struct {
	Header   tpal.Label
	Blocks   []tpal.Label
	Children []*Loop
	Depth    int

	// Class is the promotion-latency class of the cycles through this
	// region (see LatencyBound).
	Class LatencyClass
	// Work and Span are the symbolic cost of one pass over the region
	// (one entry of the header), nested regions folded in by their own
	// trip counts.
	Work *Expr
	Span *Expr
	// Trip is the phase-7 inferred bound on the header's dynamic
	// entries per pass of the enclosing region.
	Trip TripBound
}

type lpair struct{ from, to tpal.Label }

// loopForest builds the loop forest of the graph: top-level SCCs become
// depth-1 loops; removing each header's in-region in-edges and
// re-decomposing yields the nested levels.
func loopForest(g *graph, idom map[tpal.Label]tpal.Label) []*Loop {
	nodes := make(map[tpal.Label]bool, len(g.rpo))
	for _, l := range g.rpo {
		nodes[l] = true
	}
	return sccLoops(g, idom, nodes, map[lpair]bool{}, 1)
}

func sccLoops(g *graph, idom map[tpal.Label]tpal.Label, nodes map[tpal.Label]bool, cut map[lpair]bool, depth int) []*Loop {
	var out []*Loop
	for _, scc := range tarjanSCC(g, nodes, cut) {
		if len(scc) == 1 && !hasSelfEdge(g, scc[0], cut) {
			continue
		}
		h := chooseHeader(g, idom, scc)
		inner := make(map[tpal.Label]bool, len(scc))
		for _, l := range scc {
			inner[l] = true
		}
		sub := make(map[lpair]bool, len(cut)+len(scc))
		for k := range cut {
			sub[k] = true
		}
		for _, l := range scc {
			sub[lpair{l, h}] = true
		}
		out = append(out, &Loop{
			Header:   h,
			Blocks:   progOrder(g.p, scc),
			Children: sccLoops(g, idom, inner, sub, depth+1),
			Depth:    depth,
		})
	}
	order := make(map[tpal.Label]int, len(g.p.Blocks))
	for i, b := range g.p.Blocks {
		order[b.Label] = i
	}
	sort.Slice(out, func(i, j int) bool { return order[out[i].Header] < order[out[j].Header] })
	return out
}

// chooseHeader picks the region block that dominates all region blocks;
// irreducible regions, which have none, fall back to the earliest
// region block in reverse post-order.
func chooseHeader(g *graph, idom map[tpal.Label]tpal.Label, scc []tpal.Label) tpal.Label {
	best := scc[0]
	for _, h := range scc {
		if g.rpoIx[h] < g.rpoIx[best] {
			best = h
		}
	}
	for _, h := range scc {
		all := true
		for _, n := range scc {
			if !dominates(idom, h, n) {
				all = false
				break
			}
		}
		if all {
			return h
		}
	}
	return best
}

func hasSelfEdge(g *graph, l tpal.Label, cut map[lpair]bool) bool {
	if cut[lpair{l, l}] {
		return false
	}
	for _, e := range g.succs[l] {
		if e.To == l {
			return true
		}
	}
	return false
}

func progOrder(p *tpal.Program, ls []tpal.Label) []tpal.Label {
	order := make(map[tpal.Label]int, len(p.Blocks))
	for i, b := range p.Blocks {
		order[b.Label] = i
	}
	out := append([]tpal.Label(nil), ls...)
	sort.Slice(out, func(i, j int) bool { return order[out[i]] < order[out[j]] })
	return out
}

// tarjanSCC returns the strongly connected components of the graph
// restricted to nodes, with cut edges removed: it numbers blocks by
// their reverse post-order and runs tarjan. Callers order the result
// themselves (sccLoops sorts by header).
func tarjanSCC(g *graph, nodes map[tpal.Label]bool, cut map[lpair]bool) [][]tpal.Label {
	deg := func(v int) int {
		if !nodes[g.rpo[v]] {
			return 0
		}
		return len(g.succs[g.rpo[v]])
	}
	succ := func(v, k int) int {
		from := g.rpo[v]
		to := g.succs[from][k].To
		if !nodes[to] || cut[lpair{from, to}] {
			return -1
		}
		return g.rpoIx[to]
	}
	var out [][]tpal.Label
	for _, scc := range tarjan(len(g.rpo), deg, succ) {
		if !nodes[g.rpo[scc[0]]] {
			continue // a node outside the set is an edgeless singleton
		}
		ls := make([]tpal.Label, len(scc))
		for i, v := range scc {
			ls[i] = g.rpo[v]
		}
		out = append(out, ls)
	}
	return out
}

// tarjan returns the strongly connected components of the graph over
// nodes 0..n-1 whose node v has deg(v) out-edges, the k-th leading to
// succ(v, k), or to no node at all when succ returns -1 (a filtered
// edge). Roots are taken in index order and edges in k order, so the
// output order is a function of the graph. It is iterative: a deep
// chain on a fuzzed input cannot overflow the goroutine stack.
func tarjan(n int, deg func(v int) int, succ func(v, k int) int) [][]int {
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack, members []int // members holds every SCC found, back to back
	var out [][]int
	next := 0

	type frame struct{ v, edge int }
	var call []frame
	visit := func(v int) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		call = append(call, frame{v: v})
	}
	for root := 0; root < n; root++ {
		if index[root] >= 0 {
			continue
		}
		visit(root)
		for len(call) > 0 {
			f := &call[len(call)-1]
			v, advanced := f.v, false
			for f.edge < deg(v) {
				w := succ(v, f.edge)
				f.edge++
				if w < 0 {
					continue
				}
				if index[w] < 0 {
					visit(w)
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			if low[v] == index[v] {
				start := len(members)
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					members = append(members, w)
					if w == v {
						break
					}
				}
				out = append(out, members[start:len(members):len(members)])
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				if p := &call[len(call)-1]; low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
		}
	}
	return out
}
