package analysis_test

import (
	"fmt"
	"testing"
	"time"

	"tpal/internal/tpal"
	"tpal/internal/tpal/analysis"
)

// diamondExpr builds a cost DAG of the given depth in which every level
// uses the level below twice, e(i) = e(i-1)*trip(h<i>) + max(e(i-1), τ),
// the shape the span pass builds when successive regions share one
// memoized tail. As a tree it has 2^depth copies of trip(h0).
func diamondExpr(depth int) *analysis.Expr {
	e := &analysis.Expr{Kind: analysis.ExprTrip, Loop: "h0"}
	for i := 1; i <= depth; i++ {
		trip := &analysis.Expr{Kind: analysis.ExprTrip, Loop: tpal.Label(fmt.Sprintf("h%d", i))}
		mul := &analysis.Expr{Kind: analysis.ExprMul, Args: []*analysis.Expr{e, trip}}
		max := &analysis.Expr{Kind: analysis.ExprMax, Args: []*analysis.Expr{e, {Kind: analysis.ExprTau}}}
		e = &analysis.Expr{Kind: analysis.ExprAdd, Args: []*analysis.Expr{mul, max}}
	}
	return e
}

func unitTrips(depth int) map[tpal.Label]int64 {
	trips := make(map[tpal.Label]int64, depth+1)
	for i := 0; i <= depth; i++ {
		trips[tpal.Label(fmt.Sprintf("h%d", i))] = 1
	}
	return trips
}

// TestExprWalksAreLinear pins that Subst, Eval and Trips visit each
// node of a cost DAG once: Subst's allocations grow linearly in depth,
// and all three finish at a depth where a tree walk would take 2^64
// visits.
func TestExprWalksAreLinear(t *testing.T) {
	allocs := func(depth int) float64 {
		e, vals := diamondExpr(depth), unitTrips(depth)
		return testing.AllocsPerRun(3, func() { e.Subst(vals) })
	}
	// Depth 20 first: an exponential Subst fails here, not by exhausting
	// memory at depth 40.
	a20 := allocs(20)
	if a20 > 20*40 {
		t.Fatalf("Subst allocates %.0f times at depth 20; want linear in depth", a20)
	}
	if a40 := allocs(40); a40 > 2.5*a20 {
		t.Fatalf("Subst allocates %.0f times at depth 20 and %.0f at depth 40; want linear in depth", a20, a40)
	}

	e, trips := diamondExpr(20), unitTrips(20)
	if got, want := e.Eval(trips, 1), int64(1)<<20; got != want {
		t.Fatalf("Eval = %d, want %d", got, want)
	}
	if got, want := e.Subst(trips).Eval(nil, 1), e.Eval(trips, 1); got != want {
		t.Fatalf("Subst then Eval = %d, Eval = %d", got, want)
	}

	deep := diamondExpr(64)
	done := make(chan []tpal.Label, 1)
	go func() {
		deep.Eval(unitTrips(64), 1)
		deep.Subst(map[tpal.Label]int64{"h0": 1})
		done <- deep.Trips()
	}()
	select {
	case ls := <-done:
		if len(ls) != 65 {
			t.Fatalf("Trips lists %d headers, want 65", len(ls))
		}
	case <-time.After(30 * time.Second):
		t.Fatal("depth-64 walks did not finish: some walk expands the DAG into a tree")
	}
}
