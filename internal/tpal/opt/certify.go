package opt

import (
	"cmp"
	"fmt"
	"slices"

	"tpal/internal/tpal"
	"tpal/internal/tpal/analysis"
)

// certify is the static half of the translation-validation contract.
// It compares the full analysis of a pass's output against the input
// and rejects the output unless every check holds:
//
//  1. No new diagnostics: for every (code, severity) pair, the output
//     has at most as many diagnostics as the input. This subsumes race
//     certification — the interference pass runs in both analyses, so
//     a rewrite that introduces a TP06x finding is rejected here.
//  2. The promotion-latency grade does not worsen (finite stays
//     finite, stack-bounded never becomes unbounded), and the latency
//     bound does not exceed max(input bound, allowance). Passes that
//     only delete or shorten code run with a zero allowance; the prppt
//     pass runs with the gap budget.
//  3. The symbolic work and span bounds do not grow, checked by
//     evaluating both programs' expressions over a grid of uniform
//     trip-count and τ valuations (loop headers may be renamed by the
//     rewrite, so the expressions are compared extensionally).
//
// The dynamic half — schedule-matrix result equivalence with the race
// sanitizer on — lives in the equiv subpackage and backs this check in
// the test suites and fuzzers.
func certify(before, after *analysis.Report, latencyAllowance int64, g *gridCache) error {
	if err := certifyDiags(before.Diags, after.Diags); err != nil {
		return err
	}
	if err := certifyLatency(before.Latency, after.Latency, latencyAllowance); err != nil {
		return err
	}
	if err := certifyCost("work", before.Work, after.Work, g); err != nil {
		return err
	}
	return certifyCost("span", before.Span, after.Span, g)
}

type diagKey struct {
	code analysis.Code
	sev  analysis.Severity
}

// certifyDiags reports the first over-counted (code, severity) pair in
// sorted order, so the rejection text — which surfaces in TP081/TP082
// notes — is the same on every run.
func certifyDiags(before, after []analysis.Diag) error {
	count := func(ds []analysis.Diag) map[diagKey]int {
		m := make(map[diagKey]int)
		for _, d := range ds {
			m[diagKey{d.Code, d.Severity}]++
		}
		return m
	}
	was, now := count(before), count(after)
	var grew []diagKey
	for k, n := range now {
		if n > was[k] {
			grew = append(grew, k)
		}
	}
	if len(grew) == 0 {
		return nil
	}
	k := slices.MinFunc(grew, func(a, b diagKey) int {
		return cmp.Or(cmp.Compare(a.code, b.code), cmp.Compare(a.sev, b.sev))
	})
	return fmt.Errorf("new diagnostics: %d×%s %s (input had %d)", now[k], k.sev, k.code, was[k])
}

// latencyRank orders latency classes from best to worst; Unknown ranks
// worst because it means the scheduling analyses never ran.
func latencyRank(c analysis.LatencyClass) int {
	switch c {
	case analysis.LatencyFinite:
		return 0
	case analysis.LatencyStackBounded:
		return 1
	case analysis.LatencyUnbounded:
		return 2
	}
	return 3
}

func certifyLatency(before, after analysis.LatencyBound, allowance int64) error {
	if latencyRank(after.Class) > latencyRank(before.Class) {
		return fmt.Errorf("latency grade worsened: %s -> %s", before.Class, after.Class)
	}
	limit := before.Bound
	if allowance > limit {
		limit = allowance
	}
	if after.Bound >= 0 && before.Bound >= 0 && after.Bound > limit {
		return fmt.Errorf("latency bound grew past budget: %d -> %d (limit %d)", before.Bound, after.Bound, limit)
	}
	return nil
}

// costGrid is the valuation grid for extensional work/span comparison:
// every unknown trip count uniformly set to each v, crossed with two τ
// values (serial-ish and promotion-heavy).
var costGrid = struct {
	trips []int64
	taus  []int64
}{trips: []int64{0, 1, 16, 1024}, taus: []int64{1, 64}}

// gridCache memoizes an expression's grid valuations by pointer — the
// prppt pass compares one baseline expression against every candidate,
// and the reports themselves are memoized by fingerprint, so repeats
// are the common case. A nil cache just evaluates.
type gridCache struct {
	m map[*analysis.Expr][]int64
}

func newGridCache() *gridCache { return &gridCache{m: make(map[*analysis.Expr][]int64)} }

func (g *gridCache) vals(e *analysis.Expr) []int64 {
	if g != nil {
		if v, ok := g.m[e]; ok {
			return v
		}
	}
	v := make([]int64, 0, len(costGrid.trips)*len(costGrid.taus))
	trips := make(map[tpal.Label]int64)
	for _, l := range e.Trips() {
		trips[l] = 0
	}
	for _, t := range costGrid.trips {
		for l := range trips {
			trips[l] = t
		}
		for _, tau := range costGrid.taus {
			v = append(v, e.Eval(trips, tau))
		}
	}
	if g != nil {
		g.m[e] = v
	}
	return v
}

func certifyCost(what string, before, after *analysis.Expr, g *gridCache) error {
	b, a := g.vals(before), g.vals(after)
	i := 0
	for _, v := range costGrid.trips {
		for _, tau := range costGrid.taus {
			if a[i] > b[i] {
				return fmt.Errorf("%s bound grew at trips=%d τ=%d: %d -> %d", what, v, tau, b[i], a[i])
			}
			i++
		}
	}
	return nil
}
