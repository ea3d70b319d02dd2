package analysis_test

import (
	"strings"
	"testing"

	"tpal/internal/tpal"
	"tpal/internal/tpal/analysis"
)

// wantTrip asserts the report graded a header with the given bound.
func wantTrip(t *testing.T, r *analysis.Report, h tpal.Label, want analysis.TripBound) {
	t.Helper()
	got, ok := r.Trips[h]
	if !ok {
		t.Fatalf("no trip bound for header %q; trips = %v", h, r.Trips)
	}
	if got != want {
		t.Errorf("trip(%s) = %+v (%s), want %+v (%s)", h, got, got, want, want)
	}
}

// TestTripExactCountdown infers the implicit-guard countdown loop of
// TestTinyLoopCost exactly: i starts at 3, the guard exits on i == 0,
// the stride runs after the guard, so the header enters 4 times.
func TestTripExactCountdown(t *testing.T) {
	r := analyzeProg(t, `
program p entry m
block m [.] {
  i := 3
  jump loop
}
block loop [.] {
  if-jump i, out
  i := i - 1
  jump loop
}
block out [.] {
  halt
}`, "i")
	if len(r.Diags) != 0 {
		t.Fatalf("unexpected diagnostics:\n%s", diagDump(r.Diags))
	}
	wantTrip(t, r, "loop", analysis.TripBound{Kind: analysis.TripExact, Lo: 4, Hi: 4})
	if got := r.NumWork.Trips(); len(got) != 0 {
		t.Errorf("NumWork still has trip leaves %v", got)
	}
	if got, want := r.NumWork.String(), "15"; got != want {
		t.Errorf("NumWork = %s, want %s", got, want)
	}
	if got, want := r.NumSpan.String(), "15"; got != want {
		t.Errorf("NumSpan = %s, want %s", got, want)
	}
	// The raw symbolic bounds stay untouched.
	if got, want := r.Work.String(), "trip(loop)*3 + 3"; got != want {
		t.Errorf("Work = %s, want %s", got, want)
	}
}

// TestTripExactCountUp infers an explicit-compare count-up loop where
// the taken branch continues and the fall-through exits.
func TestTripExactCountUp(t *testing.T) {
	r := analyzeProg(t, `
program p entry m
block m [.] {
  i := 0
  jump loop
}
block loop [.] {
  t := i < 10
  if-jump t, body
  jump out
}
block body [.] {
  i := i + 1
  jump loop
}
block out [.] {
  halt
}`)
	if len(r.Diags) != 0 {
		t.Fatalf("unexpected diagnostics:\n%s", diagDump(r.Diags))
	}
	wantTrip(t, r, "loop", analysis.TripBound{Kind: analysis.TripExact, Lo: 11, Hi: 11})
	if got := r.NumWork.Trips(); len(got) != 0 {
		t.Errorf("NumWork still has trip leaves %v", got)
	}
}

// TestTripSpinStrideBeforeGuard pins the stride-position shift: the
// decrement runs before the guard reads the register, so the compared
// value is already advanced and the header enters exactly 1000 times,
// not 1001.
func TestTripSpinStrideBeforeGuard(t *testing.T) {
	r := analyzeProg(t, `
program p entry m
block m [.] {
  spin := 1000
  jump wait
}
block wait [.] {
  spin := spin - 1
  if-jump spin, done
  jump wait
}
block done [.] {
  halt
}`)
	if len(r.Diags) != 0 {
		t.Fatalf("unexpected diagnostics:\n%s", diagDump(r.Diags))
	}
	wantTrip(t, r, "wait", analysis.TripBound{Kind: analysis.TripExact, Lo: 1000, Hi: 1000})
}

// TestTripDivergent rejects a loop with no exit at all (TP090, Error)
// and one whose guard provably never flips.
func TestTripDivergent(t *testing.T) {
	r := analyzeProg(t, `
program p entry m
block m [.] {
  x := 0
  jump loop
}
block loop [.] {
  x := x + 1
  jump loop
}`)
	wantCode(t, r.Diags, analysis.CodeTripDivergent)
	if !analysis.HasErrors(r.Diags) {
		t.Error("TP090 should be Error severity")
	}
	wantTrip(t, r, "loop", analysis.TripBound{Kind: analysis.TripDivergent})
}

// TestTripDivergentGuardNeverFlips: the loop has an exit edge, but the
// intervals prove the guard can never take it — the guard reads a
// loop-invariant register that provably never hits the exit value.
// (A moving counter would NOT qualify: the machine's arithmetic wraps,
// so `i := i + 1` against `i == 0` does terminate, eventually.)
func TestTripDivergentGuardNeverFlips(t *testing.T) {
	r := analyzeProg(t, `
program p entry m
block m [.] {
  n := 5
  jump loop
}
block loop [.] {
  t := n == 0
  if-jump t, out
  jump loop
}
block out [.] {
  halt
}`)
	wantCode(t, r.Diags, analysis.CodeTripDivergent)
	wantTrip(t, r, "loop", analysis.TripBound{Kind: analysis.TripDivergent})
}

// TestTripContradiction: the guard fails on the very first check, so
// the loop body never runs (TP092) and the header enters exactly once.
func TestTripContradiction(t *testing.T) {
	r := analyzeProg(t, `
program p entry m
block m [.] {
  i := 5
  jump loop
}
block loop [.] {
  t := i < 3
  if-jump t, body
  jump out
}
block body [.] {
  i := i + 1
  jump loop
}
block out [.] {
  halt
}`)
	wantCode(t, r.Diags, analysis.CodeTripContradiction)
	if analysis.HasErrors(r.Diags) {
		t.Fatalf("TP092 must stay a warning:\n%s", diagDump(r.Diags))
	}
	wantTrip(t, r, "loop", analysis.TripBound{Kind: analysis.TripExact, Lo: 1, Hi: 1})
}

// TestTripCeiling: a bound past DefaultTripCeiling warns (TP091) but
// still grades; the same loop at a small bound stays clean.
func TestTripCeiling(t *testing.T) {
	const src = `
program p entry m
block m [.] {
  i := 0
  jump loop
}
block loop [.] {
  t := i < BOUND
  if-jump t, body
  jump out
}
block body [.] {
  i := i + 1
  jump loop
}
block out [.] {
  halt
}`
	p := parseProg(t, strings.Replace(src, "BOUND", "5000000", 1))
	r := analysis.Analyze(p, analysis.Options{})
	wantCode(t, r.Diags, analysis.CodeTripCeiling)
	wantTrip(t, r, "loop", analysis.TripBound{Kind: analysis.TripExact, Lo: 5000001, Hi: 5000001})

	p = parseProg(t, strings.Replace(src, "BOUND", "5000", 1))
	r = analysis.Analyze(p, analysis.Options{})
	wantNoCode(t, r.Diags, analysis.CodeTripCeiling)
	wantTrip(t, r, "loop", analysis.TripBound{Kind: analysis.TripExact, Lo: 5001, Hi: 5001})
}

// TestTripUnknownRegisterBound: a bound from an entry register stays
// symbolic — no bound, no new diagnostics.
func TestTripUnknownRegisterBound(t *testing.T) {
	r := analyzeProg(t, `
program p entry m
block m [.] {
  i := 0
  jump loop
}
block loop [.] {
  t := i < n
  if-jump t, body
  jump out
}
block body [.] {
  i := i + 1
  jump loop
}
block out [.] {
  halt
}`, "n")
	if len(r.Diags) != 0 {
		t.Fatalf("unexpected diagnostics:\n%s", diagDump(r.Diags))
	}
	wantTrip(t, r, "loop", analysis.TripBound{Kind: analysis.TripUnknown})
	if got := r.NumWork.Trips(); len(got) != 1 || got[0] != "loop" {
		t.Errorf("NumWork trips = %v, want the unresolved [loop]", got)
	}
}

// TestTripNestedInterval: an inner loop reset per outer pass grades as
// an interval (the inner activation is guarded by the outer header's
// branch, so only the upper bound is certain), and the numeric work
// substitutes the product of both bounds.
func TestTripNestedInterval(t *testing.T) {
	r := analyzeProg(t, `
program p entry m
block m [.] {
  i := 0
  jump outer
}
block outer [.] {
  t := i < 5
  if-jump t, obody
  jump out
}
block obody [.] {
  j := 0
  jump inner
}
block inner [.] {
  u := j < 3
  if-jump u, ibody
  jump olatch
}
block ibody [.] {
  j := j + 1
  jump inner
}
block olatch [.] {
  i := i + 1
  jump outer
}
block out [.] {
  halt
}`)
	if len(r.Diags) != 0 {
		t.Fatalf("unexpected diagnostics:\n%s", diagDump(r.Diags))
	}
	wantTrip(t, r, "outer", analysis.TripBound{Kind: analysis.TripExact, Lo: 6, Hi: 6})
	wantTrip(t, r, "inner", analysis.TripBound{Kind: analysis.TripInterval, Lo: 0, Hi: 4})
	if got := r.NumWork.Trips(); len(got) != 0 {
		t.Errorf("NumWork still has trip leaves %v", got)
	}
}

// TestBranchFactsResolved: the interval analysis resolves a branch
// whose condition is pinned by the entry constants.
func TestBranchFactsResolved(t *testing.T) {
	r := analyzeProg(t, `
program p entry m
block m [.] {
  x := 7
  t := x < 10
  if-jump t, yes
  jump no
}
block yes [.] {
  halt
}
block no [.] {
  halt
}`)
	found := false
	for _, f := range r.Branches {
		if f.Block == "m" && f.Fate == analysis.BranchAlwaysTaken {
			found = true
		}
	}
	if !found {
		t.Errorf("no always-taken fact for block m; branches = %+v", r.Branches)
	}
}

// TestTripsCorpusUnknownStaysClean: the corpus programs have
// register-dependent trip counts; phase 7 must grade them unknown
// without inventing diagnostics (TestCorpusVerifiesClean double-covers
// the zero-diagnostic side).
func TestTripsCorpusUnknownStaysClean(t *testing.T) {
	r := analyzeProg(t, `
program p entry m
block m [.] {
  jump loop
}
block loop [.] {
  if-jump n, out
  n := n - 1
  jump loop
}
block out [.] {
  halt
}`, "n")
	if len(r.Diags) != 0 {
		t.Fatalf("unexpected diagnostics:\n%s", diagDump(r.Diags))
	}
	wantTrip(t, r, "loop", analysis.TripBound{Kind: analysis.TripUnknown})
}
