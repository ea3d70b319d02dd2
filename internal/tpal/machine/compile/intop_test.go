package compile

import (
	"math"
	"testing"

	"tpal/internal/tpal"
	"tpal/internal/tpal/machine"
)

// TestIntOpMatchesEval holds the compiled lowering's per-op closures to
// tpal.Op.Eval, the one definition of TPAL integer semantics, on every
// operator (and one unknown) crossed with the edge values of int64.
func TestIntOpMatchesEval(t *testing.T) {
	vals := []int64{math.MinInt64, math.MinInt64 + 1, -64, -7, -1, 0, 1, 2, 7, 63, 64, 65, math.MaxInt64}
	for op := tpal.OpAdd; op <= tpal.OpShr+1; op++ {
		f := intOpFor(op)
		for _, x := range vals {
			for _, y := range vals {
				want, wantOK := op.Eval(x, y)
				got, ok := f(x, y)
				if ok != wantOK || (ok && got != machine.IntV(want)) {
					t.Errorf("intOpFor(%s)(%d, %d) = %v, %v; Eval gives %d, %v", op, x, y, got, ok, want, wantOK)
				}
			}
		}
	}
}
