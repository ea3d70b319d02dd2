package heartbeat

import (
	"testing"

	"tpal/internal/interrupt"
)

// forkNode is a knapsack-shaped search node: a few words passed by
// value, almost no work per call, two children until the depth runs out.
type forkNode struct {
	leaves *int64
	depth  int
	a, b   int64
}

func (n forkNode) children() (forkNode, forkNode) {
	l := forkNode{leaves: n.leaves, depth: n.depth - 1, a: n.a + n.b, b: n.b}
	r := forkNode{leaves: n.leaves, depth: n.depth - 1, a: n.a, b: n.b + 1}
	return l, r
}

func plainTree(n forkNode) {
	if n.depth == 0 {
		*n.leaves += n.a & 1
		return
	}
	l, r := n.children()
	plainTree(l)
	plainTree(r)
}

func forkTree(c *Ctx, n forkNode) {
	if n.depth == 0 {
		*n.leaves += n.a & 1
		return
	}
	l, r := n.children()
	Fork2Call(c, forkTree, l, r)
}

// BenchmarkForkCallSerial names the per-fork cost of the serial path:
// a full binary tree of 18 levels walked by plain recursion
// and by Fork2Call on one worker, with no mechanism attached (marks
// only) and with the virtual ping thread (marks plus the poll, beats
// consumed but not promoted, so the tree stays on one task). The
// ns/fork metric is per interior node; heartbeat/plain is the
// one-worker overhead a recursion-only kernel such as knapsack sees.
func BenchmarkForkCallSerial(b *testing.B) {
	const depth = 18
	const forks = 1<<depth - 1
	var leaves int64
	root := forkNode{leaves: &leaves, depth: depth, b: 1}
	report := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/forks, "ns/fork")
	}
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			plainTree(root)
		}
		report(b)
	})
	for _, m := range []struct {
		name string
		mech func() interrupt.Mechanism // a mechanism serves one Run
	}{
		{"marks", func() interrupt.Mechanism { return nil }},
		{"marks+poll", interrupt.NewPingThread},
	} {
		b.Run(m.name, func(b *testing.B) {
			Run(Config{Workers: 1, Mechanism: m.mech(), DisablePromotion: true}, func(c *Ctx) {
				forkTree(c, root) // warm the frame stack
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					forkTree(c, root)
				}
				report(b)
			})
		})
	}
}
