package cilk

import "testing"

// spawnNode is a knapsack-shaped search node, as in the heartbeat
// package's BenchmarkForkCallSerial: a few words passed by value, almost
// no work per call, two children until the depth runs out.
type spawnNode struct {
	leaves *int64
	depth  int
	a, b   int64
}

func (n spawnNode) children() (spawnNode, spawnNode) {
	l := spawnNode{leaves: n.leaves, depth: n.depth - 1, a: n.a + n.b, b: n.b}
	r := spawnNode{leaves: n.leaves, depth: n.depth - 1, a: n.a, b: n.b + 1}
	return l, r
}

func spawnTree(c *Ctx, n spawnNode) {
	if n.depth == 0 {
		*n.leaves += n.a & 1
		return
	}
	l, r := n.children()
	c.Spawn2(func(cc *Ctx) { spawnTree(cc, l) }, func(cc *Ctx) { spawnTree(cc, r) })
}

func spawnCallTree(c *Ctx, n spawnNode) {
	if n.depth == 0 {
		*n.leaves += n.a & 1
		return
	}
	l, r := n.children()
	Spawn2Call(c, spawnCallTree, l, r)
}

// BenchmarkSpawn2Serial names the per-spawn cost of the eager path no
// thief interrupts: a full binary tree of 16 levels walked on one
// worker with a closure pair per node (Spawn2) and with one static
// function and two arguments (Spawn2Call). Every interior node is one
// spawn — a task allocation, a deque push and pop, and the span
// bookkeeping's clock reads — so ns/spawn is what one-worker Cilk pays
// per task, the Figure 6 overhead.
func BenchmarkSpawn2Serial(b *testing.B) {
	const depth = 16
	const spawns = 1<<depth - 1
	var leaves int64
	root := spawnNode{leaves: &leaves, depth: depth, b: 1}
	for _, v := range []struct {
		name string
		tree func(*Ctx, spawnNode)
	}{
		{"Spawn2", spawnTree},
		{"Spawn2Call", spawnCallTree},
	} {
		b.Run(v.name, func(b *testing.B) {
			Run(Config{Workers: 1}, func(c *Ctx) {
				v.tree(c, root) // warm the deque and the allocator
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					v.tree(c, root)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/spawns, "ns/spawn")
			})
		})
	}
}
