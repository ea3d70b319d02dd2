package sched

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

type intTask int64

func (intTask) Run(*Worker) {}

func TestDequeLIFOOwner(t *testing.T) {
	d := NewDeque()
	for i := 0; i < 100; i++ {
		d.PushBottom(intTask(i))
	}
	for i := 99; i >= 0; i-- {
		got := d.PopBottom()
		if got == nil {
			t.Fatalf("pop %d: empty", i)
		}
		if int(got.(intTask)) != i {
			t.Fatalf("pop got %v, want %d", got, i)
		}
	}
	if d.PopBottom() != nil {
		t.Fatal("expected empty deque")
	}
}

func TestDequeFIFOThief(t *testing.T) {
	d := NewDeque()
	for i := 0; i < 100; i++ {
		d.PushBottom(intTask(i))
	}
	for i := 0; i < 100; i++ {
		got := d.Steal()
		if got == nil {
			t.Fatalf("steal %d: empty", i)
		}
		if int(got.(intTask)) != i {
			t.Fatalf("steal got %v, want %d", got, i)
		}
	}
	if d.Steal() != nil {
		t.Fatal("expected empty deque")
	}
}

func TestDequeGrowth(t *testing.T) {
	d := NewDeque()
	const n = 10_000 // forces several ring growths from the initial 64
	for i := 0; i < n; i++ {
		d.PushBottom(intTask(i))
	}
	if got := d.Size(); got != n {
		t.Fatalf("size = %d, want %d", got, n)
	}
	for i := n - 1; i >= 0; i-- {
		got := d.PopBottom()
		if got == nil || int(got.(intTask)) != i {
			t.Fatalf("pop got %v, want %d", got, i)
		}
	}
}

func TestDequeInterleavedOwnerOps(t *testing.T) {
	d := NewDeque()
	rng := rand.New(rand.NewSource(7))
	var model []int64
	next := int64(0)
	for step := 0; step < 100_000; step++ {
		if rng.Intn(2) == 0 || len(model) == 0 {
			d.PushBottom(intTask(next))
			model = append(model, next)
			next++
		} else {
			got := d.PopBottom()
			want := model[len(model)-1]
			model = model[:len(model)-1]
			if got == nil || int64(got.(intTask)) != want {
				t.Fatalf("step %d: pop got %v, want %d", step, got, want)
			}
		}
	}
}

// TestDequeConcurrentExactlyOnce hammers one deque with an owner and
// several thieves and checks every pushed task is taken exactly once.
func TestDequeConcurrentExactlyOnce(t *testing.T) {
	const (
		n       = 200_000
		thieves = 4
	)
	d := NewDeque()
	taken := make([]atomic.Int32, n)
	var got atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if task := d.Steal(); task != nil {
					idx := int(task.(intTask))
					if taken[idx].Add(1) != 1 {
						t.Errorf("task %d taken more than once", idx)
						return
					}
					got.Add(1)
				}
				select {
				case <-stop:
					// Drain what remains, then quit.
					for {
						task := d.Steal()
						if task == nil {
							return
						}
						idx := int(task.(intTask))
						if taken[idx].Add(1) != 1 {
							t.Errorf("task %d taken more than once", idx)
							return
						}
						got.Add(1)
					}
				default:
				}
			}
		}()
	}

	// Owner: pushes all tasks, popping some along the way.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		d.PushBottom(intTask(i))
		if rng.Intn(3) == 0 {
			if task := d.PopBottom(); task != nil {
				idx := int(task.(intTask))
				if taken[idx].Add(1) != 1 {
					t.Fatalf("task %d taken more than once (owner)", idx)
				}
				got.Add(1)
			}
		}
	}
	// Owner drains its own side too.
	for {
		task := d.PopBottom()
		if task == nil {
			break
		}
		idx := int(task.(intTask))
		if taken[idx].Add(1) != 1 {
			t.Fatalf("task %d taken more than once (owner drain)", idx)
		}
		got.Add(1)
	}
	close(stop)
	wg.Wait()

	// Anything left after both drains (races can leave the last task to
	// either side) — the deque must now be empty and all tasks taken.
	if task := d.Steal(); task != nil {
		idx := int(task.(intTask))
		if taken[idx].Add(1) != 1 {
			t.Fatalf("task %d taken more than once (final)", idx)
		}
		got.Add(1)
	}
	if got.Load() != n {
		t.Fatalf("took %d tasks, want %d", got.Load(), n)
	}
}

func TestPoolRunsRootToCompletion(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		p := NewPool(workers)
		var ran atomic.Bool
		p.Run(func(w *Worker) {
			ran.Store(true)
		})
		if !ran.Load() {
			t.Fatalf("workers=%d: root did not run", workers)
		}
		if p.Elapsed() <= 0 {
			t.Fatalf("workers=%d: elapsed not recorded", workers)
		}
	}
}

func TestPoolFanOut(t *testing.T) {
	p := NewPool(4)
	const n = 1000
	var count atomic.Int64
	p.Run(func(w *Worker) {
		var pending atomic.Int64
		pending.Store(n)
		for i := 0; i < n; i++ {
			w.Deque().PushBottom(TaskFunc(func(w2 *Worker) {
				count.Add(1)
				pending.Add(-1)
			}))
		}
		w.WaitJoin(&pending)
	})
	if count.Load() != n {
		t.Fatalf("executed %d tasks, want %d", count.Load(), n)
	}
	s := p.Stats()
	if s.TasksExecuted < n {
		t.Fatalf("stats report %d executions, want >= %d", s.TasksExecuted, n)
	}
}

func TestStatsUtilizationBounds(t *testing.T) {
	p := NewPool(2)
	p.Run(func(w *Worker) {
		x := 0.0
		for i := 0; i < 1_000_000; i++ {
			x += float64(i)
		}
		_ = x
	})
	u := p.Stats().Utilization()
	if u < 0 || u > 1 {
		t.Fatalf("utilization %f out of [0,1]", u)
	}
}

func TestPushBottomBox(t *testing.T) {
	d := NewDeque()
	boxes := make([]Box, 10)
	for i := range boxes {
		boxes[i].Bind(intTask(i))
		d.PushBottomBox(&boxes[i])
	}
	for i := 9; i >= 0; i-- {
		got := d.PopBottom()
		if got == nil || int(got.(intTask)) != i {
			t.Fatalf("pop got %v, want %d", got, i)
		}
	}
}

func TestWaitJoinHelpsWithOwnTasks(t *testing.T) {
	// A single worker waiting on a join must drain its own deque to make
	// progress (help-first join).
	p := NewPool(1)
	p.Run(func(w *Worker) {
		var pending atomic.Int64
		pending.Store(3)
		for i := 0; i < 3; i++ {
			w.Deque().PushBottom(TaskFunc(func(*Worker) { pending.Add(-1) }))
		}
		w.WaitJoin(&pending)
		if pending.Load() != 0 {
			t.Error("join left pending tasks")
		}
	})
}

func TestMultiWorkerStress(t *testing.T) {
	// Fan out a two-level task tree across 4 workers and count leaves.
	const fanout = 64
	p := NewPool(4)
	var leaves atomic.Int64
	p.Run(func(w *Worker) {
		var outer atomic.Int64
		outer.Store(fanout)
		for i := 0; i < fanout; i++ {
			w.Deque().PushBottom(TaskFunc(func(w2 *Worker) {
				var inner atomic.Int64
				inner.Store(fanout)
				for j := 0; j < fanout; j++ {
					w2.Deque().PushBottom(TaskFunc(func(*Worker) {
						leaves.Add(1)
						inner.Add(-1)
					}))
				}
				w2.WaitJoin(&inner)
				outer.Add(-1)
			}))
		}
		w.WaitJoin(&outer)
	})
	if leaves.Load() != fanout*fanout {
		t.Fatalf("leaves = %d, want %d", leaves.Load(), fanout*fanout)
	}
	st := p.Stats()
	if st.TasksExecuted < fanout {
		t.Fatalf("TasksExecuted = %d", st.TasksExecuted)
	}
}

func TestSelfWorkAccounting(t *testing.T) {
	p := NewPool(1)
	p.Run(func(w *Worker) {
		w.SelfWorkNanos += 12345
	})
	if got := p.Stats().SelfWorkNanos; got != 12345 {
		t.Fatalf("SelfWorkNanos = %d", got)
	}
}
