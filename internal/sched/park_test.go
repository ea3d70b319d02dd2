package sched

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestParkWakeLosesNoWakeup drives 10k spawn/park cycles on two
// workers. The root never helps — it yields until the task it spawned
// has run — so only the other worker can run it, and that worker is
// parked, or about to be, at every spawn: the root gives it time to run
// out of sweeps first. One wake-up lost between "announce, look again"
// and "push, check for parkers" and the pool hangs.
func TestParkWakeLosesNoWakeup(t *testing.T) {
	const cycles = 10_000
	p := NewPool(2)
	var ran, sawParked atomic.Int64
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		p.Run(func(w *Worker) {
			task := TaskFunc(func(*Worker) { ran.Add(1) })
			for i := int64(0); i < cycles; i++ {
				for t0 := time.Now(); p.parked.Load() == 0 && time.Since(t0) < 5*time.Millisecond; {
					runtime.Gosched()
				}
				if p.parked.Load() > 0 {
					sawParked.Add(1)
				}
				b := &Box{}
				b.Bind(task)
				w.Spawn(b)
				for ran.Load() <= i {
					runtime.Gosched()
				}
			}
		})
	}()
	select {
	case <-finished:
	case <-time.After(2 * time.Minute):
		t.Fatalf("pool hung after %d of %d cycles with %d worker(s) parked", ran.Load(), cycles, p.parked.Load())
	}
	// The root itself may have been stolen, which is one steal more.
	if st := p.Stats(); st.Steals < cycles || st.TasksCreated != cycles {
		t.Fatalf("steals = %d, tasks created = %d, want %d of each", st.Steals, st.TasksCreated, cycles)
	}
	if n := sawParked.Load(); n < cycles/2 {
		t.Fatalf("only %d of %d spawns found the other worker parked: the test is not exercising the wake", n, cycles)
	}
}

// TestIdlePoolTerminates ends a run while every other worker is parked:
// finish must wake them all.
func TestIdlePoolTerminates(t *testing.T) {
	for i := 0; i < 50; i++ {
		p := NewPool(4)
		finished := make(chan struct{})
		go func() {
			defer close(finished)
			p.Run(func(*Worker) {
				for spins := 0; p.parked.Load() < 3 && spins < 10_000; spins++ {
					runtime.Gosched()
				}
			})
		}()
		select {
		case <-finished:
		case <-time.After(time.Minute):
			t.Fatalf("run %d: pool did not terminate with %d workers parked", i, p.parked.Load())
		}
	}
}
