package sched

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestJoinDoneKeepsMaxSpan retires one join from eight goroutines, each
// with a distinct final span and some after a delay: Wait must return
// only once every one has called Done, and leave the waiting task's
// span at least the largest of theirs, whatever order they finished in.
func TestJoinDoneKeepsMaxSpan(t *testing.T) {
	const n = 8
	var s Span
	var j Join
	var retired atomic.Int64
	var largest int64
	NewPool(1).Run(func(w *Worker) {
		s.Begin(0, nil)
		j.Add(n)
		for i := range n {
			span := int64((i*5)%n+1) * int64(time.Hour)
			largest = max(largest, span)
			go func() {
				time.Sleep(time.Duration(i) * time.Millisecond)
				retired.Add(1)
				j.Done(span)
			}()
		}
		w.Wait(&s, &j)
	})
	if got := j.pending.Load(); got != 0 {
		t.Fatalf("Wait returned with %d tasks pending", got)
	}
	if got := retired.Load(); got != n {
		t.Fatalf("Wait returned after %d of %d Done calls", got, n)
	}
	if got := s.Now(); got < largest {
		t.Fatalf("span after the join = %d, want at least the largest child span %d", got, largest)
	}
}

// TestSpanRebaseClampsFloor raises a task's floor far above its own
// timeline through a join, then rebases it below the floor: Now must
// read the rebased value, not the floor.
func TestSpanRebaseClampsFloor(t *testing.T) {
	const floor = int64(time.Hour)
	const v = int64(time.Millisecond)
	const slack = int64(time.Second) // scheduling noise between Rebase and Now
	var s Span
	var before, after int64
	NewPool(1).Run(func(w *Worker) {
		s.Begin(0, nil)
		var j Join
		j.Add(1)
		j.Done(floor)
		w.Wait(&s, &j)
		before = s.Now()
		s.Rebase(v)
		after = s.Now()
	})
	if before < floor {
		t.Fatalf("span after the join = %d, want at least the floor %d", before, floor)
	}
	if after < v || after > v+slack {
		t.Fatalf("span after Rebase(%d) = %d, want %d within %d", v, after, v, slack)
	}
}

// TestFinishRecordsSelfWork checks Finish's two results against the
// worker's work counter: the self time it returns is what it adds, and
// the span of a root task with no joins is that self time.
func TestFinishRecordsSelfWork(t *testing.T) {
	p := NewPool(1)
	var self, span int64
	p.Run(func(w *Worker) {
		var s Span
		s.Begin(0, nil)
		spinFor(int64(time.Millisecond))
		self, span = w.Finish(&s)
	})
	if self < int64(time.Millisecond) || span != self {
		t.Fatalf("Finish = (%d, %d), want self ≥ 1ms and span == self", self, span)
	}
	if got := p.Stats().SelfWorkNanos; got != self {
		t.Fatalf("SelfWorkNanos = %d, want %d", got, self)
	}
}
