package sched

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestTakeHeartbeatPaysPenaltyExactlyOnce pins the Swap-based mailbox
// consume against the double-pay race: a RaiseHeartbeat landing between
// the flag consume and the penalty read must have its penalty paid
// exactly once, by whichever take swaps it out. With the pre-fix code
// (Store(0) on the flag, then Load() of the penalty) the second take
// re-reads and re-pays the same penalty, so this test fails there.
func TestTakeHeartbeatPaysPenaltyExactlyOnce(t *testing.T) {
	p := NewPool(1)
	w := p.Workers()[0]

	// First beat pending with penalty 5; mid-take, a concurrent raise
	// replaces it with penalty 7 (the seam runs between the flag consume
	// and the penalty read, the exact window of the race).
	w.RaiseHeartbeat(5)
	takeSeam = func(w *Worker) { w.RaiseHeartbeat(7) }
	defer func() { takeSeam = nil }()

	if !w.PollHeartbeat() {
		t.Fatal("first poll should observe the pending beat")
	}
	takeSeam = nil

	// The re-raised flag is still up: the second take must find the
	// penalty already consumed (swapped to zero) and pay nothing more.
	if !w.PollHeartbeat() {
		t.Fatal("second poll should observe the re-raised beat")
	}

	if w.HeartbeatsSeen != 2 {
		t.Fatalf("HeartbeatsSeen = %d, want 2", w.HeartbeatsSeen)
	}
	if w.PenaltyNanos != 7 {
		t.Fatalf("PenaltyNanos = %d, want 7 (penalty paid twice?)", w.PenaltyNanos)
	}
}

// beatEveryPoll is a BeatSource firing on every poll with a fixed
// penalty.
type beatEveryPoll struct{ penalty int64 }

func (b beatEveryPoll) Poll(*Worker) (bool, int64) { return true, b.penalty }

// TestBeatSourcePathPaysPenalty pins the consume-and-pay unification:
// beats delivered through a BeatSource must charge PenaltyNanos through
// the same path as mailbox beats. Pre-fix, the BeatSource branch bumped
// HeartbeatsSeen without ever paying, so this test fails there.
func TestBeatSourcePathPaysPenalty(t *testing.T) {
	p := NewPool(1)
	w := p.Workers()[0]
	w.SetBeatSource(beatEveryPoll{penalty: 3})

	for i := 0; i < 4; i++ {
		if !w.PollHeartbeat() {
			t.Fatalf("poll %d: beat source fires every poll", i)
		}
	}
	if w.HeartbeatsSeen != 4 {
		t.Fatalf("HeartbeatsSeen = %d, want 4", w.HeartbeatsSeen)
	}
	if w.PenaltyNanos != 12 {
		t.Fatalf("PenaltyNanos = %d, want 12 (3 per beat)", w.PenaltyNanos)
	}
}

// skipThree fires at every poll it sees and asks for the next three to
// be skipped.
type skipThree struct{ consulted int }

func (s *skipThree) Poll(w *Worker) (bool, int64) {
	s.consulted++
	w.SetPollSkip(3)
	return true, 0
}

// TestSetPollSkipCountsOffPolls pins the skip a beat source arms: exactly
// that many polls return false without reaching the source, the next
// one reaches it, and replacing the source disarms the skip.
func TestSetPollSkipCountsOffPolls(t *testing.T) {
	p := NewPool(1)
	w := p.Workers()[0]
	src := &skipThree{}
	w.SetBeatSource(src)
	for i := 0; i < 9; i++ {
		if fired, want := w.PollHeartbeat(), i%4 == 0; fired != want {
			t.Fatalf("poll %d: fired = %v, want %v", i, fired, want)
		}
	}
	if src.consulted != 3 || w.HeartbeatsSeen != 3 {
		t.Fatalf("source consulted %d times, %d beats seen; want 3 and 3", src.consulted, w.HeartbeatsSeen)
	}
	// Poll 8 fired and armed a skip of three; a new source starts clean.
	w.SetBeatSource(beatEveryPoll{})
	if !w.PollHeartbeat() {
		t.Fatal("a skip armed by the previous source outlived it")
	}
}

// TestMailboxRaceStress hammers the raise/take pair from concurrent
// goroutines under the race detector: one raiser, one owner polling.
// Invariants: the owner observes at least one beat, pays no more than
// the raiser offered, and the detector sees no data race on the mailbox.
func TestMailboxRaceStress(t *testing.T) {
	p := NewPool(1)
	w := p.Workers()[0]

	const raises = 2000
	var wg sync.WaitGroup
	var stop atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < raises; i++ {
			w.RaiseHeartbeat(1)
		}
		stop.Store(true)
	}()

	for !stop.Load() {
		w.PollHeartbeat()
	}
	// Drain any beat raised after the last poll.
	w.PollHeartbeat()
	wg.Wait()

	if w.HeartbeatsSeen == 0 {
		t.Fatal("owner never observed a beat")
	}
	if w.HeartbeatsSeen > raises {
		t.Fatalf("HeartbeatsSeen = %d > %d raises", w.HeartbeatsSeen, raises)
	}
	// Each raise offers penalty 1 and each beat's penalty is paid at
	// most once, so total paid can never exceed total raised.
	if w.PenaltyNanos > raises {
		t.Fatalf("PenaltyNanos = %d > %d offered", w.PenaltyNanos, raises)
	}
}
