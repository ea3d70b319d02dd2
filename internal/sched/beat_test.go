package sched

import (
	"testing"

	"tpal/internal/trace"
)

// beatEveryPoll is a BeatSource firing on every poll with a fixed
// penalty.
type beatEveryPoll struct{ penalty int64 }

func (b beatEveryPoll) Poll(*Worker) (bool, int64) { return true, b.penalty }

// TestBeatSourcePathPaysPenalty pins the worker's side of delivery:
// every beat a BeatSource fires is counted and its penalty charged to
// PenaltyNanos.
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

// TestNoSourcePollsStayInline pins the heartbeat-off cost: a worker with
// no beat source never sees a beat, and its first poll parks the skip
// counter, so every later poll is SkipPoll's inlined decrement.
// Installing a source unparks it.
func TestNoSourcePollsStayInline(t *testing.T) {
	p := NewPool(1)
	w := p.Workers()[0]
	if w.PollHeartbeat() {
		t.Fatal("a worker with no beat source saw a beat")
	}
	for i := 0; i < 1000; i++ {
		if !w.SkipPoll() {
			t.Fatalf("poll %d after the first went out of line", i)
		}
	}
	if w.HeartbeatsSeen != 0 {
		t.Fatalf("HeartbeatsSeen = %d, want 0", w.HeartbeatsSeen)
	}
	w.SetBeatSource(beatEveryPoll{})
	if !w.PollHeartbeat() {
		t.Fatal("a parked skip outlived the installation of a source")
	}
}

// TestSetTracerRejectsTooFewLanes pins the lane contract at setup: every
// worker records on the lane of its id, so a tracer with fewer lanes
// than the pool has workers is refused before the run, not discovered
// at a worker's first event.
func TestSetTracerRejectsTooFewLanes(t *testing.T) {
	p := NewPool(2)
	p.SetTracer(nil)
	p.SetTracer(trace.New(2, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("SetTracer accepted a 1-lane tracer for 2 workers")
		}
	}()
	p.SetTracer(trace.New(1, 0))
}
