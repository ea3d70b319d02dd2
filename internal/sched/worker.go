package sched

import (
	"sync/atomic"
	"time"

	"tpal/internal/trace"
)

// Worker is one scheduling thread of a Pool. Workers own a deque, a
// heartbeat mailbox written by an interrupt mechanism, and accounting
// counters.
//
// The heartbeat mailbox is the runtime analogue of the paper's signal
// delivery: an interrupt mechanism (internal/interrupt) raises the flag,
// and the running task observes it at the next promotion-ready program
// point (a poll site emitted in the compiled loop). The mailbox also
// carries a simulated interrupt-handler cost that the worker pays when
// it observes the flag, modeling the receive-side overhead of a Linux
// signal, a PAPI overflow interrupt, or a Nautilus IPI.
type Worker struct {
	id    int
	pool  *Pool
	deque *Deque
	rng   uint64

	// pollSkip is the number of upcoming PollHeartbeat calls that return
	// false without looking at the beat source: the source sets it (see
	// SetPollSkip) so that a dense poller pays a decrement, not an
	// interface call and a clock read, at most program points.
	pollSkip int32

	hbFlag     atomic.Uint32
	hbPenalty  atomic.Int64 // simulated handler cost, nanoseconds
	beatSource BeatSource   // virtual-clock delivery model, owner-polled
	_pad       [32]byte     // keep hot heartbeat state off neighbors' lines

	// Accounting (owner-written; read after the pool stops).
	TasksExecuted  int64 // tasks run from deques (own or stolen)
	Steals         int64 // successful steals
	FailedSteals   int64
	HeartbeatsSeen int64 // heartbeat flags observed at poll sites
	PenaltyNanos   int64 // simulated handler time paid
	BusyNanos      int64 // wall time inside top-level task execution
	JoinIdleNanos  int64 // time spent in joins with nothing to help with
	SelfWorkNanos  int64 // task wall time net of join waits (cost-model work)

	execDepth int // nesting of execute (helping in joins re-enters)
	busyStart time.Time

	// tracer records typed events for this worker's lane; nil (the
	// default) disables tracing — every hook below is a branch-on-nil.
	tracer *trace.Tracer
	// stealIdle marks that the previous steal sweep failed, so further
	// failures of the same idle stretch are not re-recorded.
	stealIdle bool

	// Scratch belongs to the runtime layered on the pool, which keeps
	// per-worker reusable state here (the heartbeat runtime its free
	// list of task contexts). Owner-goroutine only.
	Scratch any
}

// ID returns the worker's index within its pool.
func (w *Worker) ID() int { return w.id }

// Pool returns the owning pool.
func (w *Worker) Pool() *Pool { return w.pool }

// Deque returns the worker's deque.
func (w *Worker) Deque() *Deque { return w.deque }

// Tracer returns the worker's event tracer (nil when tracing is off).
func (w *Worker) Tracer() *trace.Tracer { return w.tracer }

// Trace records an event on this worker's trace lane. A no-op when no
// tracer is installed. Owner-goroutine only.
func (w *Worker) Trace(k trace.Kind, a, b int64) {
	w.tracer.Record(w.id, k, a, b)
}

// BeatSource is a poll-driven heartbeat delivery model: the worker asks
// it at every promotion-ready program point whether a beat fires and
// what the beat's receive-side handler cost is. Only the owning worker
// calls Poll, so implementations need no internal synchronization for
// per-worker state. The worker — not the source — pays the returned
// penalty, through the same consume-and-pay path as mailbox-delivered
// beats, so PenaltyNanos accounting is uniform across mechanisms.
type BeatSource interface {
	Poll(w *Worker) (fired bool, penaltyNanos int64)
}

// SetBeatSource installs (or, with nil, removes) a poll-driven delivery
// model. Interrupt mechanisms call this at Start/Stop.
func (w *Worker) SetBeatSource(s BeatSource) {
	w.beatSource = s
	w.pollSkip = 0
}

// SetPollSkip makes the next n PollHeartbeat calls return false without
// consulting the beat source. A source calls it from Poll when it knows
// no beat can be worth detecting sooner — the virtual clock does, to
// space its clock reads a few microseconds apart whatever the poll
// density. Every skipped poll is detection latency, so the source owns
// the bound. Owner-goroutine only.
func (w *Worker) SetPollSkip(n int32) { w.pollSkip = n }

// AddPenalty records simulated interrupt-handler time paid by this
// worker. Owner-goroutine only.
func (w *Worker) AddPenalty(nanos int64) { w.PenaltyNanos += nanos }

// AddSelfWork records a completed task's self time (wall time minus time
// spent waiting at joins), the T₁ contribution used by the at-scale
// performance model. Owner-goroutine only.
func (w *Worker) AddSelfWork(nanos int64) { w.SelfWorkNanos += nanos }

// SkipPoll reports whether this poll is one the beat source asked to
// skip, counting it off. It is the whole cost of a promotion-ready
// program point between clock reads, and small enough to inline into
// every poll site ahead of the out-of-line PollHeartbeat.
func (w *Worker) SkipPoll() bool {
	if w.pollSkip > 0 {
		w.pollSkip--
		return true
	}
	return false
}

// PollHeartbeat is the promotion-ready program point's check: unless
// the beat source asked for this poll to be skipped, it consults the
// source if one is installed, else takes the heartbeat flag a
// thread-driven mechanism raised. It returns whether a beat fired,
// having already paid the receive-side cost: both delivery paths route
// through the same consume-and-pay helper, so HeartbeatsSeen and
// PenaltyNanos stay consistent whichever mechanism delivered the beat.
func (w *Worker) PollHeartbeat() bool {
	if w.SkipPoll() {
		return false
	}
	if s := w.beatSource; s != nil {
		fired, penalty := s.Poll(w)
		if !fired {
			return false
		}
		w.consumeBeat(penalty)
		return true
	}
	if w.hbFlag.Load() == 0 {
		return false
	}
	return w.TakeHeartbeat()
}

// RaiseHeartbeat sets the worker's heartbeat flag; the running task
// observes it at its next poll site. penaltyNanos is the simulated
// receive-side interrupt-handling cost the worker will pay on
// observation. Safe to call from any goroutine.
func (w *Worker) RaiseHeartbeat(penaltyNanos int64) {
	w.hbPenalty.Store(penaltyNanos)
	w.hbFlag.Store(1)
	w.tracer.RecordExternal(trace.EvBeatRaise, int64(w.id), penaltyNanos)
}

// HeartbeatPending reports whether a heartbeat is waiting, without
// consuming it. This is the fast path: one atomic load.
func (w *Worker) HeartbeatPending() bool {
	return w.hbFlag.Load() != 0
}

// takeSeam, when non-nil, runs between the flag consume and the penalty
// read inside TakeHeartbeat. Tests use it to pin the exact interleaving
// of a concurrent RaiseHeartbeat against an in-flight take; it is nil
// outside tests.
var takeSeam func(*Worker)

// TakeHeartbeat consumes a pending heartbeat, paying the simulated
// handler cost, and reports whether one was pending. Both the flag and
// the penalty are consumed with Swap so that a RaiseHeartbeat racing
// with an in-flight take can never have its penalty paid twice: whoever
// swaps the penalty out pays it, exactly once, and a later take of the
// re-raised flag finds zero.
func (w *Worker) TakeHeartbeat() bool {
	if w.hbFlag.Swap(0) == 0 {
		return false
	}
	if takeSeam != nil {
		takeSeam(w)
	}
	w.consumeBeat(w.hbPenalty.Swap(0))
	return true
}

// consumeBeat is the single consume-and-pay path for an observed
// heartbeat, whatever mechanism delivered it: it counts the beat, pays
// the receive-side handler cost (accounted and busy-waited, as a signal
// handler's time would be), and records the trace events.
// Owner-goroutine only.
func (w *Worker) consumeBeat(penaltyNanos int64) {
	w.HeartbeatsSeen++
	w.Trace(trace.EvBeatObserve, penaltyNanos, 0)
	if penaltyNanos > 0 {
		w.PenaltyNanos += penaltyNanos
		spinFor(penaltyNanos)
		w.Trace(trace.EvBeatPenalty, penaltyNanos, 0)
	}
}

// spinFor busy-waits for approximately d nanoseconds, simulating work
// performed inside an interrupt handler.
func spinFor(d int64) {
	start := time.Now()
	for time.Since(start).Nanoseconds() < d {
	}
}

// nextRand is a xorshift64 step for victim selection.
func (w *Worker) nextRand() uint64 {
	x := w.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	w.rng = x
	return x
}

// Execute runs a task, maintaining busy-time accounting at the outermost
// nesting level only (helping inside joins re-enters Execute).
func (w *Worker) Execute(t Task) {
	if w.execDepth == 0 {
		w.busyStart = time.Now()
	}
	w.execDepth++
	w.TasksExecuted++
	w.Trace(trace.EvTaskStart, int64(w.execDepth), 0)
	t.Run(w)
	w.Trace(trace.EvTaskEnd, int64(w.execDepth), 0)
	w.execDepth--
	if w.execDepth == 0 {
		w.BusyNanos += time.Since(w.busyStart).Nanoseconds()
	}
}

// Spawn publishes a task this worker created: it counts it, pushes its
// box at the bottom of the worker's deque, where idle workers steal it,
// and wakes a parked worker if there is one — an atomic load when there
// is none. Owner-goroutine only; the box must be bound to its task.
func (w *Worker) Spawn(b *Box) {
	p := w.pool
	p.tasksCreated.Add(1)
	w.deque.PushBottomBox(b)
	if p.parked.Load() > 0 {
		p.wakeOne()
	}
}

// PopOrSteal fetches work: the worker's own bottom first, then random
// victims. Returns nil when nothing was found in one sweep.
func (w *Worker) PopOrSteal() Task {
	if t := w.deque.PopBottom(); t != nil {
		w.stealIdle = false
		return t
	}
	return w.trySteal()
}

func (w *Worker) trySteal() Task {
	n := len(w.pool.workers)
	if n <= 1 {
		return nil
	}
	// One randomized sweep over the other workers.
	offset := int(w.nextRand() % uint64(n))
	for i := 0; i < n; i++ {
		v := w.pool.workers[(offset+i)%n]
		if v == w {
			continue
		}
		if t := v.deque.Steal(); t != nil {
			w.Steals++
			w.stealIdle = false
			w.Trace(trace.EvSteal, int64(v.id), 0)
			return t
		}
	}
	w.FailedSteals++
	if !w.stealIdle {
		// First failed sweep of an idle stretch: record once, not per
		// spin, so an idle worker cannot flood its own ring.
		w.stealIdle = true
		w.Trace(trace.EvStealFail, int64(n-1), 0)
	}
	return nil
}

// WaitJoin participates in scheduling until the counter reaches zero:
// the classic help-first join. Time spent finding no work is recorded
// as join idle time so that utilization reflects useful work only.
func (w *Worker) WaitJoin(pending *atomic.Int64) {
	var idleStart time.Time
	idling := false
	w.Trace(trace.EvJoinBegin, 0, 0)
	for pending.Load() > 0 {
		if t := w.PopOrSteal(); t != nil {
			if idling {
				w.JoinIdleNanos += time.Since(idleStart).Nanoseconds()
				idling = false
			}
			w.Execute(t)
			continue
		}
		if !idling {
			idleStart = time.Now()
			idling = true
		}
		w.pool.idlePause()
	}
	if idling {
		w.JoinIdleNanos += time.Since(idleStart).Nanoseconds()
	}
	w.Trace(trace.EvJoinEnd, 0, 0)
}
