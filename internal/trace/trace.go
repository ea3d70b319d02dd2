// Package trace is the runtime's always-compiled, off-by-default event
// tracer: per-worker fixed-capacity ring buffers of typed, timestamped
// events, written lock-free by the owning worker on the hot path and
// drained after the run. A nil *Tracer is the disabled state — every
// Record call on it compiles to a branch-on-nil and returns — so
// instrumented code carries no configuration plumbing and measurably
// zero overhead when tracing is off.
//
// The design mirrors the Cilk-tool lineage of provably-good
// instrumentation: events are constant-size (40 bytes), recording is a
// monotonic-clock read plus a ring store with no allocation and no
// synchronization on worker-owned lanes, and the rings overwrite their
// oldest entries rather than blocking or growing, so a hot run can
// never be slowed by its own observer. Aggregate per-kind counts and
// the promotion-gap histogram are maintained outside the ring and are
// therefore exact even when events were overwritten.
//
// Lanes: a Tracer created with New(workers, capacity) has one ring per
// worker (lane = worker id, owner-written, unsynchronized). Every event
// is recorded by the worker it describes, on its own lane. Record
// indexes the lane directly, so sched.Pool.SetTracer checks the lane
// count once, at setup.
//
// Synchronization contract: Record(lane, ...) may only be called by
// that lane's owning goroutine; Drain may only be called after every
// recording goroutine has finished (for the scheduler pool this is
// guaranteed by Pool.Run returning, which happens-after every worker
// exit).
package trace

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"time"
)

// Kind classifies trace events.
type Kind uint8

// Event kinds. The A/B payloads are producer-specific; the table here
// is the schema contract (also in DESIGN.md §11).
const (
	// EvTaskStart / EvTaskEnd bracket one task execution. Scheduler
	// workers record A = execution nesting depth (helping inside joins
	// re-enters the executor); the abstract machine records A = task id.
	EvTaskStart Kind = iota
	EvTaskEnd
	// EvSteal is a successful steal; A = victim worker id.
	EvSteal
	// EvStealFail is the first failed randomized steal sweep of an idle
	// stretch (subsequent failures of the same stretch are coalesced to
	// keep an idle worker from flooding its ring; the full count lives
	// in the worker's FailedSteals counter). A = number of victims
	// examined.
	EvStealFail
	// EvBeatObserve is a heartbeat observed at a poll site; A = the
	// receive-side penalty charged (nanos, 0 for cost-free mechanisms).
	EvBeatObserve
	// EvBeatPenalty is the simulated handler cost actually paid (spun);
	// A = nanos. Emitted only when nonzero, immediately after the
	// observe event, so ablations can separate observation from cost.
	EvBeatPenalty
	// EvPromotion is one latent-parallelism promotion. The heartbeat
	// runtime records A = promotion policy (0 outer-first, 1
	// inner-first) and B = index of the promoted mark in the task's
	// mark list (its depth); the abstract machine records A = task id,
	// B = cycle counter at handler entry.
	EvPromotion
	// EvJoinBegin / EvJoinEnd bracket a join wait (helping or idling).
	EvJoinBegin
	EvJoinEnd
	// EvFuelCheck is an abstract-machine fuel checkpoint: A = steps
	// executed, B = fuel remaining (-1 when the run has no fuel budget).
	EvFuelCheck
	// EvGap closes one promotion-latency segment in the abstract
	// machine: A = the gap in machine steps, B = task id. These events
	// feed the tracer's promotion-gap histogram, the dynamic
	// counterpart of the static TP050 bound.
	EvGap

	numKinds
)

var kindNames = [numKinds]string{
	"task-start", "task-end", "steal", "steal-fail",
	"beat-observe", "beat-penalty", "promotion", "join-begin",
	"join-end", "fuel-check", "gap",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one trace record. TS is nanoseconds since the tracer was
// created (monotonic).
type Event struct {
	TS     int64
	Worker int32
	Kind   Kind
	A, B   int64
}

func (e Event) String() string {
	return fmt.Sprintf("%10.3fµs w%-3d %-12s a=%d b=%d",
		float64(e.TS)/1e3, e.Worker, e.Kind.String(), e.A, e.B)
}

// gapBuckets is the histogram width: log2 buckets over int64 values.
const gapBuckets = 64

// ring is one lane's fixed-capacity event buffer plus its exact
// aggregates. Only the owning goroutine writes it; padding keeps
// neighboring lanes off each other's cache lines (the struct is
// pointer-held, so the pad covers the hot head fields).
type ring struct {
	events []Event
	next   int64 // total events ever written; events[next%cap] is the next slot
	counts [numKinds]int64
	gaps   [gapBuckets]int64 // log2 histogram of EvGap A values
	maxGap int64
	_      [64]byte
}

func (r *ring) record(ts int64, worker int32, k Kind, a, b int64) {
	r.counts[k]++
	if k == EvGap {
		r.gaps[bucketOf(a)]++
		if a > r.maxGap {
			r.maxGap = a
		}
	}
	r.events[r.next%int64(len(r.events))] = Event{TS: ts, Worker: worker, Kind: k, A: a, B: b}
	r.next++
}

// bucketOf maps a value to its log2 bucket: 0 for v <= 1, else
// floor(log2(v)).
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	return bits.Len64(uint64(v)) - 1
}

// Tracer collects events for one run. The zero value of *Tracer (nil)
// is the disabled tracer: all Record methods return immediately.
type Tracer struct {
	start time.Time
	rings []*ring // one per lane; lane = worker id

	// sink, when set, mirrors every recorded event to a live consumer
	// (serve's job event stream). It is called synchronously from the
	// recording goroutine and read unsynchronized on the hot path, so it
	// must be installed before recording starts and never changed after.
	sink func(Event)
}

// SetSink installs a live event mirror: every event recorded after this
// call is also passed to fn, synchronously, from the recording
// goroutine. fn must be fast and non-blocking (drop, don't wait — the
// rings stay exact regardless). Install before the traced run starts;
// mutating the sink concurrently with recording is a data race.
func (t *Tracer) SetSink(fn func(Event)) {
	if t == nil {
		return
	}
	t.sink = fn
}

// DefaultCapacity is the per-lane ring capacity used when New is given
// a non-positive capacity: 1<<15 events × 40 bytes ≈ 1.3 MB per lane.
const DefaultCapacity = 1 << 15

// New creates a tracer for the given number of worker lanes. capacity
// is the per-lane ring size in events (DefaultCapacity when <= 0);
// rings overwrite their oldest events once full.
func New(workers, capacity int) *Tracer {
	if workers < 1 {
		workers = 1
	}
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	t := &Tracer{start: time.Now()}
	t.rings = make([]*ring, workers)
	for i := range t.rings {
		t.rings[i] = &ring{events: make([]Event, capacity)}
	}
	return t
}

// Lanes returns the number of worker lanes (0 for the nil tracer).
func (t *Tracer) Lanes() int {
	if t == nil {
		return 0
	}
	return len(t.rings)
}

// Now returns the tracer's clock: nanoseconds since New.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.start).Nanoseconds()
}

// Record appends an event to the worker's lane, which must be in
// 0..Lanes()-1. Owner-goroutine only; a nil receiver is a no-op (the
// always-compiled disabled path).
func (t *Tracer) Record(worker int, k Kind, a, b int64) {
	if t == nil {
		return
	}
	ts := time.Since(t.start).Nanoseconds()
	t.rings[worker].record(ts, int32(worker), k, a, b)
	if t.sink != nil {
		t.sink(Event{TS: ts, Worker: int32(worker), Kind: k, A: a, B: b})
	}
}

// Trace is the drained form of a Tracer: the retained events of every
// lane merged in timestamp order, plus the exact aggregates (which
// cover overwritten events too).
type Trace struct {
	Workers  int
	Duration time.Duration
	Events   []Event
	Dropped  int64             // events overwritten by ring wrap, all lanes
	Counts   [numKinds]int64   // exact per-kind totals
	GapHist  [gapBuckets]int64 // log2 histogram of EvGap values
	MaxGap   int64             // largest EvGap value observed
}

// Count returns the exact total of events of kind k (including any
// that were overwritten in the rings).
func (tr *Trace) Count(k Kind) int64 { return tr.Counts[k] }

// CountMap renders the nonzero per-kind totals as a map keyed by kind
// name, the wire form used by serve's /metrics and job trace views.
func (tr *Trace) CountMap() map[string]int64 {
	out := make(map[string]int64)
	for k := Kind(0); k < numKinds; k++ {
		if tr.Counts[k] != 0 {
			out[k.String()] = tr.Counts[k]
		}
	}
	return out
}

// GapHistMap renders the nonzero promotion-gap buckets keyed by the
// bucket's lower bound ("1", "2", "4", ...).
func (tr *Trace) GapHistMap() map[string]int64 {
	out := make(map[string]int64)
	for i, n := range tr.GapHist {
		if n != 0 {
			out[fmt.Sprintf("%d", int64(1)<<i)] = n
		}
	}
	return out
}

// Drain merges every lane into one timestamp-ordered Trace. It must
// only be called after all recording goroutines have finished (after
// Pool.Run / machine.Run returns). The tracer may be drained more than
// once; each call re-reads the rings.
func (t *Tracer) Drain() *Trace {
	tr := &Trace{}
	if t == nil {
		return tr
	}
	tr.Workers = len(t.rings)
	tr.Duration = time.Since(t.start)
	total := 0
	for _, r := range t.rings {
		n := r.next
		if c := int64(len(r.events)); n > c {
			tr.Dropped += n - c
			n = c
		}
		total += int(n)
		for k := Kind(0); k < numKinds; k++ {
			tr.Counts[k] += r.counts[k]
		}
		for i := range r.gaps {
			tr.GapHist[i] += r.gaps[i]
		}
		if r.maxGap > tr.MaxGap {
			tr.MaxGap = r.maxGap
		}
	}
	tr.Events = make([]Event, 0, total)
	for _, r := range t.rings {
		n, c := r.next, int64(len(r.events))
		lo := int64(0)
		if n > c {
			lo = n - c
		}
		for i := lo; i < n; i++ {
			tr.Events = append(tr.Events, r.events[i%c])
		}
	}
	sortEvents(tr.Events)
	return tr
}

// sortEvents orders by timestamp, breaking ties by lane. Each lane
// arrives in recording order, and the sort is stable, so events of one
// lane with equal stamps keep that order. Event counts are ring-bounded,
// so the O(n log n) here is off the hot path by construction.
func sortEvents(ev []Event) {
	slices.SortStableFunc(ev, func(a, b Event) int {
		return cmp.Or(cmp.Compare(a.TS, b.TS), cmp.Compare(a.Worker, b.Worker))
	})
}
