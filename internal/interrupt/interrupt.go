// Package interrupt implements the heartbeat delivery mechanisms the
// paper evaluates. Each mechanism is a delivery model with explicit
// costs:
//
//   - PingThread — the paper's best Linux mechanism: a dedicated thread
//     wakes every ♥ and signals each worker in turn, so delivery pays OS
//     timer slop plus a serialized per-signal cost. Its achieved rate
//     falls behind the target as ♥ shrinks or workers grow (the Linux
//     behavior of Figure 10).
//   - PAPI — perf-counter overflow interrupts: strictly worse costs than
//     the ping thread, as the paper reports.
//   - Nautilus — the TPAL hybrid runtime on the Nautilus kernel: per-core
//     APIC timers fanned out over Nemo IPIs, with microsecond precision
//     and small receive cost, hitting the target rate at both 100µs and
//     20µs (Figures 10 and 13).
//
// Because this reproduction runs on hosts where a dedicated signaling
// core may not exist (the reference environment has a single CPU), the
// default mechanisms are virtual-clock models: at promotion-ready poll
// sites the worker checks a monotonic clock against its next-beat
// deadline — every few microseconds of polling, not at every poll; see
// virtual.go — and fires when the deadline plus a sampled delivery
// latency has passed. This is exactly how a per-core timer interrupt
// appears to the interrupted task — "♥ elapsed on my core, with some
// delivery delay" — and it keeps each mechanism's cost model (timer
// slop, serialized signaling sweep, receive-side handler cost) explicit
// and measurable. A goroutine-backed ThreadTimer mechanism is also
// provided for hosts with spare cores; see threadtimer.go.
package interrupt

import (
	"math"
	"time"

	"tpal/internal/sched"
)

// Mechanism delivers heartbeats to a set of workers until stopped.
type Mechanism interface {
	// Name identifies the mechanism in reports, e.g. "INT-PingThread".
	Name() string
	// Start arms delivery at the given period for every worker.
	Start(workers []*sched.Worker, period time.Duration)
	// Stop halts delivery and freezes statistics.
	Stop()
	// Stats reports achieved delivery counts. Valid after Stop.
	Stats() Stats
}

// Stats describes heartbeat delivery over a run.
type Stats struct {
	Mechanism string
	Period    time.Duration
	Workers   int
	Elapsed   time.Duration
	Delivered int64 // beats fired across all workers
}

// TargetRate is the ideal aggregate heartbeat rate across all workers,
// in beats per second (the paper's "Target Heartbeat Rate").
func (s Stats) TargetRate() float64 {
	if s.Period <= 0 {
		return 0
	}
	return float64(s.Workers) / s.Period.Seconds()
}

// AchievedRate is the measured aggregate beats per second.
func (s Stats) AchievedRate() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Delivered) / s.Elapsed.Seconds()
}

// Profile is a delivery cost model.
type Profile struct {
	Name string
	// SendCost is the sender-side per-worker signaling cost. For
	// thread-driven delivery it is paid serially by the signaling
	// thread; for virtual-clock delivery it stretches the effective
	// period by SendCost × workers (the sweep time), which is what caps
	// the ping thread's throughput at small ♥.
	SendCost time.Duration
	// RecvCost is the receive-side handler cost the worker pays when it
	// observes a beat (busy-waited, so it shows up in run time exactly
	// like a signal handler would).
	RecvCost time.Duration
	// SlopMean is the mean of an exponentially distributed extra delay
	// added to each beat, modeling OS timer slop and signal queueing.
	SlopMean time.Duration
	// SpikeProb and SpikeLen model occasional long stalls (scheduler
	// interference, masked interrupts): with probability SpikeProb a
	// beat is delayed by SpikeLen.
	SpikeProb float64
	SpikeLen  time.Duration
}

// The three evaluated profiles. Costs are calibrated to reproduce the
// paper's ordering and rough magnitudes: Linux signal delivery costs a
// few microseconds end to end and its timers slip at microsecond scales;
// PAPI overflow interrupts cost more on both sides; Nautilus IPIs cost a
// few thousand cycles with sub-microsecond timer precision.
var (
	LinuxPingThread = Profile{
		Name:      "INT-PingThread",
		SendCost:  3 * time.Microsecond,
		RecvCost:  3 * time.Microsecond,
		SlopMean:  8 * time.Microsecond,
		SpikeProb: 0.002,
		SpikeLen:  2 * time.Millisecond,
	}
	LinuxPAPI = Profile{
		Name:      "INT-Papi",
		SendCost:  5 * time.Microsecond,
		RecvCost:  6 * time.Microsecond,
		SlopMean:  40 * time.Microsecond,
		SpikeProb: 0.004,
		SpikeLen:  3 * time.Millisecond,
	}
	Nautilus = Profile{
		Name:     "Nautilus-Nemo",
		SendCost: 50 * time.Nanosecond,
		RecvCost: 300 * time.Nanosecond,
		SlopMean: 500 * time.Nanosecond,
	}
)

// None is a disabled mechanism: no heartbeats are ever delivered, so a
// TPAL binary runs its pure sequential elaboration (Figure 8's
// configuration).
type None struct{}

// Name implements Mechanism.
func (None) Name() string { return "none" }

// Start implements Mechanism. A worker with no beat source checks its
// heartbeat flag out of line at every poll, for a thread-driven
// mechanism's sake; None promises there is no such thread, so it
// installs a source that turns every poll into a skipped one.
func (None) Start(workers []*sched.Worker, _ time.Duration) {
	for _, w := range workers {
		w.SetBeatSource(never{})
	}
}

type never struct{}

func (never) Poll(w *sched.Worker) (bool, int64) {
	w.SetPollSkip(math.MaxInt32)
	return false, 0
}

// Stop implements Mechanism.
func (None) Stop() {}

// Stats implements Mechanism.
func (None) Stats() Stats { return Stats{Mechanism: "none"} }

// New returns the default (virtual-clock) mechanism for a profile.
func New(p Profile) Mechanism { return NewVirtual(p) }

// NewPingThread returns the Linux ping-thread model.
func NewPingThread() Mechanism { return NewVirtual(LinuxPingThread) }

// NewPAPI returns the Linux PAPI model.
func NewPAPI() Mechanism { return NewVirtual(LinuxPAPI) }

// NewNautilus returns the Nautilus Nemo/APIC model.
func NewNautilus() Mechanism { return NewVirtual(Nautilus) }

func spinDelay(d time.Duration) {
	start := time.Now()
	for time.Since(start) < d {
	}
}
