package interrupt

import (
	"math"
	"sync/atomic"
	"time"

	"tpal/internal/sched"
)

// virtualMech is the virtual-clock delivery model: each worker owns a
// next-beat deadline and checks it against a monotonic clock at poll
// sites. Delivery latency (timer slop, signaling sweep, spikes) is
// sampled per beat from the profile. Beats that would land while the
// worker is between polls coalesce — only one fires at the next poll,
// just as a masked periodic interrupt fires once when unmasked.
//
// The clock is not read at every poll: a read costs tens of
// nanoseconds, more than a fine-grained loop body or a recursive call.
// Each read arms a skip on the worker (sched.Worker.SetPollSkip) sized
// from the poll rate it has just measured, so that reads land a few
// microseconds apart whatever the poll density. That is this model's
// share of the runtime's promotion-latency contract: a delivered beat
// is observed within one poll stride of work plus at most the adaptive
// skip, which is bounded by ~8 µs of polling (sparseReadGap) at the
// measured rate. When the rate drops abruptly the skip already armed
// runs out at the new rate — at most maxPollSkip polls, once — and the
// reads that follow rescale it to the new rate, not by halves.
type virtualMech struct {
	profile    Profile
	simWorkers int // sweep-cost worker count override (simulated machine size)
	period     time.Duration
	workers    []*sched.Worker
	states     []*vstate

	started time.Time
	elapsed time.Duration
	stopped atomic.Bool
	// clock, when set, replaces the monotonic clock as the time since
	// Start, so a test can drive the mechanism from a fake clock.
	clock func() time.Duration
}

// now reads the mechanism's clock: the time since Start.
func (m *virtualMech) now() time.Duration {
	if m.clock != nil {
		return m.clock()
	}
	return time.Since(m.started)
}

// NewVirtual creates a virtual-clock mechanism from a profile.
func NewVirtual(p Profile) Mechanism { return &virtualMech{profile: p} }

// NewVirtualSim creates a virtual-clock mechanism whose serialized
// signaling sweep is costed as if simWorkers workers were being
// signaled, regardless of how many real workers attach. The harness uses
// it to model the paper's 15-worker machine from runs on fewer cores.
func NewVirtualSim(p Profile, simWorkers int) Mechanism {
	return &virtualMech{profile: p, simWorkers: simWorkers}
}

func (m *virtualMech) Name() string { return m.profile.Name }

func (m *virtualMech) Start(workers []*sched.Worker, period time.Duration) {
	m.workers = workers
	m.period = period
	m.started = time.Now()

	// The effective period is stretched by the signaling sweep: one
	// sender delivering to every worker serially cannot beat faster than
	// SendCost × workers.
	nw := len(workers)
	if m.simWorkers > 0 {
		nw = m.simWorkers
	}
	eff := period.Nanoseconds()
	if sweep := m.profile.SendCost.Nanoseconds() * int64(nw); sweep > eff {
		eff = sweep
	}

	m.states = make([]*vstate, len(workers))
	for i, w := range workers {
		st := &vstate{
			mech:      m,
			effPeriod: eff,
			rng:       uint64(i+1) * 0x9E3779B97F4A7C15,
		}
		st.next = eff + st.sampleSlop()
		m.states[i] = st
		w.SetBeatSource(st)
	}
}

func (m *virtualMech) Stop() {
	if m.stopped.Swap(true) {
		return
	}
	m.elapsed = m.now()
	for _, w := range m.workers {
		w.SetBeatSource(nil)
	}
}

func (m *virtualMech) Stats() Stats {
	var delivered int64
	for _, st := range m.states {
		delivered += st.delivered
	}
	return Stats{
		Mechanism: m.profile.Name,
		Period:    m.period,
		Workers:   len(m.workers),
		Elapsed:   m.elapsed,
		Delivered: delivered,
	}
}

// vstate is one worker's delivery state; only the owning worker touches
// it (through polls), so no synchronization is needed.
type vstate struct {
	mech      *virtualMech
	effPeriod int64
	next      int64 // deadline, ns since mech.started
	skip      int32 // polls the worker skips between clock reads
	lastRead  int64 // clock value at the previous read
	rng       uint64
	delivered int64
}

// The skip adapts to keep consecutive clock reads between denseReadGap
// and sparseReadGap apart: closer than that and the read is not yet
// amortized, so the skip doubles; further and beats are detected late,
// so it shrinks — in proportion to the overshoot, aiming at the middle
// of the band, because a task that goes from polling every few
// nanoseconds to polling every few microseconds must not keep a dense
// poller's skip for ten more reads. maxPollSkip caps what one such
// change of pace can cost; at a poll every 2 ns it still spaces reads
// 2 µs apart.
const (
	denseReadGap  = 2_000 // ns
	sparseReadGap = 8_000 // ns
	maxPollSkip   = 1023
)

// Poll implements sched.BeatSource. The receive-side handler cost is
// returned, not paid here: the worker pays it, so the accounting is the
// same for every mechanism.
func (s *vstate) Poll(w *sched.Worker) (bool, int64) {
	now := s.mech.now().Nanoseconds()
	switch gap := now - s.lastRead; {
	case gap < denseReadGap:
		if s.skip = 2*s.skip + 1; s.skip > maxPollSkip {
			s.skip = maxPollSkip
		}
	case gap > sparseReadGap:
		s.skip = int32(int64(s.skip+1) * (denseReadGap + sparseReadGap) / 2 / gap)
	}
	s.lastRead = now
	w.SetPollSkip(s.skip)
	if now < s.next {
		return false, 0
	}
	s.delivered++
	// Re-arm from the deadline, not from the observation, as a periodic
	// timer does: the time this beat waited for a poll must not delay
	// every later beat. What does separate two deadlines is the period
	// plus a fresh sample of slop — the model of a ping thread that
	// sleeps one period and wakes late — so the achievable rate is
	// period/(period + mean slop + mean spike) of the target:
	// 100/(100+8+4) ≈ 0.89 for LinuxPingThread at ♥ = 100µs. A deadline
	// that is already past means whole periods went by unobserved; those
	// are skipped, not bursted, by restarting from the observation.
	step := s.effPeriod + s.sampleSlop()
	if s.next += step; s.next <= now {
		s.next = now + step
	}
	return true, s.mech.profile.RecvCost.Nanoseconds()
}

// sampleSlop draws the per-beat extra delay: Exp(SlopMean) plus an
// occasional spike.
func (s *vstate) sampleSlop() int64 {
	p := &s.mech.profile
	var d int64
	if p.SlopMean > 0 {
		u := s.nextFloat()
		if u < 1e-12 {
			u = 1e-12
		}
		d += int64(-float64(p.SlopMean.Nanoseconds()) * math.Log(u))
	}
	if p.SpikeProb > 0 && s.nextFloat() < p.SpikeProb {
		d += p.SpikeLen.Nanoseconds()
	}
	return d
}

func (s *vstate) nextFloat() float64 {
	x := s.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.rng = x
	return float64(x>>11) / float64(1<<53)
}
