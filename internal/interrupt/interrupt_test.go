package interrupt

import (
	"testing"
	"time"

	"tpal/internal/sched"
)

// drainPolls polls a worker's beat source in a tight loop for d,
// returning the number of beats observed.
func drainPolls(w *sched.Worker, d time.Duration) int64 {
	var n int64
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if w.PollHeartbeat() {
			n++
		}
	}
	return n
}

func TestNoneNeverFires(t *testing.T) {
	p := sched.NewPool(1)
	m := None{}
	m.Start(p.Workers(), time.Microsecond)
	if n := drainPolls(p.Workers()[0], 5*time.Millisecond); n != 0 {
		t.Fatalf("None delivered %d beats", n)
	}
	m.Stop()
	if m.Stats().Delivered != 0 {
		t.Fatal("None reported deliveries")
	}
}

func TestVirtualDeliversNearTarget(t *testing.T) {
	p := sched.NewPool(1)
	m := NewVirtual(Profile{Name: "precise"}) // no costs, no slop
	const period = 50 * time.Microsecond
	m.Start(p.Workers(), period)
	const window = 50 * time.Millisecond
	n := drainPolls(p.Workers()[0], window)
	m.Stop()
	target := float64(window) / float64(period)
	if float64(n) < 0.5*target || float64(n) > 1.2*target {
		t.Fatalf("delivered %d beats, target %.0f", n, target)
	}
	st := m.Stats()
	if st.Delivered != n {
		t.Fatalf("stats delivered %d, observed %d", st.Delivered, n)
	}
	if got := st.TargetRate(); got < 19000 || got > 21000 {
		t.Fatalf("target rate = %f", got)
	}
	ar := st.AchievedRate()
	if ar <= 0 {
		t.Fatalf("achieved rate = %f", ar)
	}
}

func TestVirtualSweepCapsRate(t *testing.T) {
	// With a simulated 15-worker sweep at 3µs per signal, the effective
	// period at ♥ = 20µs is at least 45µs.
	p := sched.NewPool(1)
	m := NewVirtualSim(Profile{Name: "sweep", SendCost: 3 * time.Microsecond}, 15)
	m.Start(p.Workers(), 20*time.Microsecond)
	n := drainPolls(p.Workers()[0], 30*time.Millisecond)
	m.Stop()
	perSecond := float64(n) / 0.030
	if perSecond > 1.05*(1e9/45000.0) {
		t.Fatalf("rate %.0f/s exceeds the sweep cap", perSecond)
	}
}

func TestVirtualOrderingAcrossProfiles(t *testing.T) {
	// Nautilus must out-deliver the Linux ping model, which must
	// out-deliver PAPI, at a fast ♥.
	rates := make(map[string]float64)
	for _, pr := range []Profile{Nautilus, LinuxPingThread, LinuxPAPI} {
		p := sched.NewPool(1)
		m := NewVirtualSim(pr, 15)
		m.Start(p.Workers(), 20*time.Microsecond)
		n := drainPolls(p.Workers()[0], 40*time.Millisecond)
		m.Stop()
		rates[pr.Name] = float64(n)
	}
	if !(rates[Nautilus.Name] > rates[LinuxPingThread.Name]) {
		t.Errorf("nautilus (%f) should beat linux ping (%f)", rates[Nautilus.Name], rates[LinuxPingThread.Name])
	}
	if !(rates[LinuxPingThread.Name] > rates[LinuxPAPI.Name]) {
		t.Errorf("linux ping (%f) should beat PAPI (%f)", rates[LinuxPingThread.Name], rates[LinuxPAPI.Name])
	}
}

func TestVirtualRecvCostCharged(t *testing.T) {
	p := sched.NewPool(1)
	w := p.Workers()[0]
	m := NewVirtual(Profile{Name: "pricey", RecvCost: 5 * time.Microsecond})
	m.Start(p.Workers(), 100*time.Microsecond)
	n := drainPolls(w, 20*time.Millisecond)
	m.Stop()
	if n == 0 {
		t.Fatal("no beats delivered")
	}
	if w.PenaltyNanos < n*5000 {
		t.Fatalf("penalty %dns for %d beats, want >= %d", w.PenaltyNanos, n, n*5000)
	}
}

func TestVirtualBeatsCoalesce(t *testing.T) {
	// A worker that polls rarely observes at most one beat per poll and
	// the schedule restarts from the observation: no bursts.
	p := sched.NewPool(1)
	w := p.Workers()[0]
	m := NewVirtual(Profile{Name: "precise"})
	m.Start(p.Workers(), 10*time.Microsecond)
	time.Sleep(2 * time.Millisecond) // ~200 periods pass unobserved
	fired := 0
	for i := 0; i < 3; i++ {
		if w.PollHeartbeat() {
			fired++
		}
	}
	m.Stop()
	if fired > 1 {
		t.Fatalf("coalescing failed: %d beats in 3 immediate polls", fired)
	}
}

// TestVirtualSkipAdaptsDown pins the detection-latency bound of the
// adaptive skip across a change of pace: polling flat out grows the
// skip; when the polls then come 10µs apart, the skip already armed may
// run out at that pace once (at most maxPollSkip polls), and the clock
// reads after it must cut the skip to nothing, so that every later beat
// is seen at the poll after its deadline.
func TestVirtualSkipAdaptsDown(t *testing.T) {
	p := sched.NewPool(1)
	w := p.Workers()[0]
	m := NewVirtual(Profile{Name: "precise"})
	const period = 50 * time.Microsecond
	m.Start(p.Workers(), period)
	defer m.Stop()
	st := m.(*virtualMech).states[0]

	for deadline := time.Now().Add(5 * time.Millisecond); time.Now().Before(deadline); {
		for i := 0; i < 1000; i++ {
			w.PollHeartbeat()
		}
	}
	if st.skip < 7 {
		t.Fatalf("dense polling left the skip at %d", st.skip)
	}

	sparsePoll := func() bool {
		spinDelay(10 * time.Microsecond)
		return w.PollHeartbeat()
	}
	polls := 1
	for !sparsePoll() {
		if polls++; polls > maxPollSkip+1+int(period/(10*time.Microsecond))+1 {
			t.Fatalf("no beat in %d sparse polls: the bound is one armed skip (%d) plus one period", polls, maxPollSkip)
		}
	}
	// 100 polls span 20 periods; all but the odd one must be seen.
	beats := 0
	for i := 0; i < 100; i++ {
		if sparsePoll() {
			beats++
		}
	}
	if beats < 15 || st.skip != 0 {
		t.Fatalf("%d beats in 100 sparse polls over 20 periods, skip %d: the skip did not adapt down", beats, st.skip)
	}
}

func TestThreadTimerDelivers(t *testing.T) {
	p := sched.NewPool(2)
	m := NewThreadTimer(Profile{Name: "thread"}, false)
	m.Start(p.Workers(), time.Millisecond)
	deadline := time.Now().Add(50 * time.Millisecond)
	var seen int64
	for time.Now().Before(deadline) {
		for _, w := range p.Workers() {
			if w.HeartbeatPending() && w.TakeHeartbeat() {
				seen++
			}
		}
	}
	m.Stop()
	if seen == 0 {
		t.Fatal("thread timer delivered nothing")
	}
	if m.Stats().Delivered < seen {
		t.Fatalf("stats %d < observed %d", m.Stats().Delivered, seen)
	}
	if m.Stats().Workers != 2 {
		t.Fatalf("workers = %d", m.Stats().Workers)
	}
}

func TestStopIsIdempotent(t *testing.T) {
	p := sched.NewPool(1)
	for _, m := range []Mechanism{NewVirtual(Nautilus), NewThreadTimer(Nautilus, false)} {
		m.Start(p.Workers(), time.Millisecond)
		m.Stop()
		m.Stop() // second stop must not panic or deadlock
	}
}

func TestStatsZeroValues(t *testing.T) {
	var s Stats
	if s.TargetRate() != 0 || s.AchievedRate() != 0 {
		t.Fatal("zero stats should report zero rates")
	}
}

func TestCountingPollDeterministic(t *testing.T) {
	p := sched.NewPool(1)
	w := p.Workers()[0]
	m := NewCountingPoll(10)
	m.Start(p.Workers(), 0)
	fired := 0
	for i := 0; i < 100; i++ {
		if w.PollHeartbeat() {
			fired++
		}
	}
	m.Stop()
	if fired != 10 {
		t.Fatalf("100 polls at period 10 fired %d beats, want 10", fired)
	}
	if m.Stats().Delivered != 10 {
		t.Fatalf("stats delivered %d", m.Stats().Delivered)
	}
}

func TestCountingPollClampsPeriod(t *testing.T) {
	p := sched.NewPool(1)
	m := NewCountingPoll(0) // clamps to 1: fires every poll
	m.Start(p.Workers(), 0)
	w := p.Workers()[0]
	fired := 0
	for i := 0; i < 5; i++ {
		if w.PollHeartbeat() {
			fired++
		}
	}
	m.Stop()
	if fired != 5 {
		t.Fatalf("period-1 polling fired %d/5", fired)
	}
}
