package interrupt

import (
	"testing"
	"time"

	"tpal/internal/sched"
)

// offCPUGap is the longest gap between two polls of drainPolls' tight
// loop that still counts as polling; a longer one means the goroutine
// was descheduled.
const offCPUGap = 10 * time.Microsecond

// drainPolls polls a worker's beat source in a tight loop for d,
// returning the number of beats observed and how much of d the loop
// spent polling. When other processes hold every CPU the poller is
// descheduled for whole periods, which a virtual clock skips by design
// (a beat fires at the next poll, not one per missed period), so a rate
// judged against d alone measures the machine's load, not the clock.
func drainPolls(w *sched.Worker, d time.Duration) (beats int64, polling time.Duration) {
	last := time.Now()
	deadline := last.Add(d)
	for now := last; now.Before(deadline); now = time.Now() {
		if gap := now.Sub(last); gap < offCPUGap {
			polling += gap
		}
		last = now
		if w.PollHeartbeat() {
			beats++
		}
	}
	return beats, polling
}

func TestNoneNeverFires(t *testing.T) {
	p := sched.NewPool(1)
	m := None{}
	m.Start(p.Workers(), time.Microsecond)
	if n, _ := drainPolls(p.Workers()[0], 5*time.Millisecond); n != 0 {
		t.Fatalf("None delivered %d beats", n)
	}
	m.Stop()
	if m.Stats().Delivered != 0 {
		t.Fatal("None reported deliveries")
	}
}

// TestVirtualDeliversNearTarget holds a cost-free virtual clock to the
// target rate. The lower bound is judged against the periods the poller
// spent polling, and a short window is tried up to five times, since a
// poller descheduled for most of one has too few periods to judge. The
// upper bound and the delivery count must hold on every attempt.
func TestVirtualDeliversNearTarget(t *testing.T) {
	const (
		period = 50 * time.Microsecond
		window = 50 * time.Millisecond
		target = float64(window / period)
	)
	var n int64
	var polled float64 // periods spent polling
	for attempt := 0; attempt < 5; attempt++ {
		p := sched.NewPool(1)
		m := NewVirtual(Profile{Name: "precise"}) // no costs, no slop
		m.Start(p.Workers(), period)
		var polling time.Duration
		n, polling = drainPolls(p.Workers()[0], window)
		polled = float64(polling) / float64(period)
		m.Stop()
		if float64(n) > 1.2*target {
			t.Fatalf("delivered %d beats, target %.0f", n, target)
		}
		st := m.Stats()
		if st.Delivered != n {
			t.Fatalf("stats delivered %d, observed %d", st.Delivered, n)
		}
		if got := st.TargetRate(); got < 19000 || got > 21000 {
			t.Fatalf("target rate = %f", got)
		}
		if polled < 0.2*target || float64(n) < 0.5*polled {
			continue
		}
		if ar := st.AchievedRate(); ar <= 0 {
			t.Fatalf("achieved rate = %f", ar)
		}
		return
	}
	t.Fatalf("delivered %d beats in %.0f periods of polling (target %.0f), on each of five attempts", n, polled, target)
}

func TestVirtualSweepCapsRate(t *testing.T) {
	// With a simulated 15-worker sweep at 3µs per signal, the effective
	// period at ♥ = 20µs is at least 45µs.
	p := sched.NewPool(1)
	m := NewVirtualSim(Profile{Name: "sweep", SendCost: 3 * time.Microsecond}, 15)
	m.Start(p.Workers(), 20*time.Microsecond)
	n, _ := drainPolls(p.Workers()[0], 30*time.Millisecond)
	m.Stop()
	perSecond := float64(n) / 0.030
	if perSecond > 1.05*(1e9/45000.0) {
		t.Fatalf("rate %.0f/s exceeds the sweep cap", perSecond)
	}
}

func TestVirtualOrderingAcrossProfiles(t *testing.T) {
	// Nautilus must out-deliver the Linux ping model, which must
	// out-deliver PAPI, at a fast ♥: beats per second of polling, so
	// that a profile whose window the poller spent descheduled does not
	// lose for it.
	rates := make(map[string]float64)
	for _, pr := range []Profile{Nautilus, LinuxPingThread, LinuxPAPI} {
		p := sched.NewPool(1)
		m := NewVirtualSim(pr, 15)
		m.Start(p.Workers(), 20*time.Microsecond)
		n, polling := drainPolls(p.Workers()[0], 40*time.Millisecond)
		m.Stop()
		rates[pr.Name] = float64(n) / polling.Seconds()
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
	n, _ := drainPolls(w, 20*time.Millisecond)
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
// is seen at the poll after its deadline. The mechanism reads a fake
// clock that the poll loop advances by the work between two polls, so
// the pace is exact however busy the machine running the test is.
func TestVirtualSkipAdaptsDown(t *testing.T) {
	p := sched.NewPool(1)
	w := p.Workers()[0]
	m := NewVirtual(Profile{Name: "precise"})
	var now time.Duration
	m.(*virtualMech).clock = func() time.Duration { return now }
	const period = 50 * time.Microsecond
	m.Start(p.Workers(), period)
	defer m.Stop()
	st := m.(*virtualMech).states[0]

	// Flat out: one poll every 2ns for 5ms.
	for now < 5*time.Millisecond {
		now += 2 * time.Nanosecond
		w.PollHeartbeat()
	}
	if st.skip < 7 {
		t.Fatalf("dense polling left the skip at %d", st.skip)
	}

	sparsePoll := func() bool {
		now += 10 * time.Microsecond
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

func TestStopIsIdempotent(t *testing.T) {
	p := sched.NewPool(1)
	for _, m := range []Mechanism{NewVirtual(Nautilus), NewCountingPoll(10)} {
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
