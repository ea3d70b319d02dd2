package main

import (
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The boxes this benchmark runs on change speed under it: a fixed loop
// takes 15% to 40% longer for ten or twenty seconds at a time, for
// reasons outside the guest, which is as long as a whole run. On the
// two workloads where the benchmark process is itself the system under
// test and nothing else runs, a speedometer samples that speed with a
// small fixed kernel on a thread of its own, and the end-to-end timings
// are divided by the resulting index, so they read as they would on the
// box at its reference speed. (On the serve-* workloads the index does
// not track what varies, which is how two processes and their garbage
// collectors share two cores, so those timings are left as measured.)
// The kernel lives here, in the benchmark, and depends on nothing in
// the system under test.

// refBurstNS is what one burst of the kernel costs, in thread CPU time,
// on the box the benchmark was built on when nothing disturbs it. Any
// constant would do; this one makes the index read about 1.0 there.
const refBurstNS = 500_000

const speedSamplePeriod = 40 * time.Millisecond // about 1% of one core

// burst is the kernel: half integer arithmetic, half string-keyed map
// traffic with its allocation, about the blend of the code it stands in
// for (the interpreter tracks the map half, compute kernels the other).
func burst() int {
	x := 0
	for j := 0; j < 500_000; j++ {
		x += j ^ (j >> 3)
	}
	m := make(map[string]int, 64)
	for j := 0; j < 1500; j++ {
		m["k"+strconv.Itoa(j)] = j
	}
	for j := 0; j < 1500; j++ {
		x += m["k"+strconv.Itoa(j)]
	}
	return x
}

// threadCPU reads the calling thread's CPU clock. CPU time, not wall
// time: a burst that waits for a core while the workload has both busy
// must not read as a slow box.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

type speedSample struct {
	at time.Time
	ns float64
}

// speedometer owns one sampling goroutine from start to Stop.
type speedometer struct {
	mu      sync.Mutex
	samples []speedSample
	stop    chan struct{}
	done    chan struct{}
}

var burstSink int // keeps the compiler from discarding the kernel

func startSpeedometer() *speedometer {
	s := &speedometer{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		runtime.LockOSThread() // the thread clock must be this goroutine's alone
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(speedSamplePeriod)
		defer tick.Stop()
		for {
			t0 := threadCPU()
			burstSink += burst()
			ns := float64(threadCPU() - t0)
			s.mu.Lock()
			s.samples = append(s.samples, speedSample{time.Now(), ns})
			s.mu.Unlock()
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// Stop ends the sampling and returns once the goroutine has exited.
func (s *speedometer) Stop() {
	close(s.stop)
	<-s.done
}

// index is the box's slowness between two instants: the median burst
// over the reference burst, 1.0 at reference speed, 1.2 when everything
// takes a fifth longer. With no usable sample in the interval it is 1.
func (s *speedometer) index(from, to time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ns []float64
	for _, x := range s.samples {
		if !x.at.Before(from) && !x.at.After(to) {
			ns = append(ns, x.ns)
		}
	}
	sort.Float64s(ns)
	if len(ns) == 0 || ns[len(ns)/2] <= 0 { // no sample, or no thread clock
		return 1
	}
	return ns[len(ns)/2] / refBurstNS
}
