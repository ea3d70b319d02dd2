package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tpal/internal/tpal/programs"
)

const (
	smokeSubmissions = 10_000
	smokeSubmitters  = 128 // concurrent submitter goroutines feeding the burst
	smokeWorkers     = 4
	smokeTenants     = 32
	smokeQueueCap    = 64  // small on purpose: the burst must hit backpressure
	smokeResultCap   = 512 // below the distinct-key count, so the LRU must evict
	smokeRetention   = 4096
)

// driveLoad pushes smokeSubmissions submissions from smokeTenants
// tenants through a deliberately small queue and returns the service's
// final counters. A fixed pool of smokeSubmitters goroutines feeds the
// burst — enough concurrency to keep duplicates in flight together and
// the queue saturated, without drowning the race detector in ten
// thousand goroutines spinning on the retry path. Four in five
// submissions draw from a small hot set of argument vectors — the
// result store answers most of them once their first run has finished
// — while the rest are unique and keep real executions flowing through
// the queue. Throttled submissions retry, so every job eventually
// lands: full completion is asserted, which exercises backpressure,
// DRR dispatch, concurrent admission, the result store and its LRU
// eviction together under load.
func driveLoad(t *testing.T) MetricsSnapshot {
	t.Helper()
	s := newTestService(t, Config{
		Workers:        smokeWorkers,
		QueueCap:       smokeQueueCap,
		ResultCacheCap: smokeResultCap,
		JobRetention:   smokeRetention,
		TripAssume:     64,
	})

	tenantNames := make([]string, smokeTenants)
	for i := range tenantNames {
		tenantNames[i] = fmt.Sprintf("t%02d", i)
	}
	var (
		completed   atomic.Int64
		failedJobs  atomic.Int64
		otherErrors atomic.Int64
	)

	start := time.Now()
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < smokeSubmitters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				// Every fifth submission is unique (fresh cache key, must
				// execute); the rest cycle a hot set of 97 argument vectors
				// that the result store answers once a run has finished.
				args := map[string]int64{"a": int64(i%97 + 1), "b": 3}
				if i%5 == 0 {
					args = map[string]int64{"a": 40, "b": int64(1000 + i)}
				}
				req := SubmitRequest{
					Tenant: tenantNames[i%smokeTenants],
					Source: programs.ProdSource,
					Args:   args,
				}
				var j *Job
				for {
					var err error
					j, err = s.Submit(req)
					if err == nil {
						break
					}
					if errors.Is(err, ErrQueueFull) {
						time.Sleep(time.Millisecond)
						continue
					}
					otherErrors.Add(1)
					j = nil
					break
				}
				if j == nil {
					continue
				}
				select {
				case <-j.Done():
				case <-time.After(120 * time.Second):
					failedJobs.Add(1)
					continue
				}
				v := j.view()
				if v.Status != StatusDone {
					failedJobs.Add(1)
					continue
				}
				completed.Add(1)
			}
		}()
	}
	for i := 0; i < smokeSubmissions; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	wall := time.Since(start)

	if n := otherErrors.Load(); n > 0 {
		t.Fatalf("%d submissions failed with unexpected errors", n)
	}
	if n := failedJobs.Load(); n > 0 {
		t.Fatalf("%d jobs did not complete successfully", n)
	}
	if got := completed.Load(); got != smokeSubmissions {
		t.Fatalf("completed %d of %d submissions", got, smokeSubmissions)
	}

	snap := s.Snapshot()
	t.Logf("load smoke: %d jobs in %v (%d executions, %d cache hits, %d throttled)",
		smokeSubmissions, wall.Round(time.Millisecond),
		snap.Executions, snap.ResultHits, snap.Throttled)
	return snap
}

// TestLoadSmoke is a correctness burst, not a benchmark: every job of
// the burst must complete through the 64-slot queue, and the service's
// counters must satisfy its conservation laws afterwards. The serve
// numbers live in the front-door benchmark (benchmark/, workloads
// serve-hot / serve-mixed / serve-exec).
func TestLoadSmoke(t *testing.T) {
	snap := driveLoad(t)

	// Every submission is admitted, rejected or bounced with a 429.
	if got := snap.Admitted + snap.Rejected + snap.Throttled; snap.Submitted != got {
		t.Errorf("submitted %d != admitted %d + rejected %d + throttled %d",
			snap.Submitted, snap.Admitted, snap.Rejected, snap.Throttled)
	}
	// Every job of the burst succeeds, so every completed job either
	// executed or was answered from the result store.
	if got := snap.Executions + snap.ResultHits; snap.Completed != got {
		t.Errorf("completed %d != executions %d + result hits %d",
			snap.Completed, snap.Executions, snap.ResultHits)
	}
}
