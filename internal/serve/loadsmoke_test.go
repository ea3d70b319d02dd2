package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tpal/internal/tpal/machine"
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
// tenants through a deliberately small queue on the given backend and
// returns the service's final counters. A fixed pool of
// smokeSubmitters goroutines feeds the burst — enough concurrency to
// keep duplicates in flight together and the queue saturated, without
// drowning the race detector in ten thousand goroutines spinning on
// the retry path. Four in five submissions draw from a small hot set
// of argument vectors — the singleflight registry and the result
// store collapse most of them — while the rest are unique and keep
// real executions flowing through the queue. Throttled submissions
// retry, so every job eventually lands: full completion is asserted,
// which exercises backpressure, DRR dispatch, concurrent admission,
// and both dedup layers together under load.
func driveLoad(t *testing.T, backend machine.Backend) MetricsSnapshot {
	t.Helper()
	s := newTestService(t, Config{
		Workers:        smokeWorkers,
		QueueCap:       smokeQueueCap,
		ResultCacheCap: smokeResultCap,
		JobRetention:   smokeRetention,
		TripAssume:     64,
		Backend:        backend,
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
				// that singleflight and the result store collapse.
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
		t.Fatalf("%s: %d submissions failed with unexpected errors", backend, n)
	}
	if n := failedJobs.Load(); n > 0 {
		t.Fatalf("%s: %d jobs did not complete successfully", backend, n)
	}
	if got := completed.Load(); got != smokeSubmissions {
		t.Fatalf("%s: completed %d of %d submissions", backend, got, smokeSubmissions)
	}

	snap := s.Snapshot()
	t.Logf("load smoke (%s): %d jobs in %v (%d executions, %d collapses, %d cache hits, %d throttled)",
		backend, smokeSubmissions, wall.Round(time.Millisecond),
		snap.Executions, snap.SingleflightCollapses, snap.ResultHits, snap.Throttled)
	return snap
}

// TestLoadSmoke is a correctness burst, not a benchmark: every job of
// the burst must complete on both execution backends through the
// 64-slot queue. The serve numbers live in the front-door benchmark
// (benchmark/, workloads serve-hot / serve-mixed / serve-exec).
func TestLoadSmoke(t *testing.T) {
	interp := driveLoad(t, machine.BackendInterp)
	compiled := driveLoad(t, machine.BackendCompiled)

	// The compiled service must have lowered the one distinct program
	// fingerprint exactly once and run every real execution on it.
	if compiled.Compiles != 1 {
		t.Errorf("compiled smoke: Compiles = %d, want 1", compiled.Compiles)
	}
	if compiled.CompiledRuns == 0 {
		t.Error("compiled smoke: no jobs executed on the compiled backend")
	}

	// Under the race detector (`make serve-test`) executions are slow
	// enough that concurrent duplicates must overlap: a burst with no
	// singleflight collapse executed them all redundantly. A plain build
	// can finish each run before its duplicate arrives, so the check is
	// only made there.
	if !raceDetectorOn {
		return
	}
	for _, r := range []struct {
		name string
		snap MetricsSnapshot
	}{{"interp", interp}, {"compiled", compiled}} {
		if r.snap.SingleflightCollapses == 0 {
			t.Errorf("%s burst recorded no singleflight collapses: concurrent duplicates all executed", r.name)
		}
	}
}
