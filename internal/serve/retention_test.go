package serve

import (
	"testing"
	"time"

	"tpal/internal/tpal/programs"
)

// TestJobRetentionCap pins the job-table leak fix: terminal records
// beyond JobRetention are evicted oldest-first, the map stays bounded,
// and a GET on an evicted id reports not-found. (The original service
// kept every job record forever.)
func TestJobRetentionCap(t *testing.T) {
	const keep = 8
	s := newTestService(t, Config{Workers: 2, JobRetention: keep, JobTTL: time.Hour})

	const n = 40
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		j, err := s.Submit(SubmitRequest{
			Tenant: "alice",
			Source: programs.ProdSource,
			Args:   map[string]int64{"a": 3, "b": int64(i)}, // distinct cache keys
		})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		await(t, j)
		ids = append(ids, j.ID)
		// A retained record is a view: the per-submission parsed
		// program and registers must not be retained with it.
		s.mu.Lock()
		if j.prog != nil || j.compiled != nil || j.regs != nil {
			t.Errorf("terminal job %s still holds its execution inputs", j.ID)
		}
		s.mu.Unlock()
	}

	s.mu.Lock()
	size := len(s.jobs)
	s.mu.Unlock()
	if size > keep {
		t.Errorf("job table holds %d records, want <= %d", size, keep)
	}

	if _, ok := s.JobView(ids[0]); ok {
		t.Errorf("oldest job %s still resolvable past the retention cap", ids[0])
	}
	last := ids[len(ids)-1]
	v, ok := s.JobView(last)
	if !ok {
		t.Fatalf("newest job %s evicted, want retained", last)
	}
	if v.Status != StatusDone {
		t.Errorf("newest job status = %s, want done", v.Status)
	}
	if m := s.Snapshot(); m.JobsEvicted < int64(n-keep) {
		t.Errorf("JobsEvicted = %d, want >= %d", m.JobsEvicted, n-keep)
	}
}

// TestJobRetentionTTL evicts terminal records by age: after the TTL
// passes, a lookup prunes the record and reports not-found.
func TestJobRetentionTTL(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, JobRetention: 1024, JobTTL: 30 * time.Millisecond})
	j, err := s.Submit(SubmitRequest{
		Tenant: "alice",
		Source: programs.ProdSource,
		Args:   map[string]int64{"a": 2, "b": 2},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	await(t, j)
	if _, ok := s.JobView(j.ID); !ok {
		t.Fatalf("job %s missing immediately after completion", j.ID)
	}
	time.Sleep(80 * time.Millisecond)
	if _, ok := s.JobView(j.ID); ok {
		t.Errorf("job %s still resolvable past its TTL", j.ID)
	}
}
