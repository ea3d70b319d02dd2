package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"tpal/internal/tpal/programs"
)

// TestRetryAfterSeconds pins the 429 Retry-After math: expected drain
// time is queue depth × median execution time spread over the worker
// pool, ceiled to whole seconds, clamped to [1, 60]. (The original
// handler hardcoded 1 second regardless of backlog.)
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		depth   int
		p50MS   float64
		workers int
		want    int
	}{
		{0, 500, 4, 1},        // empty queue: floor
		{10, 0, 4, 1},         // no execution history yet: floor
		{10, 2000, 4, 5},      // 10×2s over 4 workers = 5s
		{10, 2000, 1, 20},     // one worker drains serially
		{7, 300, 2, 2},        // 2.1s/2 → ceil(1.05) = 2
		{1, 1, 8, 1},          // sub-second estimate: floor
		{100000, 5000, 2, 60}, // absurd backlog: capped
		{-3, 1000, 2, 1},      // defensive: negative depth clamps
		{5, 1000, 0, 5},       // defensive: zero workers treated as one
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.depth, c.p50MS, c.workers); got != c.want {
			t.Errorf("retryAfterSeconds(%d, %v, %d) = %d, want %d",
				c.depth, c.p50MS, c.workers, got, c.want)
		}
	}
}

// TestRetryAfterHeader checks the live header on a real 429: a wedged
// single-worker service with a full queue must send a parseable
// Retry-After in the valid range.
func TestRetryAfterHeader(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueCap: 1})
	release := make(chan struct{})
	running := make(chan struct{})
	var once sync.Once
	s.setRunningHook(func(*Job) {
		once.Do(func() { close(running) })
		<-release
	})
	defer close(release)

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	submit := func(b int64) *http.Response {
		buf, _ := json.Marshal(SubmitRequest{
			Tenant: "alice",
			Source: programs.ProdSource,
			Args:   map[string]int64{"a": 4, "b": b},
		})
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		resp.Body.Close()
		return resp
	}

	if resp := submit(1); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d, want 202", resp.StatusCode)
	}
	<-running // worker wedged on job 1; queue is empty again
	if resp := submit(2); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d, want 202", resp.StatusCode)
	}
	resp := submit(3)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", ra, err)
	}
	if secs < 1 || secs > 60 {
		t.Errorf("Retry-After = %d, want within [1, 60]", secs)
	}
}
