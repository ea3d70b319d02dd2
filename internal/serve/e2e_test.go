package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tpal/internal/tpal/programs"
)

// sumsqSrc is a minipar source: the front end is selected by
// auto-detection (no "program" header) and the declared params become
// the entry registers.
const sumsqSrc = `
params n
var total = 0
parfor i in 0 .. n reduce(total, +) {
    var sq = i * i
    total = total + sq
}
return total
`

type httpClient struct {
	t    *testing.T
	base string
}

func (c *httpClient) post(path string, body any) (int, []byte) {
	c.t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		c.t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(c.base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		c.t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	_, _ = out.ReadFrom(resp.Body)
	return resp.StatusCode, out.Bytes()
}

func (c *httpClient) get(path string) (int, []byte) {
	c.t.Helper()
	resp, err := http.Get(c.base + path)
	if err != nil {
		c.t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	_, _ = out.ReadFrom(resp.Body)
	return resp.StatusCode, out.Bytes()
}

// pollJob polls GET /v1/jobs/{id} until the job reaches a terminal
// state.
func (c *httpClient) pollJob(id string) JobView {
	c.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, body := c.get("/v1/jobs/" + id)
		if code != http.StatusOK {
			c.t.Fatalf("GET job %s: status %d: %s", id, code, body)
		}
		var v JobView
		if err := json.Unmarshal(body, &v); err != nil {
			c.t.Fatalf("decode job %s: %v", id, err)
		}
		if v.Status.Terminal() {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.t.Fatalf("job %s never reached a terminal state", id)
	return JobView{}
}

// TestEndToEndMixedBatch is the acceptance scenario from the issue: a
// concurrent mixed batch over the real HTTP surface — valid TPAL and
// minipar programs, a TP060-racy program, a TP050-unbounded program,
// and a budget-blowing hog — followed by queue-full backpressure and a
// clean drain, all under the race detector with no leaked goroutines.
func TestEndToEndMixedBatch(t *testing.T) {
	before := runtime.NumGoroutine()

	s := New(Config{
		Workers:    2,
		QueueCap:   64,
		TripAssume: 64,
		MinBudget:  50_000,
		FuelCap:    2_000_000,
	})
	srv := httptest.NewServer(s.Handler())
	// Cleanup order: drain the service first, then close the HTTP
	// server, then check for leaks (httptest keeps idle conns briefly).

	c := &httpClient{t: t, base: srv.URL}

	if code, _ := c.get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz before drain: %d, want 200", code)
	}

	type submission struct {
		name     string
		req      SubmitRequest
		wantCode int
		// For 202 submissions: expected terminal status and result.
		wantStatus Status
		wantReg    string
		wantVal    string
		// For 422 rejections: a TP code that must appear in diags.
		wantDiag string
	}
	subs := []submission{
		{
			name:       "prod",
			req:        SubmitRequest{Tenant: "alice", Source: programs.ProdSource, Args: map[string]int64{"a": 12, "b": 5}},
			wantCode:   http.StatusAccepted,
			wantStatus: StatusDone, wantReg: "c", wantVal: "60",
		},
		{
			name:       "pow",
			req:        SubmitRequest{Tenant: "bob", Source: programs.PowSource, Args: map[string]int64{"d": 3, "e": 4}, Heartbeat: 10},
			wantCode:   http.StatusAccepted,
			wantStatus: StatusDone, wantReg: "f", wantVal: "81",
		},
		{
			name:       "fib",
			req:        SubmitRequest{Tenant: "alice", Source: programs.FibSource, Args: map[string]int64{"n": 12}, Heartbeat: 4},
			wantCode:   http.StatusAccepted,
			wantStatus: StatusDone, wantReg: "f", wantVal: "144",
		},
		{
			name:       "minipar-sumsq",
			req:        SubmitRequest{Tenant: "carol", Lang: "minipar", Source: sumsqSrc, Args: map[string]int64{"n": 50}, Heartbeat: 16},
			wantCode:   http.StatusAccepted,
			wantStatus: StatusDone, wantReg: "result", wantVal: "40425",
		},
		{
			name:     "racy",
			req:      SubmitRequest{Tenant: "mallory", Source: racySrc},
			wantCode: http.StatusUnprocessableEntity,
			wantDiag: "TP060",
		},
		{
			name:     "unbounded",
			req:      SubmitRequest{Tenant: "mallory", Source: unboundedSrc},
			wantCode: http.StatusUnprocessableEntity,
			wantDiag: "TP050",
		},
		{
			// The hog passes admission (its symbolic work is a function
			// of the unknown trip count) but blows through the quoted
			// step budget at run time.
			name:       "hog",
			req:        SubmitRequest{Tenant: "mallory", Source: programs.ProdSource, Args: map[string]int64{"a": 100_000_000, "b": 1}},
			wantCode:   http.StatusAccepted,
			wantStatus: StatusBudget,
		},
	}

	var wg sync.WaitGroup
	results := make([]JobView, len(subs))
	codes := make([]int, len(subs))
	bodies := make([][]byte, len(subs))
	for i, sub := range subs {
		wg.Add(1)
		go func(i int, sub submission) {
			defer wg.Done()
			code, body := c.post("/v1/jobs", sub.req)
			codes[i], bodies[i] = code, body
			if code != http.StatusAccepted {
				return
			}
			var v JobView
			if err := json.Unmarshal(body, &v); err != nil {
				t.Errorf("%s: decode submit response: %v", sub.name, err)
				return
			}
			results[i] = c.pollJob(v.ID)
		}(i, sub)
	}
	wg.Wait()

	for i, sub := range subs {
		if codes[i] != sub.wantCode {
			t.Errorf("%s: HTTP %d, want %d: %s", sub.name, codes[i], sub.wantCode, bodies[i])
			continue
		}
		switch sub.wantCode {
		case http.StatusAccepted:
			v := results[i]
			if v.Status != sub.wantStatus {
				t.Errorf("%s: status %s (%s), want %s", sub.name, v.Status, v.Error, sub.wantStatus)
			}
			if sub.wantReg != "" && v.Result[sub.wantReg] != sub.wantVal {
				t.Errorf("%s: result %s = %q, want %q", sub.name, sub.wantReg, v.Result[sub.wantReg], sub.wantVal)
			}
		case http.StatusUnprocessableEntity:
			var v JobView
			if err := json.Unmarshal(bodies[i], &v); err != nil {
				t.Errorf("%s: decode rejection: %v", sub.name, err)
				continue
			}
			if v.Status != StatusRejected {
				t.Errorf("%s: status %s, want rejected", sub.name, v.Status)
			}
			found := false
			for _, d := range v.Diags {
				if d.Code == sub.wantDiag {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: rejection diags %v carry no %s", sub.name, v.Diags, sub.wantDiag)
			}
		}
	}

	// Malformed source is a 400, not a 422: it never reached admission.
	if code, body := c.post("/v1/jobs", SubmitRequest{Source: "program broken entry nowhere"}); code != http.StatusBadRequest {
		t.Errorf("malformed source: HTTP %d, want 400: %s", code, body)
	}

	// Unknown job id is a 404.
	if code, _ := c.get("/v1/jobs/j999999"); code != http.StatusNotFound {
		t.Errorf("unknown job: HTTP %d, want 404", code)
	}

	// /v1/analyze renders the full report without executing.
	code, body := c.post("/v1/analyze", AnalyzeRequest{Source: racySrc})
	if code != http.StatusOK {
		t.Fatalf("analyze: HTTP %d: %s", code, body)
	}
	var ar AnalyzeResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatalf("decode analyze: %v", err)
	}
	if ar.Admissible {
		t.Error("analyze: racy program reported admissible")
	}
	if len(ar.Diags) == 0 {
		t.Error("analyze: racy program carries no diags")
	}

	// Backpressure: with the single worker wedged and the queue shrunk
	// to two slots, a burst of submissions must hit a 429 with
	// Retry-After. We use a dedicated service so the wedge cannot
	// interfere with the batch above.
	s2 := New(Config{Workers: 1, QueueCap: 2})
	release := make(chan struct{})
	s2.setRunningHook(func(*Job) { <-release })
	srv2 := httptest.NewServer(s2.Handler())
	c2 := &httpClient{t: t, base: srv2.URL}
	saw429 := false
	for i := 0; i < 6; i++ {
		code, _ := c2.post("/v1/jobs", SubmitRequest{
			Tenant: fmt.Sprintf("t%d", i),
			Source: programs.ProdSource,
			Args:   map[string]int64{"a": int64(i + 1), "b": 2},
		})
		if code == http.StatusTooManyRequests {
			saw429 = true
		}
	}
	if !saw429 {
		t.Error("burst through a 2-slot queue never produced a 429")
	}
	close(release)

	// Metrics surface the story.
	code, body = c.get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", code)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	if snap.Rejected < 2 {
		t.Errorf("metrics: rejected = %d, want >= 2", snap.Rejected)
	}
	if snap.Completed < 4 {
		t.Errorf("metrics: completed = %d, want >= 4", snap.Completed)
	}
	if snap.BudgetExceeded < 1 {
		t.Errorf("metrics: budget_exceeded = %d, want >= 1", snap.BudgetExceeded)
	}

	// Clean drain: healthz flips to 503, submissions bounce with 503,
	// and everything shuts down without leaking goroutines.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if code, _ := c.get("/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("healthz after drain: %d, want 503", code)
	}
	if code, _ := c.post("/v1/jobs", SubmitRequest{Source: programs.ProdSource, Args: map[string]int64{"a": 1, "b": 1}}); code != http.StatusServiceUnavailable {
		t.Errorf("submit after drain: %d, want 503", code)
	}
	if err := s2.Drain(ctx); err != nil {
		t.Fatalf("drain s2: %v", err)
	}
	srv.Close()
	srv2.Close()
	waitGoroutines(t, before)
}

// TestOversizeBodyIs413: both POST endpoints refuse a body one byte past
// maxBodyBytes with 413 before decoding it, and still take a normal one.
func TestOversizeBodyIs413(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := &httpClient{t: t, base: srv.URL}

	prefix, suffix := `{"source":"`, `"}`
	huge := prefix + strings.Repeat("x", maxBodyBytes+1-len(prefix)-len(suffix)) + suffix
	for _, path := range []string{"/v1/jobs", "/v1/analyze"} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body: HTTP %d, want 413", path, len(huge), resp.StatusCode)
		}
	}

	if code, body := c.post("/v1/jobs", SubmitRequest{Source: programs.ProdSource, Args: map[string]int64{"a": 6, "b": 7}}); code != http.StatusAccepted {
		t.Errorf("normal submission: HTTP %d: %s", code, body)
	}
	if code, body := c.post("/v1/analyze", AnalyzeRequest{Source: programs.ProdSource, Entry: []string{"a", "b"}}); code != http.StatusOK {
		t.Errorf("normal analysis: HTTP %d: %s", code, body)
	}
}
