package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// jobView is the part of the daemon's public job view the benchmark
// reads.
type jobView struct {
	ID     string            `json:"id"`
	Status string            `json:"status"`
	Result map[string]string `json:"result"`
	Error  string            `json:"error"`
	Diags  []struct {
		Code string `json:"code"`
	} `json:"diags"`
	Stats *struct {
		Steps int64 `json:"steps"`
	} `json:"stats"`
	Cached      bool    `json:"cached"`
	Coalesced   bool    `json:"coalesced"`
	QueueWaitMS float64 `json:"queue_wait_ms"`
	ExecMS      float64 `json:"exec_ms"`
}

func terminal(status string) bool { return status != "queued" && status != "running" }

// check compares a job's final view against what the generator
// expected and returns "" or the reason it is a failure.
func check(exp expect, httpStatus int, v *jobView) string {
	switch exp.Status {
	case "rejected":
		if httpStatus != http.StatusUnprocessableEntity || v.Status != "rejected" {
			return fmt.Sprintf("want 422 rejected %s, got HTTP %d %s", exp.Code, httpStatus, v.Status)
		}
		for _, d := range v.Diags {
			if d.Code == exp.Code {
				return ""
			}
		}
		if strings.Contains(v.Error, exp.Code) {
			return ""
		}
		return fmt.Sprintf("rejected without %s: %s", exp.Code, v.Error)
	default:
		if httpStatus != http.StatusAccepted {
			return fmt.Sprintf("want 202, got HTTP %d (%s %s)", httpStatus, v.Status, v.Error)
		}
		if v.Status != exp.Status {
			return fmt.Sprintf("want status %s, got %s (%s)", exp.Status, v.Status, v.Error)
		}
		if exp.Status == "done" && exp.Reg != "" {
			if got, want := v.Result[exp.Reg], strconv.FormatInt(exp.Val, 10); got != want {
				return fmt.Sprintf("register %s = %q, oracle says %s", exp.Reg, got, want)
			}
		}
		return ""
	}
}

// sample is one operation as the load generator saw it.
type sample struct {
	Idx      int
	Due      time.Time // when the schedule said to send it
	Sent     time.Time // when the POST actually left
	Replied  time.Time // when the POST response was read
	Finished time.Time // when the terminal state was observed
	View     jobView
	Why      string // "" = reached its expected outcome, verified
}

// submitMS is what a tenant waits for an id or a 422, from due.
func (s *sample) submitMS() float64 { return ms(s.Replied.Sub(s.Due)) }

func (s *sample) lateMS() float64 { return ms(s.Sent.Sub(s.Due)) }

// turnaroundMS is (POST reply − due) + queue wait + execution, the last
// two from the daemon's own job view: a job terminal at the POST reply
// (cache hit, rejection) contributes only the first term, time the
// benchmark spends before it reads the final view never enters, and
// generator lateness always does.
func (s *sample) turnaroundMS() float64 {
	return s.submitMS() + s.View.QueueWaitMS + s.View.ExecMS
}

func (s *sample) executed() bool { return s.View.ExecMS > 0 }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// loader drives one daemon with one request stream.
type loader struct {
	client *http.Client
	base   string
	reqs   []request
}

func newLoader(base string, reqs []request) *loader {
	tr := &http.Transport{MaxIdleConns: 128, MaxIdleConnsPerHost: 128, DisableCompression: true}
	return &loader{client: &http.Client{Transport: tr}, base: base, reqs: reqs}
}

func (l *loader) close() { l.client.CloseIdleConnections() }

// do carries request idx from submission to its terminal state: POST
// /v1/jobs, then, if the job was queued, block on its event stream
// until the done frame delivers the final view.
func (l *loader) do(ctx context.Context, idx int, due time.Time) sample {
	r := &l.reqs[idx%len(l.reqs)]
	s := sample{Idx: idx, Due: due, Sent: time.Now()}
	fail := func(err error) sample {
		now := time.Now()
		if s.Replied.IsZero() {
			s.Replied = now
		}
		s.Finished = now
		s.Why = err.Error()
		return s
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, l.base+"/v1/jobs", bytes.NewReader(r.Body))
	if err != nil {
		return fail(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := l.client.Do(req)
	if err != nil {
		return fail(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.Replied = time.Now()
	if err != nil {
		return fail(err)
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusUnprocessableEntity {
		return fail(fmt.Errorf("POST /v1/jobs: HTTP %d: %.200s", resp.StatusCode, body))
	}
	if err := json.Unmarshal(body, &s.View); err != nil {
		return fail(fmt.Errorf("decode job view: %w", err))
	}
	if !terminal(s.View.Status) {
		v, err := l.await(ctx, s.View.ID)
		if err != nil {
			return fail(err)
		}
		s.View = v
	}
	s.Finished = time.Now()
	s.Why = check(r.Expect, resp.StatusCode, &s.View)
	return s
}

// await reads GET /v1/jobs/{id}/events to its done frame.
func (l *loader) await(ctx context.Context, id string) (jobView, error) {
	var v jobView
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, l.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return v, err
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("GET events %s: HTTP %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	isDone := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: done":
			isDone = true
		case isDone && strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(line[len("data: "):]), &v); err != nil {
				return v, fmt.Errorf("decode done frame of %s: %w", id, err)
			}
			// The daemon ends the response after the done frame; drain
			// it so the connection goes back to the pool.
			_, _ = io.Copy(io.Discard, resp.Body)
			return v, nil
		}
	}
	if err := sc.Err(); err != nil {
		return v, err
	}
	return v, fmt.Errorf("event stream of %s ended without a done frame", id)
}

// closed keeps `outstanding` jobs in flight, each sent as soon as an
// earlier one reaches its terminal state, from request index lo on. It
// starts at most limit jobs (0 = no limit) and starts none once until,
// asked after every finish with the number finished so far, has said
// so. It returns every job started, in finish order.
func (l *loader) closed(ctx context.Context, lo, outstanding, limit int, until func(finished int) bool) []sample {
	var (
		mu      sync.Mutex
		started int
		stopped bool
		out     []sample
		wg      sync.WaitGroup
	)
	for w := 0; w < outstanding; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				mu.Lock()
				if stopped || (limit > 0 && started >= limit) {
					mu.Unlock()
					return
				}
				idx := lo + started
				started++
				mu.Unlock()
				s := l.do(ctx, idx, time.Now())
				mu.Lock()
				out = append(out, s)
				stopped = stopped || (until != nil && until(len(out)))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// spinWindow is how long before a due time the open loop stops
// sleeping and starts yielding in a loop instead: timers on the boxes
// this runs on fire 0.3 to 1 ms late, which is as long as the fastest
// jobs take.
const spinWindow = time.Millisecond

func waitUntil(ctx context.Context, due time.Time) {
	if d := time.Until(due) - spinWindow; d > 0 {
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return
		}
	}
	for time.Now().Before(due) && ctx.Err() == nil {
		runtime.Gosched()
	}
}

// maxOpenInFlight bounds the open loop's goroutines. It is far above
// what any workload reaches at its offered rate; a job that finds it
// exhausted waits, and the wait is reported as generator lateness.
const maxOpenInFlight = 256

// open sends requests lo..lo+n-1 on a fixed schedule, one every 1/rate
// seconds, whether or not earlier ones have completed, and returns them
// in index order once all are terminal.
func (l *loader) open(ctx context.Context, lo, n int, rate float64) []sample {
	out := make([]sample, n)
	sem := make(chan struct{}, maxOpenInFlight)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n && ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		waitUntil(ctx, due)
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = l.do(ctx, lo+i, due)
			<-sem
		}(i)
	}
	wg.Wait()
	return out
}
