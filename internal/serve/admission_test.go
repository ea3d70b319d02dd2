package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"tpal/internal/minipar"
	"tpal/internal/tpal/programs"
)

// TestAdmissionNoHeadOfLine: a submission whose verdict and result are
// both cached must not wait behind a stranger's analysis. The stranger
// is the triple-nest sample printed as TPAL, so its parse is
// microseconds and the tens of milliseconds it spends in Submit are the
// analysis pipeline and the optimizer. (With one leader admitting for
// everyone, the warm submission returned together with the stranger.)
func TestAdmissionNoHeadOfLine(t *testing.T) {
	src, err := os.ReadFile("../minipar/testdata/triple-nest.mp")
	if err != nil {
		t.Fatal(err)
	}
	mp, err := minipar.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	slowProg, err := minipar.Compile(mp)
	if err != nil {
		t.Fatal(err)
	}

	s := newTestService(t, Config{Workers: 2})
	warm := SubmitRequest{Tenant: "alice", Source: programs.ProdSource, Args: map[string]int64{"a": 3, "b": 4}}
	j, err := s.Submit(warm)
	if err != nil {
		t.Fatal(err)
	}
	await(t, j)

	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		_, err := s.Submit(SubmitRequest{Tenant: "stranger", Lang: "tpal", Source: slowProg.String(), Args: map[string]int64{"n": 3}})
		if err != nil {
			t.Errorf("slow Submit: %v", err)
		}
	}()
	for s.Snapshot().Submitted < 2 {
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(20 * time.Millisecond) // the stranger is inside its analysis now
	select {
	case <-slowDone:
		t.Skip("the slow admission finished within 20ms: nothing to be blocked behind on this machine")
	default:
	}

	j, err = s.Submit(warm)
	if err != nil {
		t.Fatal(err)
	}
	if !j.Cached {
		t.Fatalf("warm resubmission was not a result-cache hit: %+v", j.view())
	}
	select {
	case <-slowDone:
		t.Error("the cached submission returned only after the stranger's admission finished")
	default:
	}
	<-slowDone
}

// TestAdmitAnalyzesOncePerKey: however many submitters race on one
// never-seen program, the pipeline runs once and every job carries the
// same verdict and quote. Under -race this also checks that the Once on
// the cache entry is what publishes the entry's fields.
func TestAdmitAnalyzesOncePerKey(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, QueueCap: 64})
	const n = 32
	views := make([]JobView, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			j, err := s.Submit(SubmitRequest{Tenant: "alice", Source: programs.PowSource, Args: map[string]int64{"d": 2, "e": int64(i)}})
			if err != nil {
				t.Errorf("Submit %d: %v", i, err)
				return
			}
			views[i] = await(t, j)
		}()
	}
	close(start)
	wg.Wait()

	if m := s.Snapshot(); m.Analyses != 1 || m.AnalysisHits != n-1 {
		t.Errorf("analyses = %d, analysis hits = %d, want 1 and %d", m.Analyses, m.AnalysisHits, n-1)
	}
	for i, v := range views {
		if v.Status != StatusDone {
			t.Errorf("job %d: status %s (%s)", i, v.Status, v.Error)
		}
		if v.Fingerprint != views[0].Fingerprint || !reflect.DeepEqual(v.Quote, views[0].Quote) {
			t.Errorf("job %d disagrees with job 0 on the verdict:\n  %s %+v\n  %s %+v",
				i, v.Fingerprint, v.Quote, views[0].Fingerprint, views[0].Quote)
		}
	}
}

// TestAdmitPanicCondemnsEntry: the cache entry is claimed before it is
// filled and a panicking Once is spent, so a panic inside the pipeline
// must not leave a zero-valued entry behind — that reads as admitted
// with budget 0, which the machine takes as unlimited fuel. The panic is
// injected by zeroing QuoteMargin after New (which never leaves it 0):
// pricing the admitted program then divides by zero inside the Once.
func TestAdmitPanicCondemnsEntry(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	s.cfg.QuoteMargin = 0
	req := SubmitRequest{Tenant: "alice", Source: programs.ProdSource, Args: map[string]int64{"a": 3, "b": 4}}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the first Submit did not panic: the injection no longer reaches the pipeline")
			}
		}()
		s.Submit(req)
	}()

	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if v := j.view(); v.Status != StatusRejected || v.Error != "analysis failed" {
		t.Errorf("resubmission after a panicked analysis: status %s error %q budget %d, want rejected / analysis failed",
			v.Status, v.Error, v.Quote.Budget)
	}
	if m := s.Snapshot(); m.Analyses != 1 || m.AnalysisHits != 1 {
		t.Errorf("analyses = %d, analysis hits = %d, want 1 and 1 (the condemned entry is the cached verdict)", m.Analyses, m.AnalysisHits)
	}
}

// TestRejectedSubmissionPastRetentionIs422: a rejected job is terminal
// at submission, so with a tiny TTL it is evicted from the id map
// before the handler builds its response. The response must still be
// the 422 with the job's diagnostics, not a 202 with an empty view.
func TestRejectedSubmissionPastRetentionIs422(t *testing.T) {
	src, err := os.ReadFile("../../examples/races/racy.tpal")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestService(t, Config{Workers: 1, JobTTL: time.Nanosecond})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := &httpClient{t: t, base: srv.URL}

	code, body := c.post("/v1/jobs", SubmitRequest{Tenant: "mallory", Source: string(src)})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", code, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("decode: %v: %s", err, body)
	}
	if v.ID == "" || v.Status != StatusRejected {
		t.Errorf("id %q status %q, want a non-empty id and rejected", v.ID, v.Status)
	}
	if !hasCode(v.Diags, "TP060") && !hasCode(v.Diags, "TP061") && !hasCode(v.Diags, "TP062") {
		t.Errorf("rejection carries no TP06x diagnostic: %+v", v.Diags)
	}
}
