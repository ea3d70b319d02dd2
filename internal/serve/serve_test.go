package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"tpal/internal/tpal/programs"
)

// racySrc seeds a definite TP060 write/write race: both sides of the
// fork store to cell 0 of the shared pre-fork stack.
const racySrc = `
program racy entry main

block main [.] {
  sp := snew
  salloc sp, 2
  jr := jralloc after
  fork jr, body
  mem[sp + 0] := 1
  join jr
}

block body [.] {
  mem[sp + 0] := 2
  join jr
}

block after [jtppt assoc-comm; {}; comb] {
  halt
}

block comb [.] {
  join jr
}
`

// unboundedSrc uses the promotion machinery (the entry block is
// promotion-ready) but then enters a loop that never crosses a
// promotion-ready point: the liveness pass grades it LatencyUnbounded
// and pins TP050 on the loop — a task that could starve the shared
// pool's heartbeat scheduler forever.
const unboundedSrc = `
program spin entry main

block main [prppt hb] {
  x := 0
  jump loop
}

block hb [.] {
  jump loop
}

block loop [.] {
  x := x + 1
  jump loop
}
`

// newTestService builds a service with small, test-friendly knobs.
func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s
}

func await(t *testing.T, j *Job) JobView {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not reach a terminal state", j.ID)
	}
	return jobView(t, j)
}

func jobView(t *testing.T, j *Job) JobView {
	t.Helper()
	// Reading without the service lock is safe here: await only calls
	// this after Done, and close(done) happens after the last write to
	// the job under the lock.
	return j.view()
}

func TestSubmitValidProgramCompletes(t *testing.T) {
	s := newTestService(t, Config{Workers: 2})
	j, err := s.Submit(SubmitRequest{
		Tenant: "alice",
		Source: programs.ProdSource,
		Args:   map[string]int64{"a": 21, "b": 2},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	v := await(t, j)
	if v.Status != StatusDone {
		t.Fatalf("status = %s (%s), want done", v.Status, v.Error)
	}
	if v.Result["c"] != "42" {
		t.Errorf("c = %q, want 42", v.Result["c"])
	}
	if v.Stats == nil || v.Stats.Steps == 0 {
		t.Errorf("stats missing from completed job: %+v", v.Stats)
	}
	if v.Quote.Budget <= 0 {
		t.Errorf("admitted job has no budget: %+v", v.Quote)
	}
}

func TestAdmissionRejectsRace(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	j, err := s.Submit(SubmitRequest{Tenant: "mallory", Source: racySrc})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if j.Status != StatusRejected {
		t.Fatalf("status = %s, want rejected", j.Status)
	}
	if !hasCode(j.Diags, "TP060") {
		t.Errorf("rejection diags %+v carry no TP060", j.Diags)
	}
}

func TestAdmissionRejectsUnboundedLatency(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	j, err := s.Submit(SubmitRequest{Tenant: "mallory", Source: unboundedSrc})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if j.Status != StatusRejected {
		t.Fatalf("status = %s, want rejected", j.Status)
	}
	if !hasCode(j.Diags, "TP050") {
		t.Errorf("rejection diags %+v carry no TP050", j.Diags)
	}
}

// divergentSrc is statically divergent: once the loop is entered no
// exit edge is feasible and the region never halts or joins, so the
// interval/trip pass condemns it with TP090 (an Error) and the gate
// rejects it before any fuel is granted.
const divergentSrc = `
program div entry main

block main [.] {
  x := 0
  jump loop
}

block loop [.] {
  x := x + 1
  jump loop
}
`

// boundedSrc is a constant-bounded countdown: the trip pass proves
// loop runs exactly 6 times, so the quote prices it from the proved
// bound with provenance "inferred" instead of assuming TripAssume. The
// loop header is promotion-ready (with a decline-everything handler)
// so the latency gate stays happy.
const boundedSrc = `
program bounded entry main

block main [.] {
  i := 5
  jump loop
}

block loop [prppt hb] {
  t := i == 0
  if-jump t, done
  i := i - 1
  jump loop
}

block hb [.] {
  jump loop
}

block done [.] {
  halt
}
`

func TestAdmissionRejectsDivergentLoop(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	j, err := s.Submit(SubmitRequest{Tenant: "mallory", Source: divergentSrc})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if j.Status != StatusRejected {
		t.Fatalf("status = %s, want rejected", j.Status)
	}
	if !hasCode(j.Diags, "TP090") {
		t.Errorf("rejection diags %+v carry no TP090", j.Diags)
	}
}

func TestQuotePricesInferredTrips(t *testing.T) {
	// MinBudget 1 exposes the raw margin math; TripAssume is set
	// absurdly high so any fallback to it would blow the assertion.
	s := newTestService(t, Config{
		Workers:    1,
		MinBudget:  1,
		TripAssume: 1 << 20,
	})
	j, err := s.Submit(SubmitRequest{Tenant: "alice", Source: boundedSrc})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if j.Quote.OptRewrites != 0 {
		t.Fatalf("the optimizer rewrote the countdown (%d rewrites); the quote no longer prices it as written", j.Quote.OptRewrites)
	}
	tq, ok := j.Quote.Trips["loop"]
	if !ok {
		t.Fatalf("quote has no trip entry for loop: %+v", j.Quote)
	}
	if tq.Source != "inferred" || tq.Count != 6 {
		t.Errorf("loop priced as %+v, want {Count:6 Source:inferred}", tq)
	}
	if j.Quote.EstSteps <= 0 || j.Quote.EstSteps >= 100 {
		t.Errorf("est_steps = %d, want a small fully-numeric estimate", j.Quote.EstSteps)
	}
	if want := j.Quote.EstSteps * s.cfg.QuoteMargin; j.Quote.Budget != want {
		t.Errorf("budget = %d, want est*margin = %d", j.Quote.Budget, want)
	}
	v := await(t, j)
	if v.Status != StatusDone {
		t.Fatalf("status = %s (%s), want done — an inferred quote must cover the real run", v.Status, v.Error)
	}
}

func TestQuoteAssumedTripsProvenance(t *testing.T) {
	// prod's loop count is an entry register, so its trip is unknowable
	// statically and the quote must say so.
	s := newTestService(t, Config{Workers: 1})
	j, err := s.Submit(SubmitRequest{
		Tenant: "alice",
		Source: programs.ProdSource,
		Args:   map[string]int64{"a": 3, "b": 4},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if j.Quote.OptRewrites != 0 {
		t.Fatalf("the optimizer rewrote prod (%d rewrites); the quote no longer prices it as written", j.Quote.OptRewrites)
	}
	if len(j.Quote.Trips) == 0 {
		t.Fatalf("quote has no trip provenance: %+v", j.Quote)
	}
	for h, tq := range j.Quote.Trips {
		if tq.Source != "assumed" || tq.Count != s.cfg.TripAssume {
			t.Errorf("header %s priced as %+v, want assumed TripAssume=%d", h, tq, s.cfg.TripAssume)
		}
	}
	v := await(t, j)
	if v.Status != StatusDone {
		t.Fatalf("status = %s (%s), want done", v.Status, v.Error)
	}
}

func TestBadSourceIsBadRequest(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	_, err := s.Submit(SubmitRequest{Source: "block { nonsense"})
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("err = %v, want ErrBadRequest", err)
	}
}

func TestBudgetExceededJob(t *testing.T) {
	// Quote knobs tuned so prod's estimate lands on the budget floor,
	// then ask for vastly more work than the floor covers.
	s := newTestService(t, Config{
		Workers:    1,
		TripAssume: 64,
		MinBudget:  20_000,
		FuelCap:    1_000_000,
	})
	// prod iterates a times (r += b per pass), so a huge a is the hog.
	j, err := s.Submit(SubmitRequest{
		Tenant: "hog",
		Source: programs.ProdSource,
		Args:   map[string]int64{"a": 50_000_000, "b": 1},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	v := await(t, j)
	if v.Status != StatusBudget {
		t.Fatalf("status = %s (%s), want budget_exceeded", v.Status, v.Error)
	}
}

func TestExplicitFuelLowersBudget(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	j, err := s.Submit(SubmitRequest{
		Tenant: "frugal",
		Source: programs.ProdSource,
		Args:   map[string]int64{"a": 1_000_000, "b": 1},
		Fuel:   500,
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if j.Quote.Budget != 500 {
		t.Fatalf("budget = %d, want the requested 500", j.Quote.Budget)
	}
	v := await(t, j)
	if v.Status != StatusBudget {
		t.Fatalf("status = %s (%s), want budget_exceeded", v.Status, v.Error)
	}
}

// TestDuplicateKeepsItsOwnDeadline: a job identical to one already
// running executes under its own deadline, not the running job's. Alice
// asks for 1ms, Bob for the default; Alice's run is held in execution
// while Bob submits. Alice times out, and Bob's job still completes.
func TestDuplicateKeepsItsOwnDeadline(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	release := make(chan struct{})
	running := make(chan struct{})
	var once sync.Once
	s.setRunningHook(func(*Job) {
		once.Do(func() {
			close(running)
			<-release
		})
	})

	req := SubmitRequest{
		Tenant:    "alice",
		Source:    programs.ProdSource,
		Args:      map[string]int64{"a": 40_000, "b": 3},
		TimeoutMS: 1,
	}
	alice, err := s.Submit(req)
	if err != nil {
		t.Fatalf("Submit alice: %v", err)
	}
	<-running // alice is in execution now

	req.Tenant, req.TimeoutMS = "bob", 0
	bob, err := s.Submit(req)
	if err != nil {
		t.Fatalf("Submit bob: %v", err)
	}
	close(release)

	if v := await(t, alice); v.Status != StatusTimeout {
		t.Errorf("alice: status = %s (%s), want timeout", v.Status, v.Error)
	}
	v := await(t, bob)
	if v.Status != StatusDone || v.Result["c"] != "120000" {
		t.Errorf("bob: status = %s (%s), c = %q, want done with c = 120000", v.Status, v.Error, v.Result["c"])
	}
}

func TestTimeoutJob(t *testing.T) {
	// A genuinely long run (budget floor raised well past what 50ms
	// covers) against a tiny deadline, so the deadline fires first.
	s := newTestService(t, Config{
		Workers:   1,
		FuelCap:   1 << 40,
		MinBudget: 1 << 40,
	})
	j, err := s.Submit(SubmitRequest{
		Tenant:    "slow",
		Source:    programs.ProdSource,
		Args:      map[string]int64{"a": 1 << 40, "b": 1},
		TimeoutMS: 50,
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	v := await(t, j)
	if v.Status != StatusTimeout {
		t.Fatalf("status = %s (%s), want timeout", v.Status, v.Error)
	}
}

func TestResultCacheHit(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	req := SubmitRequest{
		Tenant: "alice",
		Source: programs.PowSource,
		Args:   map[string]int64{"d": 2, "e": 5},
	}
	j1, err := s.Submit(req)
	if err != nil {
		t.Fatalf("Submit 1: %v", err)
	}
	v1 := await(t, j1)
	if v1.Status != StatusDone || v1.Cached {
		t.Fatalf("first run: status %s cached %v, want a fresh done", v1.Status, v1.Cached)
	}

	j2, err := s.Submit(req)
	if err != nil {
		t.Fatalf("Submit 2: %v", err)
	}
	v2 := await(t, j2)
	if v2.Status != StatusDone || !v2.Cached {
		t.Fatalf("second run: status %s cached %v, want a cache hit", v2.Status, v2.Cached)
	}
	if v1.Result["f"] != v2.Result["f"] {
		t.Errorf("cached result %q differs from fresh %q", v2.Result["f"], v1.Result["f"])
	}

	// Different args must miss.
	j3, err := s.Submit(SubmitRequest{
		Tenant: "alice",
		Source: programs.PowSource,
		Args:   map[string]int64{"d": 2, "e": 6},
	})
	if err != nil {
		t.Fatalf("Submit 3: %v", err)
	}
	if v3 := await(t, j3); v3.Cached {
		t.Errorf("different args hit the result cache")
	}

	snap := s.Snapshot()
	if snap.ResultHits != 1 {
		t.Errorf("result cache hits = %d, want 1", snap.ResultHits)
	}
	if snap.AnalysisHits < 2 {
		t.Errorf("analysis cache hits = %d, want >= 2 (same program re-admitted twice)", snap.AnalysisHits)
	}
}

func TestAnalysisCacheKeyedByEntrySet(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	fe, err := s.loadSubmission(SubmitRequest{Source: programs.ProdSource})
	if err != nil {
		t.Fatal(err)
	}
	a1, _ := s.admit(fe.prog, nil)
	a2, _ := s.admit(fe.prog, nil)
	if a1 != a2 {
		t.Errorf("same (program, entry) pair was re-analyzed")
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	s := newTestService(t, Config{Workers: 1, QueueCap: 2})
	s.setRunningHook(func(*Job) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
	})
	defer close(release)

	submit := func(b int64) (*Job, error) {
		return s.Submit(SubmitRequest{
			Tenant: "flood",
			Source: programs.ProdSource,
			Args:   map[string]int64{"a": 1, "b": b},
		})
	}
	// First job occupies the lone worker...
	if _, err := submit(2); err != nil {
		t.Fatalf("blocker: %v", err)
	}
	<-started
	// ...two more fill the queue...
	if _, err := submit(3); err != nil {
		t.Fatalf("fill 1: %v", err)
	}
	if _, err := submit(4); err != nil {
		t.Fatalf("fill 2: %v", err)
	}
	// ...and the next bounces.
	if _, err := submit(5); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if snap := s.Snapshot(); snap.Throttled != 1 {
		t.Errorf("throttled = %d, want 1", snap.Throttled)
	}
}

// TestDRRFairness drives the queue directly: tenant A's backlog of
// cheap jobs must interleave with tenant B's instead of being served
// strictly first-come-first-served.
func TestDRRFairness(t *testing.T) {
	q := newDRRQueue(100)
	mk := func(tenant string, cost int64) *Job {
		return &Job{Tenant: tenant, cost: cost}
	}
	for i := 0; i < 5; i++ {
		q.push(mk("a", 100))
	}
	for i := 0; i < 5; i++ {
		q.push(mk("b", 100))
	}
	var order []string
	for j := q.pop(); j != nil; j = q.pop() {
		order = append(order, j.Tenant)
	}
	want := []string{"a", "b", "a", "b", "a", "b", "a", "b", "a", "b"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("pop order %v, want strict alternation %v", order, want)
		}
	}
}

// TestDRRCostWeighting: a tenant submitting jobs 4× as expensive gets
// dispatched 4× less often — costs, not job counts, meter the pool.
func TestDRRCostWeighting(t *testing.T) {
	q := newDRRQueue(100)
	for i := 0; i < 3; i++ {
		q.push(&Job{Tenant: "heavy", cost: 400})
	}
	for i := 0; i < 8; i++ {
		q.push(&Job{Tenant: "light", cost: 100})
	}
	var order []string
	for j := q.pop(); j != nil; j = q.pop() {
		order = append(order, j.Tenant)
	}
	// In any window where both tenants are backlogged, light should get
	// roughly 4 dispatches per heavy one. Count lights before the
	// second heavy job.
	lights := 0
	heavies := 0
	for _, tn := range order {
		if tn == "heavy" {
			heavies++
			if heavies == 2 {
				break
			}
		} else {
			lights++
		}
	}
	if lights < 3 {
		t.Fatalf("only %d light jobs ran before the second heavy one (order %v)", lights, order)
	}
}

// TestServiceFairAcrossTenants: DRR meters every backlogged tenant
// against every other one, whichever tenants they are. Three tenants
// queue twelve equal-cost jobs each behind two held blockers; by the
// time one of them starts its twelfth job the other two must have
// started nearly all of theirs. (When tenants were hashed onto one DRR
// queue per executor, FNV-1a put a and c together and b alone, so b had
// a worker to itself and finished while a and c were half way.)
func TestServiceFairAcrossTenants(t *testing.T) {
	// TripAssume is raised so the quote covers a=5000: each job then
	// runs for milliseconds and scheduling noise cannot reorder starts.
	s := newTestService(t, Config{Workers: 2, TripAssume: 1 << 14})
	release := make(chan struct{})
	blocked := make(chan struct{}, 2)
	var mu sync.Mutex
	started := map[string]int{}
	atB12 := map[string]int{}
	s.setRunningHook(func(j *Job) {
		if j.Tenant == "blocker" {
			blocked <- struct{}{}
			<-release
			return
		}
		mu.Lock()
		defer mu.Unlock()
		started[j.Tenant]++
		if j.Tenant == "b" && started["b"] == 12 {
			atB12["a"], atB12["c"] = started["a"], started["c"]
		}
	})

	submit := func(tenant string, b int64) *Job {
		j, err := s.Submit(SubmitRequest{
			Tenant: tenant,
			Source: programs.ProdSource,
			Args:   map[string]int64{"a": 5000, "b": b}, // distinct cache keys, equal quotes
		})
		if err != nil {
			t.Fatalf("Submit %s/%d: %v", tenant, b, err)
		}
		return j
	}
	jobs := []*Job{submit("blocker", 1), submit("blocker", 2)}
	<-blocked
	<-blocked
	for i, tenant := range []string{"a", "c", "b"} {
		for k := 0; k < 12; k++ {
			jobs = append(jobs, submit(tenant, int64(100*(i+1)+k)))
		}
	}
	close(release)
	for _, j := range jobs {
		if v := await(t, j); v.Status != StatusDone {
			t.Fatalf("job %s: status %s (%s)", v.ID, v.Status, v.Error)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	for _, tenant := range []string{"a", "c"} {
		if atB12[tenant] < 10 {
			t.Errorf("when b started its 12th job, %s had started %d of 12, want >= 10", tenant, atB12[tenant])
		}
	}
}

// TestConcurrentSubmitters hammers Submit from many goroutines; the
// assertions are about accounting (every accepted job terminates, and
// the metrics add up), and the -race build checks the locking.
func TestConcurrentSubmitters(t *testing.T) {
	s := newTestService(t, Config{Workers: 4, QueueCap: 1024})
	const n = 60
	var wg sync.WaitGroup
	jobs := make(chan *Job, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := s.Submit(SubmitRequest{
				Tenant: []string{"a", "b", "c"}[i%3],
				Source: programs.ProdSource,
				Args:   map[string]int64{"a": int64(i), "b": int64(i%7 + 1)},
			})
			if err != nil {
				t.Errorf("Submit %d: %v", i, err)
				return
			}
			jobs <- j
		}(i)
	}
	wg.Wait()
	close(jobs)
	for j := range jobs {
		if v := await(t, j); v.Status != StatusDone {
			t.Errorf("job %s: status %s (%s)", v.ID, v.Status, v.Error)
		}
	}
	snap := s.Snapshot()
	if snap.Completed != n {
		t.Errorf("completed = %d, want %d", snap.Completed, n)
	}
}

func hasCode(ds []Diag, code string) bool {
	for _, d := range ds {
		if d.Code == code {
			return true
		}
	}
	return false
}
