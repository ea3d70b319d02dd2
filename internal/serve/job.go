package serve

import (
	"time"

	"tpal/internal/minipar/autopar"
	"tpal/internal/tpal"
	"tpal/internal/tpal/machine"
	"tpal/internal/trace"
)

// Status is a job's position in the service state machine:
//
//	queued ───────► running ───► done
//	   │               │     ├──► failed           (machine fault / race)
//	   │               │     ├──► budget_exceeded  (fuel spent)
//	   │               │     └──► timeout          (deadline passed)
//	   └──► canceled (drain)
//
// plus rejected, the terminal state of a submission that never passed
// the admission gate. done can also be reached straight from submission
// when the result cache already holds the answer.
type Status string

// Job statuses.
const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusRejected Status = "rejected"
	StatusFailed   Status = "failed"
	StatusBudget   Status = "budget_exceeded"
	StatusTimeout  Status = "timeout"
	StatusCanceled Status = "canceled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s != StatusQueued && s != StatusRunning
}

// Quote is the admission-time cost estimate attached to every admitted
// job: the symbolic work/span bounds from the static estimator (§8 of
// DESIGN.md), the work bound evaluated under the service's assumed trip
// counts, and the step budget the estimate was converted into. The
// budget is the fuel the executor grants the run; exceeding it moves
// the job to budget_exceeded.
type Quote struct {
	Work     string `json:"work"`      // symbolic work bound
	Span     string `json:"span"`      // symbolic span bound
	EstSteps int64  `json:"est_steps"` // work evaluated at the assumed trip counts
	Budget   int64  `json:"budget"`    // granted fuel, in machine steps
	// OptRewrites counts the certified optimizer rewrites applied to the
	// program this quote prices; 0 means the submitted form ran as-is.
	OptRewrites int `json:"opt_rewrites,omitempty"`
	// Trips records, per loop header contributing to the work bound, the
	// trip count the quote priced it at and where that count came from:
	// "inferred" counts are upper bounds the interval analysis proved,
	// "assumed" counts fall back to the service's TripAssume default. An
	// all-inferred quote is honest — the program cannot do more work than
	// the estimate — while any assumed entry marks the quote as a guess.
	Trips map[string]TripQuote `json:"trips,omitempty"`
}

// TripQuote is one loop header's pricing inside a Quote.
type TripQuote struct {
	Count  int64  `json:"count"`  // trip count the quote used
	Source string `json:"source"` // "inferred" or "assumed"
}

// JobStats mirrors machine.Stats in the wire format, the per-job
// execution statistics reported by GET /v1/jobs/{id}.
type JobStats struct {
	Steps           int64 `json:"steps"`
	Work            int64 `json:"work"`
	Span            int64 `json:"span"`
	Forks           int64 `json:"forks"`
	Joins           int64 `json:"joins"`
	Promotions      int64 `json:"promotions"` // heartbeat handler entries
	Signals         int64 `json:"signals"`
	JoinRecords     int64 `json:"join_records"`
	TasksCreated    int64 `json:"tasks_created"`
	MaxLiveTasks    int   `json:"max_live_tasks"`
	MaxPromotionGap int64 `json:"max_promotion_gap"`
}

func statsOf(st machine.Stats) *JobStats {
	return &JobStats{
		Steps:           st.Steps,
		Work:            st.Work,
		Span:            st.Span,
		Forks:           st.Forks,
		Joins:           st.Joins,
		Promotions:      st.HandlerRuns,
		Signals:         st.SignalsDelivered,
		JoinRecords:     st.JoinRecords,
		TasksCreated:    st.TasksCreated,
		MaxLiveTasks:    st.MaxLiveTasks,
		MaxPromotionGap: st.MaxPromotionGap,
	}
}

// JobTrace is the wire summary of a traced execution: the tail of the
// event stream (rendered, capped at jobTraceEventCap entries) plus the
// exact aggregates, which cover overwritten events too. MaxGap is the
// dynamic counterpart of the quote's static promotion-latency bound —
// for latency-finite programs it must not exceed it.
type JobTrace struct {
	Events   []string         `json:"events,omitempty"`
	Retained int              `json:"retained"` // ring events at drain, pre-cap
	Dropped  int64            `json:"dropped"`  // overwritten by ring wrap
	Counts   map[string]int64 `json:"counts"`
	MaxGap   int64            `json:"max_promotion_gap"`
	GapHist  map[string]int64 `json:"gap_hist,omitempty"`
}

// jobTraceEventCap bounds the rendered event list in job views; the
// aggregate counters remain exact beyond it.
const jobTraceEventCap = 64

func jobTraceOf(tr *trace.Trace) *JobTrace {
	jt := &JobTrace{
		Retained: len(tr.Events),
		Dropped:  tr.Dropped,
		Counts:   tr.CountMap(),
		MaxGap:   tr.MaxGap,
		GapHist:  tr.GapHistMap(),
	}
	ev := tr.Events
	if len(ev) > jobTraceEventCap {
		ev = ev[len(ev)-jobTraceEventCap:]
	}
	jt.Events = make([]string, len(ev))
	for i, e := range ev {
		jt.Events[i] = e.String()
	}
	return jt
}

// AutoparSite is one candidate site of the auto-parallelizing pass in
// the wire format: where it was, what it was, and the verdict —
// parallelized (with the profitability model's prediction) or blocked
// with the TP07x code naming the failed dependence argument.
type AutoparSite struct {
	Site         string  `json:"site"` // source position, line:col
	Kind         string  `json:"kind"` // "loop" or "pair"
	Desc         string  `json:"desc"`
	Decision     string  `json:"decision"` // "parallelized" or "blocked TPnnn"
	Detail       string  `json:"detail"`
	Parallelized bool    `json:"parallelized"`
	Speedup      float64 `json:"predicted_speedup,omitempty"`
	// Trips and TripSource mirror the pass's profitability inputs for
	// loop sites: the trip count the model used and whether it was
	// "inferred" by constant propagation or "assumed" from TripAssume.
	Trips      int64  `json:"trips,omitempty"`
	TripSource string `json:"trip_source,omitempty"`
}

// AutoparReport is the job-level summary of an auto_parallelize
// submission: the verdict table plus the program-level predicted
// speedup from the source cost model. Source is the transformed
// minipar program that was actually admitted and executed.
type AutoparReport struct {
	Sites            []AutoparSite `json:"sites"`
	Parallelized     int           `json:"parallelized"`
	Blocked          int           `json:"blocked"`
	PredictedSpeedup float64       `json:"predicted_speedup"`
	SeqWork          int64         `json:"est_seq_work"`
	ParSpan          int64         `json:"est_par_span"`
	Source           string        `json:"source"`
}

func autoparReportOf(res *autopar.Result) *AutoparReport {
	rep := &AutoparReport{
		Sites:            make([]AutoparSite, len(res.Sites)),
		Parallelized:     res.Parallelized,
		Blocked:          res.Blocked,
		PredictedSpeedup: res.Speedup,
		SeqWork:          res.SeqWork,
		ParSpan:          res.ParSpan,
		Source:           res.Source,
	}
	for i, v := range res.Sites {
		rep.Sites[i] = AutoparSite{
			Site:         v.Pos.String(),
			Kind:         v.Kind,
			Desc:         v.Desc,
			Decision:     v.Decision(),
			Detail:       v.Detail(),
			Parallelized: v.Parallelized,
			Speedup:      v.Speedup,
			Trips:        v.Trips,
			TripSource:   v.TripSource,
		}
	}
	return rep
}

// Diag is one admission diagnostic in the wire format, the same shape
// tpal-lint -json emits.
type Diag struct {
	Severity string `json:"severity"`
	Code     string `json:"code"`
	Block    string `json:"block"`
	Instr    int    `json:"instr"`
	Msg      string `json:"msg"`
}

// Job is one submission's record. All fields are guarded by the
// owning Service's mutex; View snapshots them for serialization.
type Job struct {
	ID          string
	Tenant      string
	Fingerprint string
	Status      Status
	Quote       Quote
	Diags       []Diag            // admission diagnostics (rejections)
	Result      map[string]string // final register file, rendered
	Stats       *JobStats
	Trace       *JobTrace      // drained trace summary (traced submissions only)
	Autopar     *AutoparReport // verdict table (auto_parallelize submissions only)
	Error       string
	Cached      bool // result served from the content-addressed result store

	Submitted time.Time
	Started   time.Time
	Finished  time.Time

	// Execution inputs, fixed at admission.
	prog      *tpal.Program
	regs      machine.RegFile
	heartbeat int64
	timeout   time.Duration
	traced    bool  // execute with a per-job tracer attached
	cost      int64 // DRR accounting weight (= Quote.Budget)
	cacheKey  string

	// Event stream state: replayable history, live subscribers, and the
	// trace-frame retention accounting (events.go).
	history          []jobEvent
	subs             []chan jobEvent
	traceHistN       int
	traceHistDropped int64

	cancel func()        // set while running; force-drain cancels through it
	done   chan struct{} // closed when the job reaches a terminal state
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// JobView is the wire representation of a job.
type JobView struct {
	ID          string            `json:"id"`
	Tenant      string            `json:"tenant"`
	Fingerprint string            `json:"fingerprint"`
	Status      Status            `json:"status"`
	Quote       *Quote            `json:"quote,omitempty"` // nil for rejections: nothing was quoted
	Diags       []Diag            `json:"diags,omitempty"`
	Result      map[string]string `json:"result,omitempty"`
	Stats       *JobStats         `json:"stats,omitempty"`
	Trace       *JobTrace         `json:"trace,omitempty"`
	Autopar     *AutoparReport    `json:"autopar,omitempty"`
	Error       string            `json:"error,omitempty"`
	Cached      bool              `json:"cached,omitempty"`
	QueueWaitMS float64           `json:"queue_wait_ms,omitempty"`
	ExecMS      float64           `json:"exec_ms,omitempty"`
}

func (j *Job) view() JobView {
	v := JobView{
		ID:          j.ID,
		Tenant:      j.Tenant,
		Fingerprint: j.Fingerprint,
		Status:      j.Status,
		Diags:       j.Diags,
		Result:      j.Result,
		Stats:       j.Stats,
		Trace:       j.Trace,
		Autopar:     j.Autopar,
		Error:       j.Error,
		Cached:      j.Cached,
	}
	if j.Status != StatusRejected {
		q := j.Quote
		v.Quote = &q
	}
	if !j.Started.IsZero() {
		v.QueueWaitMS = float64(j.Started.Sub(j.Submitted)) / float64(time.Millisecond)
	}
	if !j.Finished.IsZero() && !j.Started.IsZero() {
		v.ExecMS = float64(j.Finished.Sub(j.Started)) / float64(time.Millisecond)
	}
	return v
}
