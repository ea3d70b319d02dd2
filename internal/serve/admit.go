package serve

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"tpal/internal/minipar"
	"tpal/internal/minipar/autopar"
	"tpal/internal/tpal"
	"tpal/internal/tpal/analysis"
	"tpal/internal/tpal/asm"
	"tpal/internal/tpal/opt"
)

// frontEnd is one submission after its front end: the program that
// faces the admission gate, the params its source declares, and the
// autopar report when the submission asked for the transform.
type frontEnd struct {
	prog    *tpal.Program
	params  []string
	autopar *AutoparReport
}

// loadSubmission parses a submission into a TPAL program. Lang selects
// the front end: "tpal" (assembly), "minipar" (compiled to TPAL), or ""
// (auto-detected — TPAL assembly always opens with the program
// keyword). With auto_parallelize the autopar dependence pass
// transforms the (minipar-only) source first, and the transformed,
// certified program is what gets admitted, with the per-site verdict
// report for the job record. Errors are submission errors (HTTP 400),
// never faults — including a transform that cannot even start because
// the input is not certification-clean.
func (s *Service) loadSubmission(req SubmitRequest) (frontEnd, error) {
	lang := cmp.Or(req.Lang, detectLang(req.Source))
	switch {
	case req.AutoParallelize && lang != "minipar":
		return frontEnd{}, fmt.Errorf("auto_parallelize requires a minipar source (got lang %q)", lang)
	case req.AutoParallelize:
		res, err := autopar.TransformSource(req.Source, autopar.Options{TripAssume: s.cfg.TripAssume})
		if err != nil {
			return frontEnd{}, fmt.Errorf("auto_parallelize: %w", err)
		}
		return frontEnd{res.Compiled, res.Program.Params, autoparReportOf(res)}, nil
	case lang == "tpal":
		p, err := asm.Parse(req.Source)
		if err != nil {
			return frontEnd{}, fmt.Errorf("parse tpal: %w", err)
		}
		return frontEnd{prog: p}, nil
	case lang == "minipar":
		mp, err := minipar.Parse(req.Source)
		if err != nil {
			return frontEnd{}, fmt.Errorf("parse minipar: %w", err)
		}
		p, err := minipar.Compile(mp)
		if err != nil {
			return frontEnd{}, fmt.Errorf("compile minipar: %w", err)
		}
		return frontEnd{prog: p, params: mp.Params}, nil
	}
	return frontEnd{}, fmt.Errorf("unknown lang %q (want tpal or minipar)", lang)
}

// entryRegs is one submission's entry-register set: the declared
// params, the argument keys and any extra names, each once, sorted.
// Submit and /v1/analyze both key admission by it.
func entryRegs(params []string, args map[string]int64, extra []string) []tpal.Reg {
	names := append(slices.Clone(params), extra...)
	for k := range args {
		names = append(names, k)
	}
	slices.Sort(names)
	entry := make([]tpal.Reg, 0, len(names))
	for _, name := range slices.Compact(names) {
		entry = append(entry, tpal.Reg(name))
	}
	return entry
}

// detectLang guesses the front end from the first non-comment line:
// TPAL assembly always opens with the program keyword, minipar never
// does (its comments start with #, TPAL's with //).
func detectLang(source string) string {
	for _, line := range strings.Split(source, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "//") || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, "program ") {
			return "tpal"
		}
		return "minipar"
	}
	return "tpal"
}

// admission is the cached outcome of the admission gate over one
// (program, entry-register-set) pair: the verdict, never the report it
// was taken from. The entry is its own singleflight: admit claims it in
// the cache under the service mutex and fills it outside the lock under
// analyzeOnce, which also publishes the fields to every other
// submitter of the same key.
type admission struct {
	analyzeOnce sync.Once
	fingerprint string
	diags       []Diag
	rejected    bool
	reason      string // one-line rejection summary
	quote       Quote
	// optimized is the certified-optimized program the executor runs in
	// place of the submitted one, and the program the quote prices; nil
	// when nothing was rewritten.
	optimized *tpal.Program
}

// admitKey keys the analysis cache: the program fingerprint plus the
// entry-register set (entryRegs), which sharpens the
// definite-initialization facts the verifier proves.
func admitKey(fp string, entry []tpal.Reg) string {
	names := make([]string, len(entry))
	for i, r := range entry {
		names[i] = string(r)
	}
	return fp + "|" + strings.Join(names, ",")
}

// admit runs the admission gate. A program is condemned when the static
// pipeline (verify, liveness, work/span, races) proves a definite fault
// or definite interference (any Error-severity diagnostic, TP060–TP062
// included), or when its promotion latency is unbounded (TP050): a task
// that can starve the shared heartbeat scheduler has no place on a
// multi-tenant pool. Everything else is admitted with a cost quote
// derived from the symbolic work bound.
//
// The verdict comes from one race-on analysis of p under the key's
// entry registers, which also prices the quote when the optimizer
// rewrites nothing; otherwise the optimizer's report of its output
// prices it.
//
// It is the only function that looks up or fills the verdict cache, for
// Submit and /v1/analyze alike. The first caller for a key claims an
// empty entry under the lock; whoever reaches analyzeOnce first fills
// it, the rest wait on that one entry, and callers with different keys
// never wait on each other. (An entry evicted while it is being filled
// is analyzed again by the next submitter; the pipeline is
// deterministic.) It also returns the report of p when this call filled
// the entry, and nil when the entry was already filled.
func (s *Service) admit(p *tpal.Program, entry []tpal.Reg) (*admission, *analysis.Report) {
	fp := tpal.Fingerprint(p)
	key := admitKey(fp, entry)

	s.mu.Lock()
	a, ok := s.admissions.get(key)
	if ok {
		s.metrics.AnalysisHits++
	} else {
		a = &admission{fingerprint: fp}
		s.admissions.put(key, a)
		s.metrics.Analyses++
	}
	s.mu.Unlock()

	var rep *analysis.Report
	a.analyzeOnce.Do(func() { rep = s.analyze(a, p, entry) })
	return a, rep
}

// analyze fills in one admission entry (see admit) and returns the
// report of p it was taken from. It takes no locks.
func (s *Service) analyze(a *admission, p *tpal.Program, entry []tpal.Reg) *analysis.Report {
	// sync.Once counts a panicking Do as done, and the entry is already
	// in the cache: left zero-valued it would read as admitted with
	// budget 0, which is unlimited fuel, for every later submitter of the
	// key. Condemn it instead, then let the panic reach the caller.
	defer func() {
		if r := recover(); r != nil {
			a.rejected, a.reason = true, "analysis failed"
			panic(r)
		}
	}()
	report := analysis.Analyze(p, analysis.Options{EntryRegs: entry, Races: true})
	a.diags = wireDiags(report.Diags)
	switch {
	case analysis.HasErrors(report.Diags):
		a.rejected = true
		a.reason = "static analysis proved a definite fault or race"
		return report
	case report.Latency.Class == analysis.LatencyUnbounded:
		a.rejected = true
		a.reason = "promotion latency is unbounded (TP050): the job could starve the shared worker pool"
		return report
	}
	// The optimizer analyzes p once more instead of taking report
	// (opt.OptimizeReport): benchmark/traced.go replays admission as
	// Analyze then Optimize and holds the sum of its spans to this
	// service's turnaround, so admission keeps that shape until the
	// replay changes.
	runReport, rewrites := report, 0
	if res, err := opt.Optimize(p, opt.Options{EntryRegs: entry}); err == nil && res.Rewrites() > 0 {
		a.optimized = res.Program
		runReport, rewrites = res.After.Report, res.Rewrites()
	}
	a.quote = s.quote(runReport)
	a.quote.OptRewrites = rewrites
	return report
}

// quote converts the symbolic work/span estimate of the program that
// runs into a step budget: every trip count the interval analysis
// bounded is priced at its proved upper bound ("inferred"), every
// remaining one at TripAssume ("assumed"); the evaluated estimate is
// scaled by QuoteMargin to absorb estimator slack and clamped into
// [MinBudget, FuelCap]. Heavy jobs can still outrun the quote — that is
// what the budget_exceeded state is for — but the clamp guarantees no
// single job holds an executor longer than FuelCap steps.
func (s *Service) quote(r *analysis.Report) Quote {
	trips := make(map[tpal.Label]int64)
	prov := make(map[string]TripQuote)
	for _, l := range r.Work.Trips() {
		if tb, ok := r.Trips[l]; ok && tb.Bounded() {
			trips[l] = tb.Hi
			prov[string(l)] = TripQuote{Count: tb.Hi, Source: "inferred"}
		} else {
			trips[l] = s.cfg.TripAssume
			prov[string(l)] = TripQuote{Count: s.cfg.TripAssume, Source: "assumed"}
		}
	}
	est := r.Work.Eval(trips, 1)
	budget := est
	if budget > s.cfg.FuelCap/s.cfg.QuoteMargin {
		budget = s.cfg.FuelCap
	} else {
		budget *= s.cfg.QuoteMargin
	}
	if budget < s.cfg.MinBudget {
		budget = s.cfg.MinBudget
	}
	if budget > s.cfg.FuelCap {
		budget = s.cfg.FuelCap
	}
	return Quote{
		Work:     r.Work.String(),
		Span:     r.Span.String(),
		EstSteps: est,
		Budget:   budget,
		Trips:    prov,
	}
}

func wireDiags(ds []analysis.Diag) []Diag {
	out := make([]Diag, len(ds))
	for i, d := range ds {
		out[i] = Diag{
			Severity: d.Severity.String(),
			Code:     string(d.Code),
			Block:    string(d.Block),
			Instr:    d.Instr,
			Msg:      d.Msg,
		}
	}
	return out
}

// resultKey keys the result cache: program identity plus everything
// that determines the outcome — the argument values and the scheduling
// parameters (the lockstep executor is deterministic given those).
func resultKey(fp string, args map[string]int64, heartbeat int64) string {
	names := make([]string, 0, len(args))
	for k := range args {
		names = append(names, k)
	}
	sort.Strings(names)
	var sb strings.Builder
	sb.WriteString(fp)
	for _, k := range names {
		fmt.Fprintf(&sb, "|%s=%d", k, args[k])
	}
	fmt.Fprintf(&sb, "|hb=%d", heartbeat)
	return sb.String()
}
