package serve

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"tpal/internal/minipar"
	"tpal/internal/minipar/autopar"
	"tpal/internal/tpal"
	"tpal/internal/tpal/analysis"
	"tpal/internal/tpal/asm"
	"tpal/internal/tpal/machine/compile"
	"tpal/internal/tpal/opt"
)

// loadSource parses a submission into a TPAL program. Lang selects the
// front end: "tpal" (assembly), "minipar" (compiled to TPAL), or ""
// (auto-detected — TPAL assembly always opens with the program
// keyword). For minipar, the declared params join the entry register
// set. Errors are submission errors (HTTP 400), never faults.
func loadSource(lang, source string) (*tpal.Program, []tpal.Reg, error) {
	if lang == "" {
		lang = detectLang(source)
	}
	switch lang {
	case "tpal":
		p, err := asm.Parse(source)
		if err != nil {
			return nil, nil, fmt.Errorf("parse tpal: %w", err)
		}
		return p, nil, nil
	case "minipar":
		mp, err := minipar.Parse(source)
		if err != nil {
			return nil, nil, fmt.Errorf("parse minipar: %w", err)
		}
		p, err := minipar.Compile(mp)
		if err != nil {
			return nil, nil, fmt.Errorf("compile minipar: %w", err)
		}
		params := make([]tpal.Reg, len(mp.Params))
		for i, name := range mp.Params {
			params[i] = tpal.Reg(name)
		}
		return p, params, nil
	default:
		return nil, nil, fmt.Errorf("unknown lang %q (want tpal or minipar)", lang)
	}
}

// loadSubmission resolves one submission into the program that will
// face the admission gate. Without auto_parallelize it is loadSource;
// with it, the autopar dependence pass transforms the (minipar-only)
// source first and the transformed, certified program is what gets
// admitted, along with the per-site verdict report for the job record.
// Errors are submission errors (HTTP 400), including a transform that
// cannot even start because the input is not certification-clean.
func (s *Service) loadSubmission(req SubmitRequest) (*tpal.Program, []tpal.Reg, *AutoparReport, error) {
	if !req.AutoParallelize {
		prog, params, err := loadSource(req.Lang, req.Source)
		return prog, params, nil, err
	}
	lang := req.Lang
	if lang == "" {
		lang = detectLang(req.Source)
	}
	if lang != "minipar" {
		return nil, nil, nil, fmt.Errorf("auto_parallelize requires a minipar source (got lang %q)", lang)
	}
	res, err := autopar.TransformSource(req.Source, autopar.Options{TripAssume: s.cfg.TripAssume})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("auto_parallelize: %w", err)
	}
	params := make([]tpal.Reg, len(res.Program.Params))
	for i, name := range res.Program.Params {
		params[i] = tpal.Reg(name)
	}
	return res.Compiled, params, autoparReportOf(res), nil
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

// admission is the cached outcome of running the full analysis
// pipeline over one (program, entry-register-set) pair. The entry is
// its own singleflight: admit claims it in the cache under the service
// mutex and fills it outside the lock under analyzeOnce, which is also
// what publishes the verdict fields to every other submitter of the
// same key.
type admission struct {
	analyzeOnce sync.Once
	fingerprint string
	diags       []Diag
	rejected    bool
	reason      string // one-line rejection summary
	quote       Quote
	latency     string
	// optimized is the certified-optimized program the executor should
	// run in place of the submitted one; nil when the optimizer is
	// disabled, the program was rejected, or no rewrite was accepted.
	// The quote is derived from the optimized bounds, so the fuel grant
	// re-prices the program the pool actually executes.
	optimized *tpal.Program

	// compiled is the closure-threaded form of the program the pool
	// executes, lowered at most once per admission (lowerOnce) when the
	// compiled backend first needs it; nil before that and after a
	// lowering failure, which falls back to the interpreter. It lives
	// here so the lowered program shares the verdict's cache slot and
	// its eviction.
	lowerOnce sync.Once
	compiled  *compile.Program
}

// admitKey keys the analysis cache: the program fingerprint plus the
// entry-register set, which sharpens the definite-initialization facts
// the verifier proves and therefore changes the diagnostics.
func admitKey(fp string, entry []tpal.Reg) string {
	names := make([]string, len(entry))
	for i, r := range entry {
		names[i] = string(r)
	}
	sort.Strings(names)
	return fp + "|" + strings.Join(names, ",")
}

// admit runs the admission gate: the full static pipeline (verify,
// liveness, work/span, races) with the interference pass on. A program
// is condemned when the pipeline proves a definite fault or definite
// interference (any Error-severity diagnostic, which includes
// TP060–TP062), or when its promotion latency is unbounded (TP050): a
// task that can starve the shared heartbeat scheduler forever has no
// place on a multi-tenant pool. Everything else is admitted with a cost
// quote derived from the symbolic work bound.
//
// It is the only function that looks up or fills the verdict cache, for
// Submit and /v1/analyze alike. The first caller for a key claims an
// empty entry under the lock; whoever reaches analyzeOnce first runs
// the pipeline in its own goroutine, the rest wait on that one entry.
// Callers with different keys never wait on each other. (An entry
// evicted while it is being filled is simply analyzed again by the
// next submitter; the pipeline is deterministic.)
func (s *Service) admit(p *tpal.Program, entry []tpal.Reg) *admission {
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

	a.analyzeOnce.Do(func() { s.analyze(a, p, entry) })
	return a
}

// analyze runs the analysis pipeline over one (program, entry) pair
// and fills in its admission verdict. It takes no locks; the only
// service state it reads is immutable configuration.
func (s *Service) analyze(a *admission, p *tpal.Program, entry []tpal.Reg) {
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
	a.latency = report.Latency.String()
	switch {
	case analysis.HasErrors(report.Diags):
		a.rejected = true
		a.reason = "static analysis proved a definite fault or race"
	case report.Latency.Class == analysis.LatencyUnbounded:
		a.rejected = true
		a.reason = "promotion latency is unbounded (TP050): the job could starve the shared worker pool"
	default:
		a.quote = s.quote(report)
		if !s.cfg.DisableOptimizer {
			if res, err := opt.Optimize(p, opt.Options{EntryRegs: entry}); err == nil && res.Rewrites() > 0 {
				a.optimized = res.Program
				a.quote = s.quoteBounds(res.After.Work, res.After.Span, res.After.Trips)
				a.quote.OptRewrites = res.Rewrites()
				a.latency = res.After.Latency.String()
			}
		}
	}
}

// compiledFor returns the closure-threaded form of the program the
// pool will execute, lowered once per admission entry and stored on
// it. The first caller re-analyzes the program being lowered — which
// may be the optimizer's rewrite, whose diagnostics differ from the
// submitted form's admission report — so the lowering hoists exactly
// the metafunction checks provable for the code that runs; every later
// caller is a cache hit. A lowering failure falls back to the
// interpreter (nil).
func (s *Service) compiledFor(a *admission, p *tpal.Program, entry []tpal.Reg) *compile.Program {
	lowered := false
	a.lowerOnce.Do(func() {
		report := analysis.Analyze(p, analysis.Options{EntryRegs: entry})
		opts := compile.Options{}
		if !analysis.HasErrors(report.Diags) {
			opts.Report = report
		}
		if cp, err := compile.Compile(p, opts); err == nil {
			a.compiled, lowered = cp, true
		}
	})
	cp := a.compiled
	if cp == nil {
		return nil
	}
	s.mu.Lock()
	if lowered {
		s.metrics.Compiles++
		s.metrics.ChecksHoisted += int64(cp.Hoisted())
	} else {
		s.metrics.CompileCacheHits++
	}
	s.mu.Unlock()
	return cp
}

// quote converts the symbolic work/span estimate into a step budget:
// every trip count the interval analysis bounded is priced at its
// proved upper bound ("inferred"), every remaining one at TripAssume
// ("assumed"); the evaluated estimate is scaled by QuoteMargin to
// absorb estimator slack and clamped into [MinBudget, FuelCap]. Heavy
// jobs can still outrun the quote — that is what the budget_exceeded
// state is for — but the clamp guarantees no single job holds an
// executor longer than FuelCap steps.
func (s *Service) quote(r *analysis.Report) Quote {
	return s.quoteBounds(r.Work, r.Span, r.Trips)
}

// quoteBounds prices a (work, span) bound pair under the inferred trip
// bounds; admit uses it both for the submitted program's report and to
// re-quote from the optimizer's post-pipeline bounds.
func (s *Service) quoteBounds(work, span *analysis.Expr, inferred map[tpal.Label]analysis.TripBound) Quote {
	trips := make(map[tpal.Label]int64)
	prov := make(map[string]TripQuote)
	for _, l := range work.Trips() {
		if tb, ok := inferred[l]; ok && tb.Bounded() {
			trips[l] = tb.Hi
			prov[string(l)] = TripQuote{Count: tb.Hi, Source: "inferred"}
		} else {
			trips[l] = s.cfg.TripAssume
			prov[string(l)] = TripQuote{Count: s.cfg.TripAssume, Source: "assumed"}
		}
	}
	est := work.Eval(trips, 1)
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
		Work:     work.String(),
		Span:     span.String(),
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
func resultKey(fp string, args map[string]int64, heartbeat, signal int64) string {
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
	fmt.Fprintf(&sb, "|hb=%d|sig=%d", heartbeat, signal)
	return sb.String()
}
