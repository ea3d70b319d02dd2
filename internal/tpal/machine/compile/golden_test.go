package compile

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"tpal/internal/tpal"
	"tpal/internal/tpal/asm"
	"tpal/internal/tpal/machine"
	"tpal/internal/tpal/programs"
	"tpal/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/sched_golden.json from the interpreter backend")

const goldenPath = "../testdata/sched_golden.json"

// goldenCase is one (program, configuration) cell of the scheduler
// fixture.
type goldenCase struct {
	name string
	prog *tpal.Program
	cfg  machine.Config
}

// goldenCases enumerates everything the equivalence suite runs — the
// corpus, every minipar sample, and the fault-path programs across the
// 12-config schedule matrix with the sanitizer and trip counting on,
// plus the budget/cancellation cuts and the slot-less entry register —
// under assertEquiv's step ceiling.
func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	var out []goldenCase
	add := func(name string, p *tpal.Program, cfg machine.Config) {
		if cfg.MaxSteps == 0 {
			cfg.MaxSteps = 200_000
		}
		out = append(out, goldenCase{name, p, cfg})
	}
	for _, c := range append(corpusCases(), miniparCases(t)...) {
		for i, cfg := range scheduleMatrix() {
			cfg.RaceDetect = true
			cfg.CountTrips = true
			cfg.Regs = c.regs
			add(fmt.Sprintf("%s/schedule-%d", c.name, i), c.prog, cfg)
		}
	}
	for _, c := range faultCases() {
		p, err := asm.Parse(c.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", c.name, err)
		}
		for i, cfg := range scheduleMatrix() {
			cfg.SkipVerify = true
			cfg.RaceDetect = true
			cfg.CountTrips = true
			add(fmt.Sprintf("fault/%s/schedule-%d", c.name, i), p, cfg)
		}
	}
	for _, c := range budgetCases() {
		add("budget/"+c.name, programs.Fib(), c.cfg)
	}
	add("extra-entry-reg", programs.Prod(), extraEntryRegsConfig())
	return out
}

// schedDigest runs one case on the given backend and hashes everything
// a scheduler change could move: the full per-transition Config.Trace
// stream, the Config.Tracer event stream (kind and payloads, in
// recording order, timestamps excluded), the error text, every Stats
// field including MaxPromotionGap and TripCounts, and the final
// register file in rendered form.
func schedDigest(c goldenCase, backend machine.Backend) string {
	h := sha256.New()
	// Events are appended to a buffer with strconv (the streams run to
	// 200k events per case; fmt would dominate the suite's wall time).
	buf := make([]byte, 0, 1<<16)
	flush := func(force bool) {
		if force || len(buf) > 1<<15 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	num := func(n int64) { buf = append(strconv.AppendInt(buf, n, 10), ' ') }
	str := func(s string) { buf = append(strconv.AppendQuote(buf, s), ' ') }
	cfg := c.cfg
	cfg.Backend = backend
	cfg.Regs = cfg.Regs.Clone()
	cfg.Trace = func(e machine.TraceEvent) {
		buf = append(buf, 'T')
		num(int64(e.Kind))
		num(int64(e.Task))
		num(e.Cycles)
		str(string(e.Label))
		num(int64(e.Offset))
		str(e.Instr)
		str(string(e.Handler))
		flush(false)
	}
	cfg.Tracer = trace.New(1, 1)
	cfg.Tracer.SetSink(func(e trace.Event) {
		buf = append(buf, 'E')
		num(int64(e.Kind))
		num(e.A)
		num(e.B)
		flush(false)
	})
	res, err := machine.RunBackend(c.prog, cfg)
	flush(true)
	hashOutcome(h, res, err)
	return hex.EncodeToString(h.Sum(nil))
}

func hashOutcome(h hash.Hash, res machine.Result, err error) {
	if err != nil {
		fmt.Fprintf(h, "error %s\n", err)
	}
	// %+v prints TripCounts in sorted key order.
	fmt.Fprintf(h, "stats %+v\n", res.Stats)
	regs := renderRegs(res.Regs)
	names := make([]string, 0, len(regs))
	for r := range regs {
		names = append(names, r)
	}
	sort.Strings(names)
	for _, r := range names {
		fmt.Fprintf(h, "reg %s=%s\n", r, regs[r])
	}
}

// TestSchedulerGolden pins the engine's schedule: with one engine
// behind both backends the equivalence suite can only catch a dispatch
// divergence, so the scheduler itself — interleaving, budget cadence,
// promotion and signal timing, fork/join bookkeeping, trace emission —
// is held to digests recorded from the pre-unification interpreter.
//
// The fixture was generated at commit 3669953 (the last commit with two
// engines) from the interpreter backend with
//
//	go test ./internal/tpal/machine/compile -run TestSchedulerGolden -update
//
// Regenerating it is a deliberate act: a digest change means observable
// scheduler behaviour changed.
func TestSchedulerGolden(t *testing.T) {
	cases := goldenCases(t)
	if *updateGolden {
		golden := make(map[string]string, len(cases))
		for _, c := range cases {
			golden[c.name] = schedDigest(c, machine.BackendInterp)
		}
		data, err := json.MarshalIndent(golden, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	var golden map[string]string
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	if len(golden) != len(cases) {
		t.Fatalf("fixture has %d cases, suite has %d", len(golden), len(cases))
	}
	for _, c := range cases {
		want, ok := golden[c.name]
		if !ok {
			t.Errorf("%s: not in fixture", c.name)
			continue
		}
		for _, backend := range []machine.Backend{machine.BackendInterp, machine.BackendCompiled} {
			if got := schedDigest(c, backend); got != want {
				t.Errorf("%s on %s: digest %s, fixture %s", c.name, backend, got, want)
			}
		}
	}
}
