package machine_test

import (
	"fmt"
	"testing"

	"tpal/internal/minipar"
	"tpal/internal/tpal"
	"tpal/internal/tpal/machine"
	"tpal/internal/tpal/machine/compile"
	"tpal/internal/tpal/programs"
)

// plusReduceMP is the finest-grained kernel as a minipar reduction
// loop: one addition per iteration through the parfor promotion
// machinery, so dispatch is nearly all there is to measure.
const plusReduceMP = `params n
var total = 0
parfor i in 0 .. n reduce(total, +) {
    total = total + i
}
return total
`

// BenchmarkDispatch measures per-instruction dispatch cost on both
// backends across the corpus and the plus-reduce kernel, in several
// machine configurations:
//
//	serial     — no heartbeat, single task, pure dispatch loop
//	heartbeat  — hb=30, promotion checks and forks on the hot path
//	race       — hb=30 with the vector-clock sanitizer shadowing memory
//	fanout     — fib only, hb=2 under Lockstep: every promotion point
//	             forks, so rounds run hundreds of live tasks (peak 466)
//	             and the cost of the schedule loop itself — retiring a
//	             task mid-round, snapshotting the round — is on the hot
//	             path (hb=1 livelocks fib, so 2 is the widest that halts)
//
// Each sub-benchmark reports ns/step (amortized per machine
// transition) so the interp/compiled columns are directly comparable.
// Both columns run the same engine; the difference is dispatch alone.
func BenchmarkDispatch(b *testing.B) {
	mp, err := minipar.Parse(plusReduceMP)
	if err != nil {
		b.Fatal(err)
	}
	plusReduce, err := minipar.Compile(mp)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		prog *tpal.Program
		regs machine.RegFile
	}{
		{"prod", programs.Prod(), machine.RegFile{"a": machine.IntV(200), "b": machine.IntV(3)}},
		{"pow", programs.Pow(), machine.RegFile{"d": machine.IntV(1), "e": machine.IntV(200)}},
		{"fib", programs.Fib(), machine.RegFile{"n": machine.IntV(15)}},
		{"plus-reduce", plusReduce, machine.RegFile{"n": machine.IntV(60_000)}},
	}
	modes := []struct {
		name string
		cfg  machine.Config
		only string // when set, the one case the mode applies to
	}{
		{name: "serial"},
		{name: "heartbeat", cfg: machine.Config{Heartbeat: 30}},
		{name: "race", cfg: machine.Config{Heartbeat: 30, RaceDetect: true}},
		{name: "fanout", cfg: machine.Config{Heartbeat: 2}, only: "fib"},
	}
	for _, c := range cases {
		// Pre-compile once: the serve/run surfaces compile per program
		// fingerprint, so compilation cost is off the steady-state path.
		cp, err := compile.Compile(c.prog, compile.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range modes {
			if m.only != "" && m.only != c.name {
				continue
			}
			cfg := m.cfg
			cfg.SkipVerify = true
			run := func(compiled bool) (machine.Stats, error) {
				rc := cfg
				rc.Regs = c.regs.Clone()
				if compiled {
					res, err := cp.Run(rc)
					return res.Stats, err
				}
				res, err := machine.Run(c.prog, rc)
				return res.Stats, err
			}
			for _, backend := range []string{"interp", "compiled"} {
				b.Run(fmt.Sprintf("%s/%s/%s", c.name, m.name, backend), func(b *testing.B) {
					var steps int64
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						st, err := run(backend == "compiled")
						if err != nil {
							b.Fatal(err)
						}
						steps += st.Steps
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
				})
			}
		}
	}
}

// BenchmarkCompile measures the one-time lowering cost per program,
// the price the serve cache pays on a compiled-cache miss.
func BenchmarkCompile(b *testing.B) {
	for _, c := range []struct {
		name string
		prog *tpal.Program
	}{
		{"prod", programs.Prod()},
		{"pow", programs.Pow()},
		{"fib", programs.Fib()},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := compile.Compile(c.prog, compile.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
