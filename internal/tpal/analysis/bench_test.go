package analysis_test

import (
	"os"
	"testing"

	"tpal/internal/minipar"
	"tpal/internal/tpal"
	"tpal/internal/tpal/analysis"
)

// tripleNest compiles the minipar triple-nest sample — the costliest
// program the daemon's admission path analyzes in the benchmark mix —
// raw and optimized, with its entry registers.
func tripleNest(tb testing.TB) (raw, opt *tpal.Program, entry []tpal.Reg) {
	tb.Helper()
	src, err := os.ReadFile("../../minipar/testdata/triple-nest.mp")
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := minipar.Parse(string(src))
	if err != nil {
		tb.Fatal(err)
	}
	for _, p := range prog.Params {
		entry = append(entry, tpal.Reg(p))
	}
	if raw, err = minipar.CompileRaw(prog); err != nil {
		tb.Fatal(err)
	}
	if opt, err = minipar.Compile(prog); err != nil {
		tb.Fatal(err)
	}
	return raw, opt, entry
}

// BenchmarkAnalyze measures one full analysis of the triple nest, at
// both compile stages, with the interference pass off and on.
func BenchmarkAnalyze(b *testing.B) {
	raw, opt, entry := tripleNest(b)
	for _, c := range []struct {
		name string
		prog *tpal.Program
	}{{"raw", raw}, {"opt", opt}} {
		for _, races := range []bool{false, true} {
			name := c.name + "/races-off"
			if races {
				name = c.name + "/races-on"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					analysis.Analyze(c.prog, analysis.Options{EntryRegs: entry, Races: races})
				}
			})
		}
	}
}

// TestAnalyzeAllocs pins the allocation count of the costliest analysis
// on the admission path. With register-keyed maps for the abstract
// states it made about 57k allocations; slot vectors brought it to
// about 11.6k.
func TestAnalyzeAllocs(t *testing.T) {
	_, opt, entry := tripleNest(t)
	const ceiling = 12500
	n := testing.AllocsPerRun(3, func() {
		analysis.Analyze(opt, analysis.Options{EntryRegs: entry, Races: true})
	})
	if n > ceiling {
		t.Fatalf("Analyze(Races: true) of the optimized triple nest makes %.0f allocations, ceiling %d", n, ceiling)
	}
}
