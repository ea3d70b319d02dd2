package serve

import (
	"context"
	"os"
	"testing"

	"tpal/internal/tpal/programs"
)

// admitBenchCases are the submissions BenchmarkAdmit admits: three of
// the serve-admit templates, the autopar map example with the transform
// on, and the corpus prod program as TPAL.
func admitBenchCases(tb testing.TB) []admissionCase {
	tb.Helper()
	mapSrc, err := os.ReadFile("../../examples/autopar/map.mp")
	if err != nil {
		tb.Fatal(err)
	}
	n := map[string]int64{"n": 5}
	return []admissionCase{
		{"nest1", SubmitRequest{Source: "params n\nvar total = 1001\nparfor i in 0 .. n reduce(total, +) {\n    var t = i * 17 + 300\n    total = total + t\n}\nreturn total\n", Args: n}},
		{"nest2", SubmitRequest{Source: "params n\nvar total = 1002\nparfor i in 0 .. n reduce(total, +) {\n    parfor j in 0 .. n reduce(total, +) {\n        total = total + (i * 31 + j + 400) % 7\n    }\n}\nreturn total\n", Args: n}},
		{"parcall", SubmitRequest{Source: "params n\n\nfunc f(m) {\n  if m < 2 { return m + 1004 }\n  parcall a, b = f(m - 1), f(m - 2)\n  return a + b + 55\n}\n\nvar r = 0\nr = call f(n)\nreturn r\n", Args: n}},
		{"map-autopar", SubmitRequest{Source: string(mapSrc), Args: n, AutoParallelize: true}},
		{"prod-tpal", SubmitRequest{Source: programs.ProdSource, Args: map[string]int64{"a": 6, "b": 7}}},
	}
}

// BenchmarkAdmit times one submission's front end and admission gate —
// loadSubmission then admit, on a fresh service so the verdict cache
// misses — without queueing or running the job.
func BenchmarkAdmit(b *testing.B) {
	for _, c := range admitBenchCases(b) {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := New(Config{Workers: 1})
				b.StartTimer()
				fe, err := s.loadSubmission(c.req)
				if err != nil {
					b.Fatal(err)
				}
				if a, _ := s.admit(fe.prog, entryRegs(fe.params, c.req.Args, c.req.Entry)); a.rejected {
					b.Fatalf("rejected: %s", a.reason)
				}
				b.StopTimer()
				s.Drain(context.Background())
				b.StartTimer()
			}
		})
	}
}
