package compile

import (
	"testing"

	"tpal/internal/minipar"
	"tpal/internal/tpal/machine"
)

const plusReduceProbeMP = `params n
var total = 0
parfor i in 0 .. n reduce(total, +) {
    total = total + i
}
return total
`

// BenchmarkPlusReduceKernel is the bench-rt machine-backend row on its
// own, so the dispatch hot path can be profiled in isolation.
func BenchmarkPlusReduceKernel(b *testing.B) {
	mp, err := minipar.Parse(plusReduceProbeMP)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := minipar.Compile(mp)
	if err != nil {
		b.Fatal(err)
	}
	cp, err := Compile(prog, Options{})
	if err != nil {
		b.Fatal(err)
	}
	regs := machine.RegFile{"n": machine.IntV(60_000)}
	for _, backend := range []string{"interp", "compiled"} {
		b.Run(backend, func(b *testing.B) {
			b.ReportAllocs()
			var steps int64
			for i := 0; i < b.N; i++ {
				cfg := machine.Config{Heartbeat: 100, SkipVerify: true, Regs: regs.Clone()}
				var res machine.Result
				var err error
				if backend == "compiled" {
					res, err = cp.Run(cfg)
				} else {
					res, err = machine.Run(prog, cfg)
				}
				if err != nil {
					b.Fatal(err)
				}
				steps += res.Stats.Steps
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
		})
	}
}
