package main

// Frozen benchmark parameters. The offered rates were set once, by the
// change that defined the benchmark, to about 40% of the closed-phase
// capacity measured on the 2-core box it was built on (README.md lists
// the runs); they, the latency limits and the default seed are
// constants from then on, so two result files are comparable.

const defaultSeed = 20210620 // PLDI 2021

// serveParams sizes one serve-* workload.
type serveParams struct {
	// Rate is the open phase's offered load in jobs per second.
	Rate float64
	// SLOms is the turnaround limit a job must meet; a failed or
	// refused job misses it.
	SLOms float64
	// WarmupRounds is how many times one request of every class is
	// sent, and verified, before the first timed operation. A fixed
	// composition, not a duration, so set-up does the same work on
	// every run and every seed.
	WarmupRounds int
	// Stream is how many requests are generated. The open phase reads a
	// fixed region of it; the closed phase wraps around if it outruns
	// the rest, which the run reports.
	Stream int
	// TraceN is how many requests, from the head of the stream, the
	// traced replay walks through the layers one at a time.
	TraceN int
}

var serveWorkloads = map[string]serveParams{
	"serve-mixed": {Rate: 19, SLOms: 500, WarmupRounds: 2, Stream: 1600, TraceN: 100},
	"serve-exec":  {Rate: 30, SLOms: 100, WarmupRounds: 8, Stream: 2400, TraceN: 60},
	"serve-admit": {Rate: 14, SLOms: 1000, WarmupRounds: 2, Stream: 800, TraceN: 50},
	"serve-hot":   {Rate: 150, SLOms: 50, WarmupRounds: 40, Stream: 10000, TraceN: 300},
}

// shortTraceN is the traced replay's length at smoke-test size.
const shortTraceN = 20

// serve-exec argument range: loop trip counts drawn without repetition
// from [execLo, execLo+execSpan), about 40k to 100k machine steps.
const (
	execLo   = 4000
	execSpan = 6000
)

// nativeSize makes one native kernel's serial run last 100 ms or more
// on the box the benchmark was built on (scale-1 runs last 3 to 25 ms
// and their timings do not repeat): the Setup scale, and how many times
// one operation runs the kernel back to back where a larger scale
// would only buy memory.
type nativeSize struct {
	Scale float64
	Reps  int
}

var nativeSizes = map[string]nativeSize{
	"plus-reduce-array": {Scale: 1, Reps: 20},
	"spmv-powerlaw":     {Scale: 1, Reps: 22},
	"mandelbrot":        {Scale: 2.3, Reps: 1},
	"floyd-warshall-1K": {Scale: 2.4, Reps: 1},
	"mergesort-uniform": {Scale: 0.8, Reps: 1},
	"knapsack":          {Scale: 1, Reps: 2},
}

// Phase shares of --seconds. The open phase runs first, from a cache
// state that depends on the warm-up alone, so its request range and its
// exact counts repeat; the closed phase takes what is left. Both send
// whole blocks of the stratified stream: the open phase the number of
// blocks nearest to rate × time, the closed phase block after block
// until its time is up.
const (
	openShare        = 0.7
	tracedLoadShare  = 0.5 // a traced run spends this share on load, the rest on the replay
	setupRepetitions = 3
)
