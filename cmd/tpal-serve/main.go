// Command tpal-serve runs the TPAL job-execution daemon: a multi-tenant
// HTTP service that admits programs through the full static-analysis
// pipeline (verification, promotion liveness, work/span, race
// detection), quotes a step budget from the symbolic work bound, and
// executes admitted jobs on a fixed pool of heartbeat interpreters
// with deficit-round-robin fairness across tenants.
//
// API (see DESIGN.md §10 and internal/serve):
//
//	POST /v1/jobs             submit {source, args, ...}; 202 accepted,
//	                          422 rejected with TP0xx diags, 429 queue full
//	GET  /v1/jobs/{id}        status, result registers, execution stats
//	GET  /v1/jobs/{id}/events live SSE stream: status transitions and,
//	                          for traced jobs, batched tracer events
//	POST /v1/analyze          static report + admission verdict, no execution
//	GET  /healthz             200 serving / 503 draining
//	GET  /metrics             counters, queue depth, latency percentiles
//
// All tenants share one DRR queue; each submission is admitted in its
// own request goroutine and a program is analyzed once however many
// submitters race. Results are memoized in a bounded LRU
// (-result-cache) and identical in-flight submissions collapse onto
// one execution.
// Terminal job records are retained up to -retain-jobs / -job-ttl and
// then evicted (GET on an evicted id is a 404).
//
// SIGINT/SIGTERM triggers a graceful drain: queued jobs are canceled,
// in-flight jobs run to completion (bounded by -drain-timeout, after
// which they are interrupted), then the listener shuts down.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tpal/internal/serve"
	"tpal/internal/tpal/machine"
)

const (
	exitOK    = 0
	exitError = 1
	exitUsage = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is the testable entry point. If ready is non-nil, the bound
// listen address is sent on it once the server is accepting.
func run(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("tpal-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "localhost:8334", "listen address")
		workers      = fs.Int("workers", 0, "executor goroutines (0 = GOMAXPROCS)")
		queueCap     = fs.Int("queue", 256, "admission queue capacity (full queue => 429)")
		resultCache  = fs.Int("result-cache", 4096, "LRU capacity of the content-addressed result store")
		retainJobs   = fs.Int("retain-jobs", 4096, "terminal job records kept before eviction")
		jobTTL       = fs.Duration("job-ttl", 15*time.Minute, "age at which terminal job records are evicted")
		heartbeat    = fs.Int64("heartbeat", 100, "heartbeat period N shared by all executors")
		signalPeriod = fs.Int64("signal-period", 0, "steps per heartbeat signal (0 = N, lockstep)")
		fuelCap      = fs.Int64("fuel-cap", 20_000_000, "hard per-job step ceiling")
		minBudget    = fs.Int64("min-budget", 10_000, "floor for quoted step budgets")
		tripAssume   = fs.Int64("trip-assume", 1024, "assumed trip count for unknown loop bounds in quotes")
		quoteMargin  = fs.Int64("quote-margin", 4, "multiplier applied to the work estimate")
		timeout      = fs.Duration("timeout", 10*time.Second, "default per-job wall-clock deadline")
		maxTimeout   = fs.Duration("max-timeout", 60*time.Second, "ceiling on client-requested deadlines")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "grace period for in-flight jobs on shutdown")
		noOpt        = fs.Bool("no-opt", false, "disable the certified optimizer (jobs run and are quoted as submitted)")
		backendName  = fs.String("backend", "interp", "execution backend for admitted jobs: interp or compiled")
	)
	fs.Usage = func() {
		fmt.Fprint(stderr, "usage: tpal-serve [flags]\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "tpal-serve: unexpected arguments %q\n", fs.Args())
		fs.Usage()
		return exitUsage
	}

	backend, err := machine.ParseBackend(*backendName)
	if err != nil {
		fmt.Fprintf(stderr, "tpal-serve: %v\n", err)
		return exitUsage
	}

	svc := serve.New(serve.Config{
		Workers:        *workers,
		QueueCap:       *queueCap,
		ResultCacheCap: *resultCache,
		JobRetention:   *retainJobs,
		JobTTL:         *jobTTL,
		Heartbeat:      *heartbeat,
		SignalPeriod:   *signalPeriod,
		FuelCap:        *fuelCap,
		MinBudget:      *minBudget,
		TripAssume:     *tripAssume,
		QuoteMargin:    *quoteMargin,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,

		DisableOptimizer: *noOpt,
		Backend:          backend,
	})

	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "tpal-serve: %v\n", err)
		return exitError
	}
	// Registered before anyone is told the daemon is up, so a SIGTERM
	// sent the moment it reports ready drains instead of killing.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	fmt.Fprintf(stdout, "tpal-serve: listening on http://%s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		fmt.Fprintf(stderr, "tpal-serve: %v\n", err)
		return exitError
	case sig := <-sigc:
		fmt.Fprintf(stdout, "tpal-serve: %v received, draining\n", sig)
	}

	// Graceful shutdown: stop admitting and let in-flight jobs finish
	// (the drain context interrupts them if they overstay), then close
	// the listener.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		fmt.Fprintf(stdout, "tpal-serve: forced drain: %v\n", err)
	}
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(stderr, "tpal-serve: shutdown: %v\n", err)
		return exitError
	}
	<-errc // Serve has returned http.ErrServerClosed
	fmt.Fprintln(stdout, "tpal-serve: drained, bye")
	return exitOK
}
