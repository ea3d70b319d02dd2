GO ?= go

.PHONY: build test vet race race-test serve-test autopar-test compile-test lint lint-go fuzz cover bench bench-smoke ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# race-test runs Go's own race detector over the concurrent runtime
# packages and their cross-goroutine code: deque steals, park/wake, the
# span model's joins (sched.Join retired from many goroutines at once),
# the schedulers layered on them, and each interrupt mechanism's Stop
# flag.
race-test:
	$(GO) test -race ./internal/sched ./internal/heartbeat ./internal/cilk ./internal/interrupt

# serve-test runs the job-execution service and daemon suites under
# the race detector: admission gating (analyze-once, no head-of-line
# blocking), DRR fairness across all tenants, the result cache, job
# retention, budget and deadline enforcement, drain, the HTTP E2E
# batch, the SSE event stream, and the 10k-job many-tenant correctness
# burst (which fails if a job does not complete or the counters break
# a conservation law; it writes no file).
serve-test:
	$(GO) test -race ./internal/serve ./cmd/tpal-serve

# autopar-test runs the auto-parallelizer's certification contract
# under the Go race detector: the pass's own suite (every rewrite
# re-verified and compared against sequential interpretation across
# the schedule matrix), the differential oracle over the minipar
# corpus, the golden CLI verdict tables, and the serve admission path
# — including TestAdmissionGolden, whose autopar rows (transform off
# and on) pin what a submission sees of the pass.
autopar-test:
	$(GO) test -race ./internal/minipar ./internal/minipar/autopar ./cmd/minipar
	$(GO) test -race ./internal/serve -run 'AutoParallelize|TestAdmissionGolden'
	$(GO) test -race ./cmd/tpal-lint -run Autopar

# compile-test runs the engine and both of its lowerings under the Go
# race detector: the closure-threaded lowering's differential-oracle
# suite (the corpus, minipar samples, fault paths, budget/cancellation
# cuts, every case cross-checked against the interpreter lowering
# across the schedule matrix — lockstep, random-order seeds,
# depth-first, signal-period splits),
# TestSchedulerGolden holding both lowerings to the scheduler digests
# in machine/testdata/sched_golden.json, and the machine package's own
# suite.
compile-test:
	$(GO) test -race ./internal/tpal/machine/compile ./internal/tpal/machine

# lint runs the static TPAL verifier — including the interference
# (determinacy-race) pass — over the built-in corpus and every
# checked-in minipar sample; any diagnostic (warnings included) fails.
lint:
	$(GO) run ./cmd/tpal-lint -Werror -race
	$(GO) run ./cmd/tpal-lint -Werror -race internal/minipar/testdata
	$(GO) run ./cmd/tpal-lint -Werror -race -autopar examples/autopar

# lint-go runs the Go-side style gates: gofmt (any file it would
# rewrite fails the stage), go vet, and the repository's own go/ast
# checker (cmd/golint), which needs no network or module cache — it is
# pure standard library.
lint-go:
	test -z "$$(gofmt -l . | grep -v '^benchmark/out/')"
	$(GO) vet ./...
	$(GO) run ./cmd/golint ./internal ./cmd

# fuzz is the CI smoke stage: a short run of each analysis fuzzer (go
# test accepts one -fuzz pattern at a time, so they run back to back).
# FuzzVerify checks verifier soundness against the machine; FuzzLiveness
# checks the promotion-liveness invariants on prppt-stripped mutants;
# FuzzRaceAgreement checks that every race the dynamic sanitizer finds
# is also flagged by the static interference pass. FuzzAutoPar throws
# generated sequential minipar programs at the auto-parallelizer and
# holds it to the certification contract: clean re-verification,
# silent sanitizer, results identical to sequential interpretation.
# FuzzOpt drives mutated corpus programs through the certified
# optimizer: no panics, no new errors, idempotent, and serially
# equivalent to the input program. FuzzBackendEquiv holds the compiled
# backend to the interpreter on mutated corpus programs: identical
# results, stats, traces, faults, and sanitizer verdicts (DESIGN.md §15).
fuzz:
	$(GO) test ./internal/tpal/analysis -run='^$$' -fuzz='^FuzzVerify$$' -fuzztime=10s
	$(GO) test ./internal/tpal/analysis -run='^$$' -fuzz='^FuzzLiveness$$' -fuzztime=10s
	$(GO) test ./internal/tpal/analysis -run='^$$' -fuzz='^FuzzRaceAgreement$$' -fuzztime=10s
	$(GO) test ./internal/minipar/autopar -run='^$$' -fuzz='^FuzzAutoPar$$' -fuzztime=10s
	$(GO) test ./internal/tpal/opt -run='^$$' -fuzz='^FuzzOpt$$' -fuzztime=10s
	$(GO) test ./internal/tpal/machine -run='^$$' -fuzz='^FuzzTrips$$' -fuzztime=10s
	$(GO) test ./internal/tpal/machine/compile -run='^$$' -fuzz='^FuzzBackendEquiv$$' -fuzztime=10s

# cover enforces a statement-coverage floor on internal/tpal/analysis
# — the package whose verdicts every other surface trusts (serve
# admission, the optimizer certifier, autopar, the lint CLI) — on the
# closure-threaded lowering, which must stay observably identical to
# the interpreter, and on the machine package, where the one engine
# both lowerings run on now lives. The profile lands in cover.out
# (gitignored); the floor is a ratchet — raise it when coverage grows,
# never lower it to admit a regression.
COVER_PKG   = ./internal/tpal/analysis ./internal/tpal/machine/compile ./internal/tpal/machine
COVER_FLOOR = 89.0

cover:
	$(GO) test -coverprofile=cover.out $(COVER_PKG)
	@$(GO) tool cover -func=cover.out | awk -v floor=$(COVER_FLOOR) \
		'/^total:/ { pct = $$3; gsub("%", "", pct); \
		  if (pct + 0 < floor + 0) { printf "coverage %s%% is below the %s%% floor\n", pct, floor; exit 1 } \
		  else { printf "coverage %s%% meets the %s%% floor\n", pct, floor } }'

# bench runs every Go micro-benchmark the repository keeps: per-step
# dispatch cost of the interpreter vs the closure-threaded backend
# (corpus and the plus-reduce kernel; serial, heartbeat, sanitizer,
# fan-out, ring-traced and empty-hook configurations) and the one-time
# lowering cost per corpus program, the cost of one promotion, the
# per-spawn cost of one-worker Cilk (BenchmarkSpawn2Serial), one full
# static analysis of the minipar triple nest (raw and optimized, races
# off and on, with allocations), one submission's front end and
# admission gate (BenchmarkAdmit, with allocations), and the four
# design ablations of DESIGN.md §5. How fast the system is end to end
# is not measured here but by `bash benchmark/run.sh`; the paper's
# figures are tpal-bench's.
bench:
	$(GO) test ./internal/tpal/machine ./internal/tpal/analysis ./internal/serve ./internal/heartbeat ./internal/cilk . -run='^$$' -bench . -benchtime 1s

# bench-smoke vets and tests the front-door benchmark harness.
# benchmark/ is its own Go module, so the root `go build ./...` and
# `go test ./...` never compile it: without this stage an API change
# under internal/ can break `bash benchmark/run.sh` unnoticed.
bench-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# ci runs each suite once: race already runs every package's tests
# under the race detector, so race-test, serve-test, autopar-test and
# compile-test (its subsets, kept for focused local runs) are not
# stages, and neither is vet, which lint-go runs. ci snapshots
# `git status --porcelain` before its first stage and fails if it
# differs after the last, so no stage can rewrite a tracked file (or
# leave an unignored one behind) unnoticed.
ci:
	@before="$$(git status --porcelain)"; \
	$(MAKE) lint-go build race lint fuzz cover bench-smoke || exit 1; \
	after="$$(git status --porcelain)"; \
	if [ "$$before" != "$$after" ]; then \
		echo "ci: a stage changed the working tree:"; echo "$$after"; exit 1; \
	fi
