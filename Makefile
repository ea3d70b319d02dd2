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
# packages: the schedulers, the work-stealing deque and its park/wake,
# and the interrupt mechanisms (the thread timer and the heartbeat
# mailbox it raises are cross-goroutine code).
race-test:
	$(GO) test -race ./internal/sched ./internal/heartbeat ./internal/cilk ./internal/interrupt

# serve-test runs the job-execution service and daemon suites under
# the race detector: admission gating (analyze-once, no head-of-line
# blocking), DRR fairness across all tenants, singleflight dedup, job
# retention, budget and deadline enforcement, drain, the HTTP E2E
# batch, the SSE event stream, and the 10k-job many-tenant correctness
# burst on both backends (which fails if a job does not complete or no
# singleflight collapse was observed; it writes no file).
serve-test:
	$(GO) test -race ./internal/serve ./cmd/tpal-serve

# autopar-test runs the auto-parallelizer's certification contract
# under the Go race detector: the pass's own suite (every rewrite
# re-verified and compared against sequential interpretation across
# the schedule matrix), the differential oracle over the minipar
# corpus, the golden CLI verdict tables, and the serve admission path.
autopar-test:
	$(GO) test -race ./internal/minipar ./internal/minipar/autopar ./cmd/minipar
	$(GO) test -race ./internal/serve -run AutoParallelize
	$(GO) test -race ./cmd/tpal-lint -run Autopar

# compile-test runs the engine and both of its lowerings under the Go
# race detector: the closure-threaded backend's differential-oracle
# suite (the corpus, minipar samples, fault paths, budget/cancellation
# cuts, and the backend seam, every case cross-checked against the
# interpreter lowering across the schedule matrix — lockstep,
# random-order seeds, depth-first, signal-period splits),
# TestSchedulerGolden holding both lowerings to the scheduler digests
# in machine/testdata/sched_golden.json, and the machine package's own
# suite.
compile-test:
	$(GO) test -race ./internal/tpal/machine/compile ./internal/tpal/machine
	$(GO) test -race ./internal/serve -run CompiledBackend

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
COVER_FLOOR = 80.0

cover:
	$(GO) test -coverprofile=cover.out $(COVER_PKG)
	@$(GO) tool cover -func=cover.out | awk -v floor=$(COVER_FLOOR) \
		'/^total:/ { pct = $$3; gsub("%", "", pct); \
		  if (pct + 0 < floor + 0) { printf "coverage %s%% is below the %s%% floor\n", pct, floor; exit 1 } \
		  else { printf "coverage %s%% meets the %s%% floor\n", pct, floor } }'

# bench runs every Go micro-benchmark the repository keeps: per-step
# dispatch cost of the interpreter vs the closure-threaded backend
# (corpus and the plus-reduce kernel; serial, heartbeat, sanitizer and
# fan-out configurations) and the one-time lowering cost per corpus
# program, the cost of one promotion, one full static analysis of the
# minipar triple nest (raw and optimized, races off and on, with
# allocations), and the four design ablations of DESIGN.md §5. How fast
# the system is end to end is not measured here but by
# `bash benchmark/run.sh`; the paper's figures are tpal-bench's.
bench:
	$(GO) test ./internal/tpal/machine ./internal/tpal/analysis ./internal/heartbeat . -run='^$$' -bench . -benchtime 1s

# bench-smoke vets and tests the front-door benchmark harness.
# benchmark/ is its own Go module, so the root `go build ./...` and
# `go test ./...` never compile it: without this stage an API change
# under internal/ can break `bash benchmark/run.sh` unnoticed.
bench-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# ci snapshots `git status --porcelain` before its first stage and
# fails if it differs after the last, so no stage can rewrite a tracked
# file (or leave an unignored one behind) unnoticed.
ci:
	@before="$$(git status --porcelain)"; \
	$(MAKE) vet lint-go build race race-test serve-test autopar-test compile-test lint fuzz cover bench-smoke || exit 1; \
	after="$$(git status --porcelain)"; \
	if [ "$$before" != "$$after" ]; then \
		echo "ci: a stage changed the working tree:"; echo "$$after"; exit 1; \
	fi
