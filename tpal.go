// Package tpal is a Go reproduction of "Task Parallel Assembly Language
// for Uncompromising Parallelism" (Rainey et al., PLDI 2021): heartbeat
// scheduling as a practical runtime, plus the TPAL abstract machine.
//
// # The heartbeat runtime
//
// Parallelism written against this package is latent by default: loops
// and forks run as ordinary sequential code, and only when a heartbeat
// interrupt arrives (every ♥, default 100µs) does the runtime promote
// the oldest latent parallelism into an actual task. Task-creation
// overhead is thereby amortized against ♥ worth of useful work, no
// matter how fine-grained the program's parallelism is — no manual
// granularity control, no tuning per machine.
//
//	rt := tpal.New(tpal.Config{})
//	var sum float64
//	rt.Run(func(c *tpal.Ctx) {
//		sum = tpal.Reduce(c, 0, len(xs),
//			func(a, b float64) float64 { return a + b },
//			func(lo, hi int) float64 {
//				s := 0.0
//				for i := lo; i < hi; i++ { s += xs[i] }
//				return s
//			})
//	})
//
// Primitives: (*Ctx).For and (*Ctx).ForNested for parallel loops,
// Reduce and Accumulate for reductions, (*Ctx).Fork2 and Fork2Call for
// fork-join recursion. All of them expose maximal parallelism at
// near-zero serial cost.
//
// # The abstract machine
//
// The TPAL assembly language itself — fork/join instructions, join
// records, promotion-ready program points, the stack extension with
// promotion-ready marks — is implemented as an executable abstract
// machine. Assemble parses textual TPAL; Execute runs a program under a
// configurable heartbeat. The paper's prod, pow, and fib programs ship
// in internal/tpal/programs and run through cmd/tpal-run.
//
// # Reproduction artifacts
//
// cmd/tpal-bench regenerates every figure of the paper's evaluation;
// see DESIGN.md for the experiment index and EXPERIMENTS.md for
// measured-versus-paper shapes. How fast the system itself is, layer
// by layer, is the front-door benchmark's job (bash benchmark/run.sh,
// BENCHMARK.json); go test -bench keeps only the micro-benchmarks and
// design ablations that neither of those measures.
package tpal

import (
	"time"

	"tpal/internal/heartbeat"
	"tpal/internal/interrupt"
	"tpal/internal/tpal"
	"tpal/internal/tpal/asm"
	"tpal/internal/tpal/machine"
)

// Ctx is a heartbeat task context; it carries the promotion-ready mark
// list of the running task.
type Ctx = heartbeat.Ctx

// Config configures a heartbeat runtime; the zero value selects
// GOMAXPROCS-1 workers, ♥ = 100µs, and no interrupt mechanism (pure
// serial elaboration). Use one of the Mechanism constructors to enable
// heartbeats.
type Config = heartbeat.Config

// RT is a heartbeat runtime instance.
type RT = heartbeat.RT

// RunStats reports timing, scheduling, interrupt-delivery, and
// cost-model (work/span) statistics for one Run.
type RunStats = heartbeat.Stats

// New creates a heartbeat runtime.
func New(cfg Config) *RT { return heartbeat.New(cfg) }

// Run executes root on a fresh runtime built from cfg.
func Run(cfg Config, root func(*Ctx)) RunStats { return heartbeat.Run(cfg, root) }

// Reduce folds [lo, hi) with an associative combine applied in range
// order; leaf computes one block. Latently parallel.
func Reduce[T any](c *Ctx, lo, hi int, combine func(T, T) T, leaf func(lo, hi int) T) T {
	return heartbeat.Reduce(c, lo, hi, combine, leaf)
}

// Accumulate folds [lo, hi) into mutable accumulator views that merge at
// joins (the reducer-view pattern). Latently parallel.
func Accumulate[T any](c *Ctx, lo, hi int, newAcc func() T, merge func(into, from T), leaf func(acc T, lo, hi int)) T {
	return heartbeat.Accumulate(c, lo, hi, newAcc, merge, leaf)
}

// Fork2Call runs f(c, aArg) with f(·, bArg) latent, the allocation-free
// form of (*Ctx).Fork2 for recursive code.
func Fork2Call[A any](c *Ctx, f func(*Ctx, A), aArg, bArg A) {
	heartbeat.Fork2Call(c, f, aArg, bArg)
}

// Interrupt mechanisms, modeled after the paper's evaluation platforms.
// Pass the result in Config.Mechanism.
var (
	// NewPingThread models the best Linux mechanism: a dedicated
	// signaling thread with OS-timer slop and serialized delivery.
	NewPingThread = interrupt.NewPingThread
	// NewPAPI models Linux perf-counter overflow interrupts.
	NewPAPI = interrupt.NewPAPI
	// NewNautilus models the Nautilus kernel's Nemo IPIs driven by
	// per-core APIC timers: precise and cheap.
	NewNautilus = interrupt.NewNautilus
)

// Program is a TPAL assembly program.
type Program = tpal.Program

// MachineConfig configures the abstract machine: the heartbeat threshold
// ♥ in instructions, the fork-join cost τ of the cost semantics, the
// scheduling policy, and the entry register file.
type MachineConfig = machine.Config

// MachineResult is the halting register file plus execution statistics
// (including cost-semantics work and span).
type MachineResult = machine.Result

// Assemble parses textual TPAL assembly.
func Assemble(src string) (*Program, error) { return asm.Parse(src) }

// Execute runs a TPAL program on the abstract machine.
func Execute(p *Program, cfg MachineConfig) (MachineResult, error) {
	return machine.Run(p, cfg)
}

// IntReg builds a register file from integer entry registers, the common
// case for Execute.
func IntReg(regs map[string]int64) machine.RegFile {
	rf := make(machine.RegFile, len(regs))
	for name, v := range regs {
		rf[tpal.Reg(name)] = machine.IntV(v)
	}
	return rf
}

// ResultInt reads an integer result register from a machine result.
func ResultInt(res MachineResult, reg string) (int64, bool) {
	return res.Regs.Get(tpal.Reg(reg)).AsInt()
}

// DefaultHeartbeat is the paper's tuned heartbeat interval.
const DefaultHeartbeat = 100 * time.Microsecond
