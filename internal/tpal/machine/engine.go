package machine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"tpal/internal/tpal"
)

// SchedulePolicy selects how the machine interleaves runnable tasks.
type SchedulePolicy uint8

// Scheduling policies.
const (
	// Lockstep steps every runnable task once per round, modeling
	// synchronous parallel execution. It is deterministic.
	Lockstep SchedulePolicy = iota
	// RandomOrder steps one task per step, chosen by a seeded RNG,
	// modeling an arbitrary fair interleaving.
	RandomOrder
	// DepthFirst always steps the most recently created runnable task,
	// modeling a single worker that eagerly follows children.
	DepthFirst
)

// Config configures a machine run.
type Config struct {
	// Heartbeat is ♥, the promotion threshold, measured in executed
	// instructions (the abstract machine's cycle counter increments once
	// per instruction). Zero or negative disables heartbeat interrupts
	// entirely, yielding the serial elaboration of the program.
	Heartbeat int64
	// SignalPeriod, when positive, models OS-signal delivery with
	// rollforward semantics (§3.2): every SignalPeriod instructions a
	// signal is delivered to the running task at whatever instruction it
	// happens to be executing, and — as rollforward compilation
	// guarantees — the interrupt is serviced at the next
	// promotion-ready program point the task's control flow enters.
	// Independent of Heartbeat; both may be active.
	SignalPeriod int64
	// Tau is τ, the cost charged to each fork-join pair by the cost
	// semantics of Figure 28. Defaults to 1 when zero.
	Tau int64
	// MaxSteps bounds total executed instructions as a runaway guard.
	// Defaults to 100 million when zero.
	MaxSteps int64
	// Fuel, when positive, is a hard execution budget in machine
	// transitions: once the run has consumed Fuel steps it stops with
	// ErrFuel. Unlike MaxSteps (a runaway guard with a large default),
	// Fuel models an externally imposed budget — the serve layer derives
	// it from the static work estimate — and is reported distinctly so
	// callers can tell "the program is a hog" from "the machine looped".
	Fuel int64
	// Context, when non-nil, cancels the run: the machine polls
	// Context.Done() periodically (every ctxCheckMask+1 steps) and
	// returns the context's error wrapped in ErrInterrupted, so callers
	// can errors.Is against context.Canceled or context.DeadlineExceeded
	// to distinguish cancellation from timeout.
	Context context.Context
	// Schedule selects the interleaving policy; Seed seeds RandomOrder.
	Schedule SchedulePolicy
	Seed     int64
	// Regs is the initial register file of the root task.
	Regs RegFile
	// RaceDetect enables the determinacy-race sanitizer (race.go): every
	// stack access is checked against shadow memory under the
	// happens-before relation induced by fork and join, and the first
	// logically-parallel conflicting pair aborts the run with a
	// RaceError. For strictly nested fork-join programs the verdict is
	// schedule-independent.
	RaceDetect bool
	// SkipVerify disables the static verifier Run applies to the program
	// (the entry registers are taken from Regs). Verifier errors mark
	// definite machine faults, so rejecting them up front is the
	// default; tests exercising the dynamic fault paths opt out here.
	SkipVerify bool
	// Trace, when set, is the machine's one observer: it receives an
	// event per machine transition, per task start and end, per
	// promotion-gap closure and per fuel checkpoint. WriteTrace renders
	// the Appendix D execution-trace view; Record feeds a runtime
	// tracer ring.
	Trace func(TraceEvent)
}

// Stats aggregates execution statistics, including the cost-semantics
// work and span of the executed computation.
type Stats struct {
	Steps            int64 // total machine transitions (instructions + terminators)
	Work             int64 // cost-semantics work: instructions plus τ per fork
	Span             int64 // cost-semantics span of the halting path's DAG
	Forks            int64 // fork instructions executed (= promotions that created a task)
	Joins            int64 // join instructions executed
	HandlerRuns      int64 // heartbeat interrupts serviced (handler entries)
	SignalsDelivered int64 // OS signals delivered under rollforward semantics
	JoinRecords      int64 // jralloc instructions executed
	MaxLiveTasks     int   // peak size of the runnable task set
	TasksCreated     int64 // total tasks ever created (root + forked children + combine continuations)
	// MaxPromotionGap is the largest number of machine steps any task
	// executed between consecutive promotion events: arrivals at prppt
	// heads (heartbeat check points), forks, pair-completing joins, and
	// task retirement. The static liveness pass proves an upper bound on
	// this number for LatencyFinite programs.
	MaxPromotionGap int64
}

// Result is the outcome of a machine run: the register file of the task
// that executed halt, plus statistics.
type Result struct {
	Regs  RegFile
	Stats Stats
}

// ErrMachine is the class of dynamic machine errors (stuck states).
var ErrMachine = errors.New("tpal machine error")

// ErrMaxSteps reports that the step bound was exhausted.
var ErrMaxSteps = errors.New("tpal machine: maximum step count exceeded")

// ErrFuel reports that the run consumed its Config.Fuel budget before
// halting.
var ErrFuel = errors.New("tpal machine: fuel budget exceeded")

// ErrInterrupted reports that Config.Context ended the run; the wrapped
// chain also matches the context's own error (context.Canceled or
// context.DeadlineExceeded).
var ErrInterrupted = errors.New("tpal machine: run interrupted")

// ErrVerify reports that the static verifier found a definite fault in
// the program before execution started.
var ErrVerify = errors.New("tpal machine: program rejected by static verifier")

// Op is one lowered instruction or terminator — the engine's only seam.
// An Op performs its operation on t and either advances the program
// counter (Task.Next) or transfers control (Task.Goto, Engine.Fork,
// Engine.Join, Engine.Halt). Everything per-transition — budgets, the
// heartbeat poll, tracing, cost counters, signal delivery —
// runs in the engine's step prologue before the Op is called, so a
// lowering decides how one instruction is dispatched and nothing about
// how tasks are scheduled.
type Op func(e *Engine, t *Task) error

// Block is one lowered basic block: the annotation's control-flow
// targets linked to block pointers, its ΔR renames resolved to register
// slots, and one Op per instruction plus one for the terminator.
type Block struct {
	src   *tpal.Block
	label tpal.Label // src.Label, kept here for the hot paths that name the block
	// prppt marks a promotion-ready block head: the PromotionReady
	// metafunction of Figure 27 is tested only on arrival at these.
	prppt   bool
	handler *Block // AnnPrppt handler, nil when undefined
	jtppt   bool
	renames []slotPair // AnnJtppt ΔR as (child slot, merged slot)
	comb    *Block     // AnnJtppt combining block, nil when undefined
	ops     []Op       // len(src.Instrs)+1; the last entry is the terminator
}

type slotPair struct{ from, to int }

// Code is a program lowered for the engine. Registers live in a flat
// array indexed by slot numbers assigned in first-appearance order over
// the program text. A Code is immutable after Lower and safe to run any
// number of times, concurrently; each Run gets fresh task state.
type Code struct {
	blocks map[tpal.Label]*Block
	entry  *Block
	regIdx map[tpal.Reg]int
	regs   []tpal.Reg // slot → register name
}

// Lower builds the engine's form of a structurally valid program:
// register slots, block shells with their annotation links, and — by
// calling lowerOp for every instruction index i of every block b, with
// i == len(b.Instrs) addressing the terminator — the Ops. lowerOp runs
// after every slot and block shell exists, so it may resolve any
// register or label of the program through c.
func Lower(prog *tpal.Program, lowerOp func(c *Code, b *tpal.Block, i int) Op) *Code {
	c := &Code{
		blocks: make(map[tpal.Label]*Block, len(prog.Blocks)),
		regIdx: make(map[tpal.Reg]int),
	}
	shells := make([]Block, len(prog.Blocks))
	for bi, b := range prog.Blocks {
		for _, rr := range b.Ann.DeltaR {
			c.addSlot(rr.From)
			c.addSlot(rr.To)
		}
		for _, in := range b.Instrs {
			c.addSlot(in.Dst)
			c.addSlot(in.Src)
			c.addSlot(in.Src2)
			if in.Val.Kind == tpal.OperReg {
				c.addSlot(in.Val.Reg)
			}
		}
		if b.Term.Val.Kind == tpal.OperReg {
			c.addSlot(b.Term.Val.Reg)
		}
		shells[bi] = Block{
			src:   b,
			label: b.Label,
			prppt: b.Ann.Kind == tpal.AnnPrppt,
			jtppt: b.Ann.Kind == tpal.AnnJtppt,
		}
		c.blocks[b.Label] = &shells[bi]
	}
	for bi, b := range prog.Blocks {
		lb := &shells[bi]
		if lb.prppt {
			lb.handler = c.blocks[b.Ann.Handler]
		}
		if lb.jtppt {
			lb.comb = c.blocks[b.Ann.Comb]
			for _, rr := range b.Ann.DeltaR {
				lb.renames = append(lb.renames, slotPair{from: c.Slot(rr.From), to: c.Slot(rr.To)})
			}
		}
		lb.ops = make([]Op, len(b.Instrs)+1)
		for i := range lb.ops {
			lb.ops[i] = lowerOp(c, b, i)
		}
	}
	c.entry = c.blocks[prog.Entry]
	return c
}

// addSlot assigns the next flat-array index to a register on its first
// appearance. The empty register (unused Instr fields) has no slot.
func (c *Code) addSlot(r tpal.Reg) {
	if _, ok := c.regIdx[r]; !ok && r != "" {
		c.regIdx[r] = len(c.regs)
		c.regs = append(c.regs, r)
	}
}

// Slot returns the flat-array index of a register the program text
// names, or -1.
func (c *Code) Slot(r tpal.Reg) int {
	if s, ok := c.regIdx[r]; ok {
		return s
	}
	return -1
}

// Block returns the lowered block with the given label, or nil.
func (c *Code) Block(l tpal.Label) *Block { return c.blocks[l] }

// Task is one concurrent TPAL task: a program counter (block + offset),
// a heartbeat cycle counter ⋄, a private register file, and its
// position in the fork tree. The register file is a flat slot array
// plus a written bitmap; the bitmap keeps the key-presence semantics of
// RegFile — a register explicitly set to nil is present in the final
// file, an untouched one is absent.
type Task struct {
	id     int
	block  *Block
	off    int // index into block.ops; the last addresses the terminator
	cycles int64
	regFile
	edge *joinEdge
	side side
	gone bool  // retired from the schedule (removeTask)
	span int64 // cost-semantics span accumulated along this task's path
	// sincePrppt counts machine steps since the task's last promotion
	// event (prppt-head arrival, fork, pair-completing join, or birth);
	// it feeds Stats.MaxPromotionGap.
	sincePrppt int64

	// Signal-delivery (rollforward) state: sinceSignal counts
	// instructions since the last delivery; pendingSignal records a
	// delivered but not yet serviced signal, consumed at the next
	// promotion-ready program point.
	sinceSignal   int64
	pendingSignal bool

	// clock is the task's vector clock, maintained only under
	// Config.RaceDetect (nil otherwise).
	clock vclock
}

// Reg reads the register in slot s.
func (t *Task) Reg(s int) Value { return t.regs[s] }

// SetReg writes the register in slot s.
func (t *Task) SetReg(s int, v Value) {
	t.regs[s] = v
	t.written[s] = true
}

// Next advances the program counter past the current instruction.
func (t *Task) Next() { t.off++ }

// Goto transfers control to the head of b.
func (t *Task) Goto(b *Block) { t.block, t.off = b, 0 }

// Engine is one run of a lowered program under heartbeat scheduling:
// the schedule loop, the budgets, the step prologue, and the fork/join
// tree. There is exactly one; both backends feed it.
type Engine struct {
	code *Code
	cfg  Config

	// tasks is the runnable set in creation order. Under Lockstep it
	// also holds the tombstones of tasks retired this round, dropped by
	// compact at the next round's start; live counts the rest.
	tasks    []*Task
	live     int
	nextTask int
	nextJoin int
	rng      *rand.Rand
	race     *raceState

	halted bool
	final  *Task
	stats  Stats
	// free holds the register files of children merged away by
	// pair-completing joins, for Fork to reuse.
	free []regFile
	// extras holds entry registers the program text never names: they
	// have no slot, are immutable during the run (no slot means no
	// instruction can touch them), and merge into the final register
	// file at halt.
	extras RegFile
}

// Run executes the lowered program to completion under cfg and returns
// the halting task's register file and statistics. It does not verify:
// callers gate on the static verifier first (Run, compile.Run).
func (c *Code) Run(cfg Config) (Result, error) {
	if cfg.Tau == 0 {
		cfg.Tau = 1
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 100_000_000
	}
	e := &Engine{code: c, cfg: cfg}
	if cfg.Schedule == RandomOrder {
		e.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	root := &Task{
		block:   c.entry,
		regFile: regFile{make([]Value, len(c.regs)), make([]bool, len(c.regs))},
	}
	for r, v := range cfg.Regs {
		if s, ok := c.regIdx[r]; ok {
			root.SetReg(s, v)
		} else {
			if e.extras == nil {
				e.extras = make(RegFile)
			}
			e.extras[r] = v
		}
	}
	if cfg.RaceDetect {
		e.race = newRaceState()
		root.clock = vclock{root.id: 1}
	}
	e.nextTask = 1
	e.stats.TasksCreated++
	e.addTask(root)
	e.traceTask(root, TraceTaskStart)
	return e.run()
}

// run drives the engine until halt, deadlock-free completion of all
// tasks, or an error.
func (e *Engine) run() (Result, error) {
	for !e.halted && e.live > 0 {
		if err := e.checkBudget(); err != nil {
			return Result{}, err
		}
		var err error
		switch e.cfg.Schedule {
		case Lockstep:
			// The round is the tasks live at its start: tasks forked
			// this round are appended past n and run starting next
			// round, and tasks that retire mid-round are skipped via
			// their tombstone.
			e.compact()
			n := len(e.tasks)
			for i := 0; i < n; i++ {
				if e.halted {
					break
				}
				t := e.tasks[i]
				if t.gone {
					continue
				}
				// The round itself can span many transitions, so the
				// budgets are re-checked per step, not just per round.
				if i > 0 {
					if err = e.checkBudget(); err != nil {
						return Result{}, err
					}
				}
				if err = e.step(t); err != nil {
					return Result{}, err
				}
			}
		case RandomOrder:
			err = e.step(e.tasks[e.rng.Intn(len(e.tasks))])
		case DepthFirst:
			err = e.step(e.tasks[len(e.tasks)-1])
		default:
			return Result{}, fmt.Errorf("%w: unknown schedule policy %d", ErrMachine, e.cfg.Schedule)
		}
		if err != nil {
			return Result{}, err
		}
	}
	if !e.halted {
		return Result{}, fmt.Errorf("%w: all tasks terminated without executing halt", ErrMachine)
	}
	return Result{Regs: e.finalRegs(), Stats: e.stats}, nil
}

// finalRegs rebuilds the halting task's register file as a map: every
// written slot plus the slot-less extras.
func (e *Engine) finalRegs() RegFile {
	out := make(RegFile, len(e.extras)+len(e.code.regs))
	for r, v := range e.extras {
		out[r] = v
	}
	for i, w := range e.final.written {
		if w {
			out[e.code.regs[i]] = e.final.regs[i]
		}
	}
	return out
}

// ctxCheckMask gates how often the engine polls Config.Context and
// records a fuel checkpoint: every ctxCheckMask+1 machine transitions.
// Polling a channel is ~100ns, several times a machine step, so the
// poll is amortized; the mask bounds cancellation latency at 256 steps.
const ctxCheckMask = 255

// checkBudget enforces the per-run resource bounds: the MaxSteps
// runaway guard, the externally imposed Fuel budget, and Context
// cancellation. It is called before every machine transition.
func (e *Engine) checkBudget() error {
	if e.stats.Steps >= e.cfg.MaxSteps {
		return ErrMaxSteps
	}
	if e.cfg.Fuel > 0 && e.stats.Steps >= e.cfg.Fuel {
		return ErrFuel
	}
	if e.cfg.Context != nil && e.stats.Steps&ctxCheckMask == 0 {
		select {
		case <-e.cfg.Context.Done():
			return fmt.Errorf("%w: %w", ErrInterrupted, context.Cause(e.cfg.Context))
		default:
		}
	}
	if e.cfg.Trace != nil && e.stats.Steps&ctxCheckMask == 0 {
		remaining := int64(-1)
		if e.cfg.Fuel > 0 {
			remaining = e.cfg.Fuel - e.stats.Steps
		}
		e.cfg.Trace(TraceEvent{Kind: TraceFuel, Cycles: e.stats.Steps, Offset: int(remaining)})
	}
	return nil
}

// step executes one machine transition for t: either the try-promote
// rule (redirecting control to the heartbeat handler) or one instruction
// or terminator.
func (e *Engine) step(t *Task) error {
	e.stats.Steps++
	b := t.block
	if t.off == 0 && b.prppt {
		// Arrival at a promotion-ready point is a heartbeat check point:
		// the promotion-latency gap ends here whether or not the
		// heartbeat fires.
		e.noteGap(t)
		// PromotionReady (Figure 27): the cycle counter has passed the
		// heartbeat threshold, or a delivered OS signal is pending under
		// rollforward semantics.
		if (e.cfg.Heartbeat > 0 && t.cycles > e.cfg.Heartbeat) || t.pendingSignal {
			// [try-promote]: control flows to the handler block with a
			// fresh cycle counter; the handler itself costs the one
			// transition.
			e.tracePromotion(t)
			e.stats.HandlerRuns++
			t.cycles = 0
			t.pendingSignal = false
			t.span++
			e.stats.Work++
			if b.handler == nil {
				return e.Failf(t, "jump to undefined label %q", b.src.Ann.Handler)
			}
			t.Goto(b.handler)
			return nil
		}
	}
	if e.cfg.Trace != nil {
		e.traceStep(t)
	}
	t.cycles++
	t.sincePrppt++
	t.span++
	e.stats.Work++
	if e.cfg.SignalPeriod > 0 {
		// Rollforward delivery: the signal arrives here, mid-block, and
		// is remembered until the next promotion-ready point.
		if t.sinceSignal++; t.sinceSignal >= e.cfg.SignalPeriod {
			t.sinceSignal = 0
			t.pendingSignal = true
			e.stats.SignalsDelivered++
		}
	}
	return b.ops[t.off](e, t)
}

// Failf builds the machine fault for t's current position.
func (e *Engine) Failf(t *Task, format string, args ...any) error {
	loc := fmt.Sprintf("task %d at %s[%d]", t.id, t.block.label, t.off)
	return fmt.Errorf("%w: %s: %s", ErrMachine, loc, fmt.Sprintf(format, args...))
}

// noteGap closes one promotion-latency segment for t: the steps the
// task executed since its last promotion event are folded into the
// run's maximum and the counter restarts.
func (e *Engine) noteGap(t *Task) {
	if t.sincePrppt > e.stats.MaxPromotionGap {
		e.stats.MaxPromotionGap = t.sincePrppt
	}
	if e.cfg.Trace != nil {
		e.cfg.Trace(TraceEvent{Kind: TraceGap, Task: t.id, Cycles: t.sincePrppt})
	}
	t.sincePrppt = 0
}

func (e *Engine) addTask(t *Task) {
	e.tasks = append(e.tasks, t)
	e.live++
	if e.live > e.stats.MaxLiveTasks {
		e.stats.MaxLiveTasks = e.live
	}
}

// removeTask retires t from the schedule. Under Lockstep it only leaves
// a tombstone, which the current round skips and the next round's
// compact drops. RandomOrder draws an index below len(tasks) and
// DepthFirst steps the last task, so both need the list exact and
// remove t at once; t is the task just stepped, which under DepthFirst
// is at or near the end, so the scan starts there.
func (e *Engine) removeTask(t *Task) {
	t.gone = true
	e.live--
	if e.cfg.Schedule == Lockstep {
		return
	}
	for i := len(e.tasks) - 1; i >= 0; i-- {
		if e.tasks[i] == t {
			e.tasks = slices.Delete(e.tasks, i, i+1)
			return
		}
	}
}

// compact drops the tombstones of retired tasks from the task list,
// keeping the live tasks in order, so the list reads as if every
// retirement had removed its task at once.
func (e *Engine) compact() {
	if e.live == len(e.tasks) {
		return
	}
	kept := e.tasks[:0]
	for _, t := range e.tasks {
		if !t.gone {
			kept = append(kept, t)
		}
	}
	clear(e.tasks[len(kept):])
	e.tasks = kept
}

// regFile is one task's register file: the slot array and its written
// bitmap, each len(Code.regs) long.
type regFile struct {
	regs    []Value
	written []bool
}

// cloneRegs returns a copy of t's register file for a new task, made in
// a freed file when there is one.
func (e *Engine) cloneRegs(t *Task) regFile {
	n := len(e.free)
	if n == 0 {
		return regFile{append([]Value(nil), t.regs...), append([]bool(nil), t.written...)}
	}
	f := e.free[n-1]
	e.free[n-1] = regFile{}
	e.free = e.free[:n-1]
	copy(f.regs, t.regs)
	copy(f.written, t.written)
	return f
}

// JrAlloc implements [jralloc]: a fresh join record, initially closed
// (no fork edge registered), with cont as its continuation. Checking
// that the instruction names an existing jtppt block is the lowering's
// business: statically in compile, per execution in the interpreter.
func (e *Engine) JrAlloc(cont *Block) Value {
	rec := &JoinRecord{id: e.nextJoin, cont: cont}
	e.nextJoin++
	e.stats.JoinRecords++
	return JoinV(rec)
}

// Fork implements the fork instruction once its operands are resolved:
// register a dependency edge on the join record, spawn a child task
// with a copy of the parent's register file starting at target, and let
// the parent continue at its next instruction. Both restart their
// heartbeat cycle counters, matching the [fork] rule, whose parent and
// child subderivations begin with ⋄ = 0.
func (e *Engine) Fork(t *Task, rec *JoinRecord, target *Block) error {
	edge := &joinEdge{rec: rec, up: t.edge, upSide: t.side}
	if e.race != nil {
		var up *forkNode
		if t.edge != nil {
			up = t.edge.node
		}
		edge.node = &forkNode{up: up, upSide: t.side, block: t.block.label, instr: t.off}
	}

	// Cost semantics (Figure 28): each fork-join pair is weighted τ; both
	// branches of the parallel composition start from the parent's span
	// plus τ.
	e.stats.Work += e.cfg.Tau
	base := t.span + e.cfg.Tau

	child := &Task{
		id:      e.nextTask,
		block:   target,
		regFile: e.cloneRegs(t),
		edge:    edge,
		side:    childSide,
		span:    base,
	}
	e.nextTask++
	e.stats.TasksCreated++
	e.stats.Forks++
	if e.race != nil {
		child.clock = t.clock.fork(t.id, child.id)
	}
	e.addTask(child)
	e.traceTask(child, TraceTaskStart)

	t.edge, t.side = edge, parentSide
	t.cycles = 0
	e.noteGap(t)
	t.span = base
	t.off++
	return nil
}

// Join implements the join instruction's three-way behavior:
//
//   - [join-block]: the task is the first of its edge's pair to arrive.
//     It stashes its register file in the join record's tree and
//     terminates.
//   - pair completion: the task is the second to arrive. Register files
//     merge per the ΔR of the continuation block's jtppt annotation
//     (MergeR, Figure 27: the parent's file with the ΔR-selected child
//     registers copied in under their renamed targets, which take the
//     child's value even when the parent also defines them), and the
//     task continues as the combining block one level up the fork tree.
//   - [join-continue]: the task holds no unresolved edge on this record;
//     the record is closed, and control transfers to the record's
//     continuation block.
func (e *Engine) Join(t *Task, rec *JoinRecord) error {
	e.stats.Joins++
	cont := rec.cont

	if t.edge == nil || t.edge.rec != rec {
		// [join-continue]: every edge this task participated in on rec is
		// resolved; the join point is closed and the continuation runs in
		// this task.
		t.Goto(cont)
		return nil
	}

	edge := t.edge
	if !edge.arrived {
		// [join-block]: first arriver stashes and terminates.
		edge.arrived = true
		edge.stashed = t
		e.noteGap(t)
		e.removeTask(t)
		e.traceTask(t, TraceTaskEnd)
		return nil
	}

	// Second arriver: resolve the edge.
	first := edge.stashed
	if first.side == t.side {
		return e.Failf(t, "join edge resolved twice from the %s side", t.side)
	}
	if !cont.jtppt {
		return e.Failf(t, "join continuation %q lacks a jtppt annotation", cont.label)
	}
	parent, child := t, first
	if t.side == childSide {
		parent, child = first, t
	}
	// MergeR in place: neither side's file is read again after the
	// merge, so the surviving task takes over the parent's file and the
	// ΔR-selected child registers are copied into it. The child's file
	// goes to the free list.
	cf := child.regFile
	t.regFile = parent.regFile
	for _, rn := range cont.renames {
		t.regs[rn.to] = cf.regs[rn.from]
		t.written[rn.to] = true
	}
	e.free = append(e.free, cf)
	first.regFile = regFile{}

	// The surviving task becomes the combining task: it runs the
	// combining block with the merged register file, resuming the
	// parent's position in the fork tree.
	t.edge = edge.up
	t.side = edge.upSide
	if e.race != nil {
		t.clock.join(t.id, first.clock)
	}
	t.cycles = 0
	e.noteGap(t)
	if first.span > t.span {
		t.span = first.span
	}
	e.stats.TasksCreated++ // the combine continuation counts as a scheduled task
	if cont.comb == nil {
		return e.Failf(t, "jump to undefined label %q", cont.src.Ann.Comb)
	}
	t.Goto(cont.comb)
	return nil
}

// Halt implements the halt terminator: the run ends and t's register
// file is the result.
func (e *Engine) Halt(t *Task) error {
	e.halted = true
	e.final = t
	e.noteGap(t)
	e.traceTask(t, TraceTaskEnd)
	e.stats.Span = t.span
	return nil
}
