// Package compile is the closure-threaded lowering for the TPAL
// abstract machine: it pre-lowers each verified program's instructions
// into specialized machine.Op closures (threaded code) for the one
// engine in package machine. Operands are resolved to constants or
// register slots at compile time; branch targets resolve to block
// pointers, so taken jumps are one pointer store instead of a map
// lookup; and the per-instruction dynamic checks of the interpreter
// (operand-kind checks, stack-pointer checks) are elided at sites the
// static analyses prove can never fault. The package holds no engine:
// scheduling, budgets, fork/join, tracing, and the sanitizer are the
// machine's.
//
// The interpreter lowering in package machine remains the
// differential-testing oracle: for every program, schedule, seed, and
// budget, this lowering must produce identical results, identical fault
// errors (byte for byte), identical Stats (including MaxPromotionGap
// and TripCounts), identical Trace/Tracer event streams, and identical
// race-sanitizer verdicts. The equivalence suite and FuzzBackendEquiv
// in this package enforce that contract; DESIGN.md §15 specifies it.
package compile

import (
	"tpal/internal/tpal"
	"tpal/internal/tpal/analysis"
	"tpal/internal/tpal/machine"
)

// Options configures compilation.
type Options struct {
	// Report, when set, is the static-analysis report for the program
	// being compiled (with the entry registers the program will run
	// under). It enables check hoisting: dynamic checks are elided at
	// instruction sites carrying no diagnostic of any severity, and
	// direct if-jumps the interval analysis resolved to a single
	// direction compile one-sided. A nil Report compiles every check.
	Report *analysis.Report
}

// Program is a compiled TPAL program: every instruction lowered to a
// closure, ready to run any number of times under different configs.
// A Program is immutable after Compile and safe to cache per program
// fingerprint; each Run gets fresh task state.
type Program struct {
	src  *tpal.Program
	code *machine.Code

	hoisted int
	nops    int
}

// Source returns the program the closures were compiled from.
func (p *Program) Source() *tpal.Program { return p.src }

// Hoisted returns the number of dynamic checks the compiler elided or
// discharged statically (operand-kind checks at verifier-proved sites,
// statically linked jralloc continuations and branch targets, one-sided
// if-jumps).
func (p *Program) Hoisted() int { return p.hoisted }

// Ops returns the total number of compiled closures (instructions plus
// terminators).
func (p *Program) Ops() int { return p.nops }

// Compile lowers a program to threaded code. The program is validated
// structurally; the static verifier gate runs at execution time (Run),
// as in machine.Run, so a Compile-d program can still be executed with
// SkipVerify for fault-path testing.
func Compile(prog *tpal.Program, opts Options) (*Program, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	c := &compiler{prog: prog, report: opts.Report, p: &Program{src: prog}}
	c.indexReport()
	c.p.code = machine.Lower(prog, c.lowerOp)
	return c.p, nil
}

// lowerOp is the machine.Lower callback: one closure per instruction,
// the terminator at i == len(b.Instrs).
func (c *compiler) lowerOp(code *machine.Code, b *tpal.Block, i int) machine.Op {
	c.code = code
	c.p.nops++
	if i == len(b.Instrs) {
		return c.lowerTerm(b)
	}
	return c.lowerInstr(b, i, b.Instrs[i])
}

// Run compiles and executes prog under cfg on the compiled backend,
// with exactly machine.Run's contract: the machine.Verify gate
// (structural validation, then — unless cfg.SkipVerify — the static
// verifier with cfg.Regs as the entry registers), then execution. The
// analysis run for the gate doubles as the check-hoisting report.
// Registered as machine.BackendCompiled via init.
func Run(prog *tpal.Program, cfg machine.Config) (machine.Result, error) {
	report, err := machine.Verify(prog, cfg)
	if err != nil {
		return machine.Result{}, err
	}
	cp, err := Compile(prog, Options{Report: report})
	if err != nil {
		return machine.Result{}, err
	}
	return cp.code.Run(cfg)
}

// Run executes an already-compiled program under cfg. Unless
// cfg.SkipVerify is set, the machine.Verify gate runs first against
// the source program with cfg.Regs as entry registers. Callers that
// verified at admission time (the serve layer) set SkipVerify and pay
// nothing here.
func (p *Program) Run(cfg machine.Config) (machine.Result, error) {
	if !cfg.SkipVerify {
		if _, err := machine.Verify(p.src, cfg); err != nil {
			return machine.Result{}, err
		}
	}
	return p.code.Run(cfg)
}

func init() {
	machine.RegisterCompiledBackend(Run)
}

type siteKey struct {
	block tpal.Label
	instr int
}

type compiler struct {
	prog   *tpal.Program
	report *analysis.Report
	p      *Program
	code   *machine.Code // the lowering in progress: slots and block shells

	diagged   map[siteKey]bool
	blockDiag map[tpal.Label]bool
	fates     map[siteKey]analysis.BranchFate
}

// indexReport prepares the hoisting indexes: which sites carry any
// diagnostic (those keep their checks), and which direct branches the
// interval analysis resolved.
func (c *compiler) indexReport() {
	if c.report == nil {
		return
	}
	c.diagged = make(map[siteKey]bool)
	c.blockDiag = make(map[tpal.Label]bool)
	for _, d := range c.report.Diags {
		if d.Instr == tpal.IssueBlock {
			c.blockDiag[d.Block] = true
			continue
		}
		c.diagged[siteKey{d.Block, d.Instr}] = true
	}
	c.fates = make(map[siteKey]analysis.BranchFate)
	for _, f := range c.report.Branches {
		c.fates[siteKey{f.Block, f.Instr}] = f.Fate
	}
}

// safeSite reports whether the analyses proved the site fault-free:
// hoisting is allowed only when a report is present and neither the
// site nor its block carries any diagnostic. The check-hoisting
// soundness argument (DESIGN.md §15) rests on the verifier gate: a
// diag-free site in a gate-passing program cannot trip the fault its
// check guards, so eliding the check cannot diverge from the oracle.
func (c *compiler) safeSite(b tpal.Label, i int) bool {
	return c.report != nil && !c.blockDiag[b] && !c.diagged[siteKey{b, i}]
}

// slot returns the flat-array index of a register the program names.
func (c *compiler) slot(r tpal.Reg) int { return c.code.Slot(r) }

// truthy is Value.Truthy inlined for the hot path: nil and integer
// zero are TPAL-true.
func truthy(v machine.Value) bool {
	return v.Kind <= machine.VInt && v.Int == 0
}

// faultOp compiles a statically known runtime fault: the interpreter
// only faults if the instruction executes, so a bad-but-dead site must
// compile to a closure that fails with the identical message at run
// time, not to a compile-time error.
func faultOp(format string, args ...any) machine.Op {
	return func(e *machine.Engine, t *machine.Task) error {
		return e.Failf(t, format, args...)
	}
}

func (c *compiler) lowerInstr(b *tpal.Block, i int, in tpal.Instr) machine.Op {
	switch in.Kind {
	case tpal.IMove:
		return c.lowerMove(in)
	case tpal.IBinOp:
		return c.lowerBinOp(in)
	case tpal.IIfJump:
		return c.lowerIfJump(b, i, in)
	case tpal.IJrAlloc:
		return c.lowerJrAlloc(in)
	case tpal.IFork:
		return c.lowerFork(b, i, in)
	case tpal.ISNew:
		dst := c.slot(in.Dst)
		return func(e *machine.Engine, t *machine.Task) error {
			t.SetReg(dst, machine.PtrV(machine.NewStack().Top()))
			t.Next()
			return nil
		}
	case tpal.ISAlloc:
		return c.lowerSAlloc(b, i, in)
	case tpal.ISFree:
		return c.lowerSFree(b, i, in)
	case tpal.ILoad:
		return c.lowerLoad(b, i, in)
	case tpal.IStore:
		return c.lowerStore(b, i, in)
	case tpal.IPrmPush:
		return c.lowerPrmPush(b, i, in)
	case tpal.IPrmPop:
		return c.lowerPrmPop(b, i, in)
	case tpal.IPrmEmpty:
		return c.lowerPrmEmpty(b, i, in)
	case tpal.IPrmSplit:
		return c.lowerPrmSplit(b, i, in)
	}
	return faultOp("unknown instruction kind %d", in.Kind)
}

func (c *compiler) lowerMove(in tpal.Instr) machine.Op {
	dst := c.slot(in.Dst)
	if in.Val.Kind == tpal.OperReg {
		src := c.slot(in.Val.Reg)
		return func(e *machine.Engine, t *machine.Task) error {
			t.SetReg(dst, t.Reg(src))
			t.Next()
			return nil
		}
	}
	v := machine.Resolve(nil, in.Val)
	return func(e *machine.Engine, t *machine.Task) error {
		t.SetReg(dst, v)
		t.Next()
		return nil
	}
}

// intOp is an op-specialized integer fast path; ok=false falls back to
// machine.EvalBinOp for the exact fault message (division by zero) or
// unknown-operator handling.
type intOp func(x, y int64) (machine.Value, bool)

func intOpFor(op tpal.Op) intOp {
	tr := func(cond bool) machine.Value {
		if cond {
			return machine.IntV(0)
		}
		return machine.IntV(1)
	}
	switch op {
	case tpal.OpAdd:
		return func(x, y int64) (machine.Value, bool) { return machine.IntV(x + y), true }
	case tpal.OpSub:
		return func(x, y int64) (machine.Value, bool) { return machine.IntV(x - y), true }
	case tpal.OpMul:
		return func(x, y int64) (machine.Value, bool) { return machine.IntV(x * y), true }
	case tpal.OpDiv:
		return func(x, y int64) (machine.Value, bool) {
			if y == 0 {
				return machine.Value{}, false
			}
			return machine.IntV(x / y), true
		}
	case tpal.OpMod:
		return func(x, y int64) (machine.Value, bool) {
			if y == 0 {
				return machine.Value{}, false
			}
			return machine.IntV(x % y), true
		}
	case tpal.OpLt:
		return func(x, y int64) (machine.Value, bool) { return tr(x < y), true }
	case tpal.OpLe:
		return func(x, y int64) (machine.Value, bool) { return tr(x <= y), true }
	case tpal.OpGt:
		return func(x, y int64) (machine.Value, bool) { return tr(x > y), true }
	case tpal.OpGe:
		return func(x, y int64) (machine.Value, bool) { return tr(x >= y), true }
	case tpal.OpEq:
		return func(x, y int64) (machine.Value, bool) { return tr(x == y), true }
	case tpal.OpNe:
		return func(x, y int64) (machine.Value, bool) { return tr(x != y), true }
	case tpal.OpAnd:
		return func(x, y int64) (machine.Value, bool) { return machine.IntV(x & y), true }
	case tpal.OpOr:
		return func(x, y int64) (machine.Value, bool) { return machine.IntV(x | y), true }
	case tpal.OpXor:
		return func(x, y int64) (machine.Value, bool) { return machine.IntV(x ^ y), true }
	case tpal.OpShl:
		return func(x, y int64) (machine.Value, bool) { return machine.IntV(x << uint64(y)), true }
	case tpal.OpShr:
		return func(x, y int64) (machine.Value, bool) { return machine.IntV(x >> uint64(y)), true }
	}
	return func(x, y int64) (machine.Value, bool) { return machine.Value{}, false }
}

// binopSlow is the out-of-line tail of a binop closure: everything the
// integer fast path does not cover, with the interpreter's fault text.
func binopSlow(e *machine.Engine, t *machine.Task, op tpal.Op, a, b machine.Value, dst int) error {
	v, err := machine.EvalBinOp(op, a, b)
	if err != nil {
		return e.Failf(t, "%v", err)
	}
	t.SetReg(dst, v)
	t.Next()
	return nil
}

func (c *compiler) lowerBinOp(in tpal.Instr) machine.Op {
	dst, src := c.slot(in.Dst), c.slot(in.Src)
	op := in.Op
	f := intOpFor(op)
	if in.Val.Kind == tpal.OperReg {
		bs := c.slot(in.Val.Reg)
		return func(e *machine.Engine, t *machine.Task) error {
			av, bv := t.Reg(src), t.Reg(bs)
			if av.Kind <= machine.VInt && bv.Kind <= machine.VInt {
				if v, ok := f(av.Int, bv.Int); ok {
					t.SetReg(dst, v)
					t.Next()
					return nil
				}
			}
			return binopSlow(e, t, op, av, bv, dst)
		}
	}
	bv := machine.Resolve(nil, in.Val)
	return func(e *machine.Engine, t *machine.Task) error {
		av := t.Reg(src)
		if av.Kind <= machine.VInt && bv.Kind <= machine.VInt {
			if v, ok := f(av.Int, bv.Int); ok {
				t.SetReg(dst, v)
				t.Next()
				return nil
			}
		}
		return binopSlow(e, t, op, av, bv, dst)
	}
}

func (c *compiler) lowerIfJump(b *tpal.Block, i int, in tpal.Instr) machine.Op {
	cond := c.slot(in.Src)
	if in.Val.Kind == tpal.OperLabel {
		lbl := in.Val.Label
		tb := c.code.Block(lbl)
		if tb == nil {
			// Faults only when taken, exactly like the interpreter.
			return func(e *machine.Engine, t *machine.Task) error {
				if truthy(t.Reg(cond)) {
					return e.Failf(t, "jump to undefined label %q", lbl)
				}
				t.Next()
				return nil
			}
		}
		c.p.hoisted++ // target kind + existence discharged statically
		if c.safeSite(b.Label, i) {
			switch c.fates[siteKey{b.Label, i}] {
			case analysis.BranchAlwaysTaken:
				// The interval analysis proved the condition register
				// holds 0 on every execution reaching this site:
				// compile the branch one-sided.
				c.p.hoisted++
				return func(e *machine.Engine, t *machine.Task) error {
					t.Goto(tb)
					return nil
				}
			case analysis.BranchNeverTaken:
				c.p.hoisted++
				return func(e *machine.Engine, t *machine.Task) error {
					t.Next()
					return nil
				}
			}
		}
		return func(e *machine.Engine, t *machine.Task) error {
			if truthy(t.Reg(cond)) {
				t.Goto(tb)
				return nil
			}
			t.Next()
			return nil
		}
	}
	if in.Val.Kind == tpal.OperReg {
		tgt := c.slot(in.Val.Reg)
		return func(e *machine.Engine, t *machine.Task) error {
			if !truthy(t.Reg(cond)) {
				t.Next()
				return nil
			}
			v := t.Reg(tgt)
			if v.Kind != machine.VLabel {
				return e.Failf(t, "if-jump target %s is not a label", v)
			}
			nb := c.code.Block(v.Label)
			if nb == nil {
				return e.Failf(t, "jump to undefined label %q", v.Label)
			}
			t.Goto(nb)
			return nil
		}
	}
	// Integer operand: faults only when taken.
	v := machine.Resolve(nil, in.Val)
	return func(e *machine.Engine, t *machine.Task) error {
		if truthy(t.Reg(cond)) {
			return e.Failf(t, "if-jump target %s is not a label", v)
		}
		t.Next()
		return nil
	}
}

func (c *compiler) lowerJrAlloc(in tpal.Instr) machine.Op {
	dst, lbl := c.slot(in.Dst), in.Lbl
	src := c.prog.Block(lbl)
	if src == nil {
		return faultOp("jralloc of undefined continuation %q", lbl)
	}
	if src.Ann.Kind != tpal.AnnJtppt {
		return faultOp("jralloc continuation %q lacks a jtppt annotation", lbl)
	}
	c.p.hoisted += 2 // continuation existence + jtppt discharged statically
	cont := c.code.Block(lbl)
	return func(e *machine.Engine, t *machine.Task) error {
		t.SetReg(dst, e.JrAlloc(cont))
		t.Next()
		return nil
	}
}

func (c *compiler) lowerFork(b *tpal.Block, i int, in tpal.Instr) machine.Op {
	src, srcName := c.slot(in.Src), in.Src
	checkJoin := !c.safeSite(b.Label, i)
	if !checkJoin {
		c.p.hoisted++
	}
	var static *machine.Block
	staticUndef := tpal.Label("")
	dyn := -1
	var valConst machine.Value
	switch in.Val.Kind {
	case tpal.OperLabel:
		static = c.code.Block(in.Val.Label)
		if static == nil {
			staticUndef = in.Val.Label
		} else {
			c.p.hoisted++ // target kind + existence discharged statically
		}
	case tpal.OperReg:
		dyn = c.slot(in.Val.Reg)
	default:
		valConst = machine.Resolve(nil, in.Val)
	}
	return func(e *machine.Engine, t *machine.Task) error {
		jv := t.Reg(src)
		if checkJoin && jv.Kind != machine.VJoin {
			return e.Failf(t, "fork join-record argument %s holds %s, not a join record", srcName, jv)
		}
		tb := static
		if tb == nil {
			if staticUndef != "" {
				return e.Failf(t, "fork to undefined label %q", staticUndef)
			}
			target := valConst
			if dyn >= 0 {
				target = t.Reg(dyn)
			}
			if target.Kind != machine.VLabel {
				return e.Failf(t, "fork target %s is not a label", target)
			}
			tb = c.code.Block(target.Label)
			if tb == nil {
				return e.Failf(t, "fork to undefined label %q", target.Label)
			}
		}
		return e.Fork(t, jv.Join, tb)
	}
}

// ptrIn compiles the "register holds a stack pointer" precondition for
// the stack instructions, eliding it at verifier-proved sites.
func (c *compiler) lowerSAlloc(b *tpal.Block, i int, in tpal.Instr) machine.Op {
	src, srcName := c.slot(in.Src), in.Src
	n := int(in.Off)
	check := !c.safeSite(b.Label, i)
	if !check {
		c.p.hoisted++
	}
	return func(e *machine.Engine, t *machine.Task) error {
		v := t.Reg(src)
		if check && v.Kind != machine.VPtr {
			return e.Failf(t, "register %s holds %s, not a stack pointer", srcName, v)
		}
		p := v.Ptr
		np, err := p.Stack.Alloc(p, n)
		if err != nil {
			return e.Failf(t, "%v", err)
		}
		if err := e.RaceWriteRange(t, p.Stack, p.Abs+1, np.Abs); err != nil {
			return err
		}
		t.SetReg(src, machine.PtrV(np))
		t.Next()
		return nil
	}
}

func (c *compiler) lowerSFree(b *tpal.Block, i int, in tpal.Instr) machine.Op {
	src, srcName := c.slot(in.Src), in.Src
	n := int(in.Off)
	check := !c.safeSite(b.Label, i)
	if !check {
		c.p.hoisted++
	}
	return func(e *machine.Engine, t *machine.Task) error {
		v := t.Reg(src)
		if check && v.Kind != machine.VPtr {
			return e.Failf(t, "register %s holds %s, not a stack pointer", srcName, v)
		}
		p := v.Ptr
		np, err := p.Stack.Free(p, n)
		if err != nil {
			return e.Failf(t, "%v", err)
		}
		if err := e.RaceWriteRange(t, p.Stack, np.Abs+1, p.Abs); err != nil {
			return err
		}
		t.SetReg(src, machine.PtrV(np))
		t.Next()
		return nil
	}
}

func (c *compiler) lowerLoad(b *tpal.Block, i int, in tpal.Instr) machine.Op {
	dst, src, srcName := c.slot(in.Dst), c.slot(in.Src), in.Src
	off := in.Off
	check := !c.safeSite(b.Label, i)
	if !check {
		c.p.hoisted++
	}
	return func(e *machine.Engine, t *machine.Task) error {
		v := t.Reg(src)
		if check && v.Kind != machine.VPtr {
			return e.Failf(t, "register %s holds %s, not a stack pointer", srcName, v)
		}
		p := v.Ptr
		idx, ok := p.Stack.Cell(p, off)
		if !ok {
			_, err := p.Stack.Load(p, off)
			return e.Failf(t, "%v", err)
		}
		if err := e.RaceRead(t, p.Stack, idx); err != nil {
			return err
		}
		t.SetReg(dst, p.Stack.CellValue(idx))
		t.Next()
		return nil
	}
}

func (c *compiler) lowerStore(b *tpal.Block, i int, in tpal.Instr) machine.Op {
	src, srcName := c.slot(in.Src), in.Src
	off := in.Off
	check := !c.safeSite(b.Label, i)
	if !check {
		c.p.hoisted++
	}
	valReg := -1
	var valConst machine.Value
	if in.Val.Kind == tpal.OperReg {
		valReg = c.slot(in.Val.Reg)
	} else {
		valConst = machine.Resolve(nil, in.Val)
	}
	return func(e *machine.Engine, t *machine.Task) error {
		v := t.Reg(src)
		if check && v.Kind != machine.VPtr {
			return e.Failf(t, "register %s holds %s, not a stack pointer", srcName, v)
		}
		p := v.Ptr
		idx, ok := p.Stack.Cell(p, off)
		if !ok {
			err := p.Stack.Store(p, off, machine.Value{})
			return e.Failf(t, "%v", err)
		}
		val := valConst
		if valReg >= 0 {
			val = t.Reg(valReg)
		}
		p.Stack.SetCellValue(idx, val)
		if err := e.RaceWrite(t, p.Stack, idx); err != nil {
			return err
		}
		t.Next()
		return nil
	}
}

func (c *compiler) lowerPrmPush(b *tpal.Block, i int, in tpal.Instr) machine.Op {
	src, srcName := c.slot(in.Src), in.Src
	off := in.Off
	check := !c.safeSite(b.Label, i)
	if !check {
		c.p.hoisted++
	}
	mark := machine.MarkV()
	return func(e *machine.Engine, t *machine.Task) error {
		v := t.Reg(src)
		if check && v.Kind != machine.VPtr {
			return e.Failf(t, "register %s holds %s, not a stack pointer", srcName, v)
		}
		p := v.Ptr
		idx, ok := p.Stack.Cell(p, off)
		if !ok {
			err := p.Stack.PushMark(p, off)
			return e.Failf(t, "%v", err)
		}
		p.Stack.SetCellValue(idx, mark)
		if err := e.RaceWrite(t, p.Stack, idx); err != nil {
			return err
		}
		t.Next()
		return nil
	}
}

func (c *compiler) lowerPrmPop(b *tpal.Block, i int, in tpal.Instr) machine.Op {
	src, srcName := c.slot(in.Src), in.Src
	off := in.Off
	check := !c.safeSite(b.Label, i)
	if !check {
		c.p.hoisted++
	}
	return func(e *machine.Engine, t *machine.Task) error {
		v := t.Reg(src)
		if check && v.Kind != machine.VPtr {
			return e.Failf(t, "register %s holds %s, not a stack pointer", srcName, v)
		}
		p := v.Ptr
		idx, ok := p.Stack.Cell(p, off)
		if !ok || p.Stack.CellValue(idx).Kind != machine.VMark {
			err := p.Stack.PopMark(p, off)
			return e.Failf(t, "%v", err)
		}
		p.Stack.SetCellValue(idx, machine.IntV(0))
		if err := e.RaceWrite(t, p.Stack, idx); err != nil {
			return err
		}
		t.Next()
		return nil
	}
}

func (c *compiler) lowerPrmEmpty(b *tpal.Block, i int, in tpal.Instr) machine.Op {
	dst, src, srcName := c.slot(in.Dst), c.slot(in.Src2), in.Src2
	check := !c.safeSite(b.Label, i)
	if !check {
		c.p.hoisted++
	}
	return func(e *machine.Engine, t *machine.Task) error {
		v := t.Reg(src)
		if check && v.Kind != machine.VPtr {
			return e.Failf(t, "register %s holds %s, not a stack pointer", srcName, v)
		}
		p := v.Ptr
		if err := e.RaceReadRange(t, p.Stack, 0, p.Abs); err != nil {
			return err
		}
		if p.Stack.MarksEmpty(p) {
			t.SetReg(dst, machine.IntV(0))
		} else {
			t.SetReg(dst, machine.IntV(1))
		}
		t.Next()
		return nil
	}
}

func (c *compiler) lowerPrmSplit(b *tpal.Block, i int, in tpal.Instr) machine.Op {
	src, srcName := c.slot(in.Src), in.Src
	dst := c.slot(in.Src2)
	check := !c.safeSite(b.Label, i)
	if !check {
		c.p.hoisted++
	}
	return func(e *machine.Engine, t *machine.Task) error {
		v := t.Reg(src)
		if check && v.Kind != machine.VPtr {
			return e.Failf(t, "register %s holds %s, not a stack pointer", srcName, v)
		}
		p := v.Ptr
		off, err := p.Stack.SplitOldestMark(p)
		if err != nil {
			return e.Failf(t, "%v", err)
		}
		if err := e.RaceReadRange(t, p.Stack, 0, p.Abs); err != nil {
			return err
		}
		if err := e.RaceWrite(t, p.Stack, p.Abs-int(off)); err != nil {
			return err
		}
		t.SetReg(dst, machine.IntV(off))
		t.Next()
		return nil
	}
}

func (c *compiler) lowerTerm(b *tpal.Block) machine.Op {
	term := b.Term
	switch term.Kind {
	case tpal.TJump:
		if term.Val.Kind == tpal.OperLabel {
			lbl := term.Val.Label
			tb := c.code.Block(lbl)
			if tb == nil {
				return faultOp("jump to undefined label %q", lbl)
			}
			c.p.hoisted++
			return func(e *machine.Engine, t *machine.Task) error {
				t.Goto(tb)
				return nil
			}
		}
		if term.Val.Kind == tpal.OperReg {
			tgt := c.slot(term.Val.Reg)
			return func(e *machine.Engine, t *machine.Task) error {
				v := t.Reg(tgt)
				if v.Kind != machine.VLabel {
					return e.Failf(t, "jump target %s is not a label", v)
				}
				nb := c.code.Block(v.Label)
				if nb == nil {
					return e.Failf(t, "jump to undefined label %q", v.Label)
				}
				t.Goto(nb)
				return nil
			}
		}
		v := machine.Resolve(nil, term.Val)
		return faultOp("jump target %s is not a label", v)

	case tpal.THalt:
		return (*machine.Engine).Halt

	case tpal.TJoin:
		checkKind := !c.safeSite(b.Label, len(b.Instrs))
		if !checkKind {
			c.p.hoisted++
		}
		if term.Val.Kind == tpal.OperReg {
			src := c.slot(term.Val.Reg)
			return func(e *machine.Engine, t *machine.Task) error {
				jv := t.Reg(src)
				if checkKind && jv.Kind != machine.VJoin {
					return e.Failf(t, "join argument %s is not a join record", jv)
				}
				return e.Join(t, jv.Join)
			}
		}
		v := machine.Resolve(nil, term.Val)
		return faultOp("join argument %s is not a join record", v)
	}
	return faultOp("unknown terminator kind %d", term.Kind)
}
