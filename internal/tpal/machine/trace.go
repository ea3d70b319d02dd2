package machine

import (
	"fmt"
	"io"

	"tpal/internal/tpal"
	"tpal/internal/trace"
)

// TraceEvent is one event of a machine run, in the style of the paper's
// Appendix D execution traces. Config.Trace receives every event the
// machine emits; the kind says which fields it fills:
//
//	TraceInstr, TraceTerm  Task, Cycles (⋄), Label, Offset; Instr renders it
//	TracePromotion         Task, Cycles, Label, Offset, Handler (entered)
//	TraceTaskStart         Task, Label (where it starts)
//	TraceTaskEnd           Task, Label (where it ends)
//	TraceGap               Task, Cycles = the promotion gap closed, in steps
//	TraceFuel              Cycles = steps executed, Offset = fuel left (-1 with no budget)
type TraceEvent struct {
	Task    int
	Cycles  int64
	Label   tpal.Label
	Offset  int
	Kind    TraceKind
	Handler tpal.Label
	src     *tpal.Block // the executing block, rendered on demand by Instr
}

// TraceKind classifies trace events.
type TraceKind uint8

// Trace event kinds.
const (
	TraceInstr TraceKind = iota
	TraceTerm
	TracePromotion
	TraceTaskStart
	TraceTaskEnd
	// TraceGap closes one promotion-latency segment of a task: a prppt
	// arrival, a fork, a join or halt ends the steps it has run since
	// its last such event. It is emitted where Stats.MaxPromotionGap is
	// folded.
	TraceGap
	// TraceFuel is a budget checkpoint, every 256 steps.
	TraceFuel
)

// Instr renders the instruction or terminator of a TraceInstr or
// TraceTerm event, and is empty for every other kind. The text is made
// here, when a hook asks for it, never on the machine's step path.
func (e TraceEvent) Instr() string {
	switch {
	case e.src == nil:
		return ""
	case e.Kind == TraceInstr:
		return e.src.Instrs[e.Offset].String()
	case e.Kind == TraceTerm:
		return e.src.Term.String()
	}
	return ""
}

func (e TraceEvent) String() string {
	switch e.Kind {
	case TracePromotion:
		return fmt.Sprintf("task %d  ⋄=%-5d %s[%d]  --heartbeat--> %s", e.Task, e.Cycles, e.Label, e.Offset, e.Handler)
	case TraceTaskStart:
		return fmt.Sprintf("task %d  spawned at %s", e.Task, e.Label)
	case TraceTaskEnd:
		return fmt.Sprintf("task %d  terminated", e.Task)
	case TraceGap:
		return fmt.Sprintf("task %d  promotion gap %d", e.Task, e.Cycles)
	case TraceFuel:
		return fmt.Sprintf("fuel check at step %d, %d left", e.Cycles, e.Offset)
	default:
		return fmt.Sprintf("task %d  ⋄=%-5d %s[%d]  %s", e.Task, e.Cycles, e.Label, e.Offset, e.Instr())
	}
}

// WriteTrace returns a trace hook that renders events to w, one per
// line, suitable for Config.Trace. Gap and fuel events are not part of
// the Appendix D view and are skipped.
func WriteTrace(w io.Writer) func(TraceEvent) {
	return func(e TraceEvent) {
		if e.Kind == TraceGap || e.Kind == TraceFuel {
			return
		}
		fmt.Fprintln(w, e.String())
	}
}

// Record returns a Config.Trace hook that records the run's coarse
// events into lane 0 of tr (the machine is single-threaded), with the
// payloads the trace.Kind schema gives the machine: task start and end,
// promotions, gap closures (which feed the histogram the trace tools
// hold to the static TP050 bound) and fuel checkpoints. Instruction
// events are not recorded. Record(nil) is nil, so an untraced run pays
// nothing.
func Record(tr *trace.Tracer) func(TraceEvent) {
	if tr == nil {
		return nil
	}
	return func(e TraceEvent) {
		switch e.Kind {
		case TraceTaskStart:
			tr.Record(0, trace.EvTaskStart, int64(e.Task), 0)
		case TraceTaskEnd:
			tr.Record(0, trace.EvTaskEnd, int64(e.Task), 0)
		case TracePromotion:
			tr.Record(0, trace.EvPromotion, int64(e.Task), e.Cycles)
		case TraceGap:
			tr.Record(0, trace.EvGap, e.Cycles, int64(e.Task))
		case TraceFuel:
			tr.Record(0, trace.EvFuelCheck, e.Cycles, int64(e.Offset))
		}
	}
}

// traceStep emits the instruction-level event for the transition t is
// about to take.
func (e *Engine) traceStep(t *Task) {
	kind := TraceInstr
	if t.off == len(t.block.src.Instrs) {
		kind = TraceTerm
	}
	e.cfg.Trace(TraceEvent{
		Task: t.id, Cycles: t.cycles, Label: t.block.label, Offset: t.off,
		Kind: kind, src: t.block.src,
	})
}

func (e *Engine) tracePromotion(t *Task) {
	if e.cfg.Trace != nil {
		e.cfg.Trace(TraceEvent{
			Task: t.id, Cycles: t.cycles, Label: t.block.label, Offset: t.off,
			Kind: TracePromotion, Handler: t.block.src.Ann.Handler,
		})
	}
}

func (e *Engine) traceTask(t *Task, kind TraceKind) {
	if e.cfg.Trace != nil {
		e.cfg.Trace(TraceEvent{Task: t.id, Label: t.block.label, Kind: kind})
	}
}
