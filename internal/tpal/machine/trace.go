package machine

import (
	"fmt"
	"io"

	"tpal/internal/tpal"
	"tpal/internal/trace"
)

// TraceEvent describes one machine transition, in the style of the
// paper's Appendix D execution traces: which task, its cycle counter ⋄,
// the program point, and the instruction about to execute (or the
// special promotion-redirect event).
type TraceEvent struct {
	Task    int
	Cycles  int64
	Label   tpal.Label
	Offset  int
	Instr   string // rendered instruction or terminator
	Kind    TraceKind
	Handler tpal.Label // for TracePromotion: the handler entered
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
)

func (e TraceEvent) String() string {
	switch e.Kind {
	case TracePromotion:
		return fmt.Sprintf("task %d  ⋄=%-5d %s[%d]  --heartbeat--> %s", e.Task, e.Cycles, e.Label, e.Offset, e.Handler)
	case TraceTaskStart:
		return fmt.Sprintf("task %d  spawned at %s", e.Task, e.Label)
	case TraceTaskEnd:
		return fmt.Sprintf("task %d  terminated", e.Task)
	default:
		return fmt.Sprintf("task %d  ⋄=%-5d %s[%d]  %s", e.Task, e.Cycles, e.Label, e.Offset, e.Instr)
	}
}

// WriteTrace returns a trace hook that renders events to w, one per
// line, suitable for Config.Trace.
func WriteTrace(w io.Writer) func(TraceEvent) {
	return func(e TraceEvent) {
		fmt.Fprintln(w, e.String())
	}
}

// traceStep emits the instruction-level event for the transition t is
// about to take. Instruction text is rendered here, on traced runs only,
// never at lowering time.
func (e *Engine) traceStep(t *Task) {
	ev := TraceEvent{Task: t.id, Cycles: t.cycles, Label: t.block.label, Offset: t.off}
	if b := t.block.src; t.off < len(b.Instrs) {
		ev.Kind = TraceInstr
		ev.Instr = b.Instrs[t.off].String()
	} else {
		ev.Kind = TraceTerm
		ev.Instr = b.Term.String()
	}
	e.cfg.Trace(ev)
}

func (e *Engine) tracePromotion(t *Task) {
	// The runtime tracer and the per-instruction Trace hook are
	// independent: either may be set without the other.
	e.cfg.Tracer.Record(0, trace.EvPromotion, int64(t.id), t.cycles)
	if e.cfg.Trace == nil {
		return
	}
	e.cfg.Trace(TraceEvent{
		Task: t.id, Cycles: t.cycles, Label: t.block.label, Offset: t.off,
		Kind: TracePromotion, Handler: t.block.src.Ann.Handler,
	})
}

func (e *Engine) traceTask(t *Task, kind TraceKind) {
	if kind == TraceTaskStart {
		e.cfg.Tracer.Record(0, trace.EvTaskStart, int64(t.id), 0)
	} else if kind == TraceTaskEnd {
		e.cfg.Tracer.Record(0, trace.EvTaskEnd, int64(t.id), 0)
	}
	if e.cfg.Trace == nil {
		return
	}
	e.cfg.Trace(TraceEvent{Task: t.id, Label: t.block.label, Kind: kind})
}
