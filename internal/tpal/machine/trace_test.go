package machine

import (
	"strings"
	"testing"

	"tpal/internal/tpal/asm"
)

func TestTraceCapturesTransitions(t *testing.T) {
	p, err := asm.Parse(signalLoopSrc)
	if err != nil {
		t.Fatal(err)
	}
	var events []TraceEvent
	cfg := Config{
		Heartbeat: 20,
		Trace:     func(e TraceEvent) { events = append(events, e) },
	}
	res, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Regs.Get("c"); got.Int != 6000 {
		t.Fatalf("c = %v", got)
	}
	var kinds [TraceFuel + 1]int
	for _, e := range events {
		kinds[e.Kind]++
	}
	if kinds[TraceInstr] == 0 || kinds[TraceTerm] == 0 {
		t.Fatalf("missing instruction/terminator events: %v", kinds)
	}
	if kinds[TracePromotion] == 0 {
		t.Fatal("no promotion events despite heartbeat")
	}
	if kinds[TraceTaskStart] == 0 || kinds[TraceTaskEnd] == 0 {
		t.Fatal("no task lifecycle events")
	}
	// Event counts must match machine statistics.
	if int64(kinds[TracePromotion]) != res.Stats.HandlerRuns {
		t.Fatalf("promotion events %d vs HandlerRuns %d", kinds[TracePromotion], res.Stats.HandlerRuns)
	}
	if int64(kinds[TraceInstr]+kinds[TraceTerm]+kinds[TracePromotion]) != res.Stats.Steps {
		t.Fatalf("event total %d vs Steps %d",
			kinds[TraceInstr]+kinds[TraceTerm]+kinds[TracePromotion], res.Stats.Steps)
	}
}

func TestWriteTraceRendering(t *testing.T) {
	loop := asm.MustParse(signalLoopSrc).Block("loop")
	var sb strings.Builder
	hook := WriteTrace(&sb)
	hook(TraceEvent{Task: 1, Cycles: 7, Label: "loop", Offset: 0, Kind: TraceInstr, src: loop})
	hook(TraceEvent{Task: 1, Cycles: 8, Label: "loop", Offset: 3, Kind: TraceTerm, src: loop})
	hook(TraceEvent{Task: 1, Cycles: 9, Label: "loop", Offset: 0, Kind: TracePromotion, Handler: "try"})
	hook(TraceEvent{Task: 2, Label: "loop-par", Kind: TraceTaskStart})
	hook(TraceEvent{Task: 2, Kind: TraceTaskEnd})
	hook(TraceEvent{Task: 2, Cycles: 12, Kind: TraceGap})
	hook(TraceEvent{Cycles: 256, Offset: -1, Kind: TraceFuel})
	out := sb.String()
	for _, want := range []string{
		"loop[0]  if-jump a, exit", "loop[3]  jump loop",
		"--heartbeat--> try", "spawned at loop-par", "terminated",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "\n"); n != 5 {
		t.Errorf("rendered %d lines, want 5 (gap and fuel events are not part of the view):\n%s", n, out)
	}
}
