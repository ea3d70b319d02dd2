package trace

import (
	"encoding/json"
	"io"
)

// chromeEvent is one entry of the Chrome trace_event JSON array
// (chrome://tracing, Perfetto, speedscope all consume it). Timestamps
// are microseconds; ph "B"/"E" are nestable duration begin/end on one
// thread track, "i" is an instant.
type chromeEvent struct {
	Name  string           `json:"name"`
	Phase string           `json:"ph"`
	TS    float64          `json:"ts"`
	PID   int              `json:"pid"`
	TID   int              `json:"tid"`
	Scope string           `json:"s,omitempty"`
	Args  map[string]int64 `json:"args,omitempty"`
}

// WriteChrome exports a drained trace in Chrome trace_event JSON
// format: workers become threads, task executions become nested
// duration events, everything else becomes thread-scoped instants.
func WriteChrome(w io.Writer, tr *Trace) error {
	events := make([]chromeEvent, 0, len(tr.Events))
	for _, e := range tr.Events {
		ce := chromeEvent{TS: float64(e.TS) / 1e3, PID: 1, TID: int(e.Worker)}
		switch e.Kind {
		case EvTaskStart:
			ce.Name, ce.Phase = "task", "B"
			ce.Args = map[string]int64{"depth": e.A}
		case EvTaskEnd:
			ce.Name, ce.Phase = "task", "E"
		default:
			ce.Name, ce.Phase, ce.Scope = e.Kind.String(), "i", "t"
			ce.Args = map[string]int64{"a": e.A, "b": e.B}
		}
		events = append(events, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{events})
}
