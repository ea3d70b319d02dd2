package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	// None of these may panic.
	tr.Record(0, EvTaskStart, 1, 2)
	tr.RecordExternal(EvBeatRaise, 0, 0)
	_ = tr.Now()
	if n := testing.AllocsPerRun(1000, func() { tr.Record(0, EvTaskStart, 1, 2) }); n != 0 {
		t.Fatalf("Record on a nil tracer allocates %v per call", n)
	}
	d := tr.Drain()
	if len(d.Events) != 0 || d.Dropped != 0 {
		t.Fatalf("nil drain: %d events, %d dropped", len(d.Events), d.Dropped)
	}
}

// TestRecordDoesNotAllocate is the other structural half of the
// overhead contract (DESIGN.md §11): an enabled tracer's Record writes
// into its preallocated ring, wrapping included, without touching the
// heap.
func TestRecordDoesNotAllocate(t *testing.T) {
	tr := New(1, 64)
	if n := testing.AllocsPerRun(1000, func() { tr.Record(0, EvPromotion, 1, 2) }); n != 0 {
		t.Fatalf("Record on a live tracer allocates %v per call", n)
	}
}

func TestRecordAndDrainOrdering(t *testing.T) {
	tr := New(2, 16)
	tr.Record(0, EvTaskStart, 1, 0)
	tr.Record(1, EvSteal, 0, 0)
	tr.Record(0, EvTaskEnd, 1, 0)
	tr.RecordExternal(EvBeatRaise, 1, 42)

	d := tr.Drain()
	if len(d.Events) != 4 {
		t.Fatalf("drained %d events, want 4", len(d.Events))
	}
	for i := 1; i < len(d.Events); i++ {
		if d.Events[i].TS < d.Events[i-1].TS {
			t.Fatalf("events out of timestamp order at %d", i)
		}
	}
	if d.Count(EvSteal) != 1 || d.Count(EvBeatRaise) != 1 {
		t.Fatalf("counts wrong: %v", d.CountMap())
	}
	var ext *Event
	for i := range d.Events {
		if d.Events[i].Kind == EvBeatRaise {
			ext = &d.Events[i]
		}
	}
	if ext == nil || ext.Worker != LaneExternal || ext.B != 42 {
		t.Fatalf("external event wrong: %+v", ext)
	}
}

func TestRingOverwriteKeepsExactAggregates(t *testing.T) {
	const capacity = 8
	tr := New(1, capacity)
	for i := 0; i < 100; i++ {
		tr.Record(0, EvGap, int64(i), 0)
	}
	d := tr.Drain()
	if len(d.Events) != capacity {
		t.Fatalf("retained %d events, want %d", len(d.Events), capacity)
	}
	if d.Dropped != 100-capacity {
		t.Fatalf("dropped %d, want %d", d.Dropped, 100-capacity)
	}
	// Aggregates live outside the ring: still exact.
	if d.Count(EvGap) != 100 {
		t.Fatalf("gap count %d, want 100", d.Count(EvGap))
	}
	if d.MaxGap != 99 {
		t.Fatalf("max gap %d, want 99", d.MaxGap)
	}
	var histTotal int64
	for _, n := range d.GapHist {
		histTotal += n
	}
	if histTotal != 100 {
		t.Fatalf("gap histogram totals %d, want 100", histTotal)
	}
	// The retained window is the most recent events.
	if first := d.Events[0]; first.A != 100-capacity {
		t.Fatalf("oldest retained gap = %d, want %d", first.A, 100-capacity)
	}
}

func TestDrainTwice(t *testing.T) {
	tr := New(1, 8)
	tr.Record(0, EvSteal, 1, 0)
	a, b := tr.Drain(), tr.Drain()
	if len(a.Events) != 1 || len(b.Events) != 1 {
		t.Fatalf("drains disagree: %d vs %d", len(a.Events), len(b.Events))
	}
}

func TestRecordExternalConcurrent(t *testing.T) {
	tr := New(1, 1024)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.RecordExternal(EvBeatRaise, 0, 1)
			}
		}()
	}
	wg.Wait()
	if n := tr.Drain().Count(EvBeatRaise); n != 800 {
		t.Fatalf("external count %d, want 800", n)
	}
}

func TestOutOfRangeLaneGoesExternal(t *testing.T) {
	tr := New(1, 8)
	tr.Record(5, EvSteal, 0, 0) // lane 5 does not exist
	d := tr.Drain()
	if len(d.Events) != 1 || d.Events[0].Worker != LaneExternal {
		t.Fatalf("out-of-range record not redirected: %+v", d.Events)
	}
}

func TestBucketOf(t *testing.T) {
	cases := map[int64]int{0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 1023: 9, 1024: 10}
	for v, want := range cases {
		if got := bucketOf(v); got != want {
			t.Errorf("bucketOf(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestTimelineAndText(t *testing.T) {
	tr := New(2, 64)
	tr.Record(0, EvTaskStart, 1, 0)
	tr.Record(0, EvBeatObserve, 10, 0)
	tr.Record(0, EvPromotion, 0, 0)
	tr.Record(1, EvSteal, 0, 0)
	tr.Record(1, EvTaskStart, 1, 0)
	tr.Record(1, EvTaskEnd, 1, 0)
	tr.Record(0, EvTaskEnd, 1, 0)

	tl := BuildTimeline(tr.Drain())
	if len(tl.Lanes) != 2 {
		t.Fatalf("lanes %d, want 2", len(tl.Lanes))
	}
	if tl.Lanes[0].Tasks != 1 || tl.Lanes[0].Beats != 1 || tl.Lanes[0].Promotions != 1 {
		t.Fatalf("lane 0 summary wrong: %+v", tl.Lanes[0])
	}
	if tl.Lanes[1].Steals != 1 {
		t.Fatalf("lane 1 summary wrong: %+v", tl.Lanes[1])
	}
	if u := tl.Utilization(); u <= 0 || u > 1 {
		t.Fatalf("utilization out of range: %f", u)
	}

	var buf bytes.Buffer
	tl.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"2 worker(s)", "utilization", "w0", "w1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text output missing %q:\n%s", want, out)
		}
	}
}

func TestServiceLatencies(t *testing.T) {
	tr := New(1, 64)
	tr.Record(0, EvBeatObserve, 0, 0)
	tr.Record(0, EvPromotion, 0, 0)
	tr.Record(0, EvPromotion, 0, 0) // no observe in between: not counted
	tr.Record(0, EvBeatObserve, 0, 0)
	tr.Record(0, EvPromotion, 0, 0)
	lat := ServiceLatencies(tr.Drain())
	if len(lat) != 2 {
		t.Fatalf("latencies %d, want 2", len(lat))
	}
	for _, v := range lat {
		if v < 0 {
			t.Fatalf("negative latency %d", v)
		}
	}
}

func TestWriteChromeIsValidJSON(t *testing.T) {
	tr := New(1, 64)
	tr.Record(0, EvTaskStart, 1, 0)
	tr.Record(0, EvSteal, 0, 0)
	tr.Record(0, EvTaskEnd, 1, 0)
	tr.RecordExternal(EvBeatRaise, 0, 5)

	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr.Drain()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
			TID   int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("chrome events %d, want 4", len(doc.TraceEvents))
	}
	phases := map[string]int{}
	for _, e := range doc.TraceEvents {
		phases[e.Phase]++
		if e.Name == "beat-raise" && e.TID != extTID {
			t.Fatalf("external event on tid %d, want %d", e.TID, extTID)
		}
	}
	if phases["B"] != 1 || phases["E"] != 1 || phases["i"] != 2 {
		t.Fatalf("phase mix wrong: %v", phases)
	}
}
