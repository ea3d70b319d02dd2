package harness

import (
	"strings"
	"testing"
	"time"
)

// tinySession runs quickly enough for unit tests.
func tinySession(t *testing.T, buf *strings.Builder) *Session {
	t.Helper()
	s, err := NewSession(Options{
		Out:        buf,
		Scale:      0.05,
		Reps:       1,
		Cores:      15,
		Benchmarks: []string{"plus-reduce-array", "mergesort-uniform"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAllExperimentsProduceOutput(t *testing.T) {
	var buf strings.Builder
	s := tinySession(t, &buf)
	for _, e := range Experiments() {
		before := buf.Len()
		e.Run(s)
		if buf.Len() == before {
			t.Errorf("experiment %s produced no output", e.ID)
		}
	}
	out := buf.String()
	for _, want := range []string{"plus-reduce-array", "mergesort-uniform", "geomean"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("fig6"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

func TestExperimentIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	// Every figure of the evaluation is covered.
	for _, id := range []string{"fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig13", "fig14", "fig15a", "fig15b", "headline"} {
		if !seen[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
}

func TestSessionMemoization(t *testing.T) {
	var buf strings.Builder
	s := tinySession(t, &buf)
	b := s.Benchmarks()[0]
	first := s.Cilk(b)
	second := s.Cilk(b)
	if first.Elapsed != second.Elapsed {
		t.Fatal("cilk measurement not memoized")
	}
	h1 := s.Heartbeat(b, MechLinux, 100*time.Microsecond, true)
	h2 := s.Heartbeat(b, MechLinux, 100*time.Microsecond, true)
	if h1.Elapsed != h2.Elapsed {
		t.Fatal("heartbeat measurement not memoized")
	}
	// Different keys measure separately.
	h3 := s.Heartbeat(b, MechNautilus, 100*time.Microsecond, true)
	_ = h3
	if len(s.hbR) < 2 {
		t.Fatal("distinct configurations collapsed into one key")
	}
}

func TestSerialPositive(t *testing.T) {
	var buf strings.Builder
	s := tinySession(t, &buf)
	for _, b := range s.Benchmarks() {
		if d := s.Serial(b); d <= 0 {
			t.Errorf("%s: serial time %v", b.Name(), d)
		}
	}
}

func TestSpeedupAt(t *testing.T) {
	serial := 1500 * time.Millisecond
	// work 1s, span 0.1s at 10 cores: T_P = 0.2s -> speedup 7.5.
	got := speedupAt(serial, 1e9, 1e8, 10)
	if got < 7.4 || got > 7.6 {
		t.Fatalf("speedupAt = %f", got)
	}
	if speedupAt(serial, 0, 0, 4) != 0 {
		t.Fatal("degenerate projection should be 0")
	}
}

func TestUtilizationBounds(t *testing.T) {
	if u := utilization(1e9, 1e7, 15); u <= 0 || u > 1 {
		t.Fatalf("utilization = %f", u)
	}
	if utilization(0, 0, 15) != 0 {
		t.Fatal("degenerate utilization")
	}
	// More span at fixed work lowers utilization.
	if !(utilization(1e9, 1e6, 15) > utilization(1e9, 1e8, 15)) {
		t.Fatal("utilization not decreasing in span")
	}
}

func TestTableRendering(t *testing.T) {
	tb := newTable("name", "value")
	tb.addRow("a", "1.00")
	tb.addRow("long-name", "42.00")
	out := tb.render()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "name") || !strings.Contains(lines[3], "42.00") {
		t.Fatalf("table content wrong:\n%s", out)
	}
}
