package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestProgModePassesOnCorpus(t *testing.T) {
	for _, name := range []string{"prod", "pow", "fib"} {
		var buf bytes.Buffer
		if code := run([]string{"-prog", name}, &buf); code != 0 {
			t.Fatalf("-prog %s exited %d:\n%s", name, code, buf.String())
		}
		if !strings.Contains(buf.String(), "PASS") {
			t.Fatalf("-prog %s output missing PASS:\n%s", name, buf.String())
		}
	}
}

func TestBenchModeWritesChrome(t *testing.T) {
	chrome := filepath.Join(t.TempDir(), "trace.json")
	var buf bytes.Buffer
	if code := run([]string{"-bench", "plus-reduce-array", "-scale", "0.02", "-chrome", chrome}, &buf); code != 0 {
		t.Fatalf("-bench exited %d:\n%s", code, buf.String())
	}
	data, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome export has no events")
	}
}

func TestBenchRTWritesBaseline(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_rt.json")
	var buf bytes.Buffer
	code := run([]string{"-bench-rt", "-scale", "0.02", "-reps", "1", "-out", out}, &buf)
	// At toy scale the walls are microseconds and the delta is pure
	// noise, so the overhead gate may legitimately trip; only a real
	// failure to produce the baseline is an error here.
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("exit %d and no baseline written:\n%s", code, buf.String())
	}
	var doc benchRTDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("baseline is not valid JSON: %v", err)
	}
	if len(doc.Benchmarks) != len(rtBenchmarks) || doc.Benchmarks[0].Name != "plus-reduce-array" {
		t.Fatalf("unexpected benchmark rows: %+v", doc.Benchmarks)
	}
	for i, r := range doc.Benchmarks {
		if r.Name != rtBenchmarks[i] {
			t.Errorf("benchmark row %d = %s, want %s", i, r.Name, rtBenchmarks[i])
		}
	}
	if len(doc.CorpusGaps) != 3 {
		t.Fatalf("corpus gap rows = %d, want 3", len(doc.CorpusGaps))
	}
	for _, g := range doc.CorpusGaps {
		if !g.WithinBound {
			t.Errorf("%s: observed gap %d exceeds static bound %d", g.Program, g.MaxObserved, g.StaticBound)
		}
	}
	if doc.OverheadGate.Benchmark != "plus-reduce-array" || doc.OverheadGate.Limit != overheadLimit {
		t.Fatalf("overhead gate misconfigured: %+v", doc.OverheadGate)
	}
	if len(doc.MachineBackend) == 0 {
		t.Fatal("baseline has no machine-backend rows")
	}
	for _, r := range doc.MachineBackend {
		if r.Steps == 0 || r.WallInterpNS == 0 || r.WallCompiledNS == 0 {
			t.Errorf("%s: incomplete backend row: %+v", r.Name, r)
		}
		if r.WallInterpRaceNS == 0 || r.WallCompiledRaceNS == 0 {
			t.Errorf("%s: missing sanitizer walls: %+v", r.Name, r)
		}
	}
	// A fresh output path has no baseline to regress against: the gate
	// must be wired to the first kernel row and pass vacuously.
	if g := doc.BackendGate; g.Benchmark != doc.MachineBackend[0].Name || g.NSPerStep <= 0 || g.BaselineNSPerStep != 0 || !g.Pass {
		t.Fatalf("backend gate misconfigured: %+v", g)
	}
}

// TestBackendGate pins the dispatch gate's arithmetic: compiled ns/step
// against the replaced baseline, tolerance the larger of the run's own
// spread and the noise floor, baselines at another scale ignored.
func TestBackendGate(t *testing.T) {
	row := backendRow{Name: "plus-reduce-array", Steps: 1000, WallCompiledNS: 40_000, CompiledSpread: 0.02}
	base := func(ns int64, scale float64) *benchRTDoc {
		d := &benchRTDoc{MachineBackend: []backendRow{{Name: "plus-reduce-array", Steps: 1000, WallCompiledNS: ns}}}
		d.Config.Scale = scale
		return d
	}
	for _, tc := range []struct {
		name     string
		baseline *benchRTDoc
		spread   float64
		pass     bool
	}{
		{"no baseline", nil, 0.02, true},
		{"faster than baseline", base(50_000, 1), 0.02, true},
		{"within the noise floor", base(37_000, 1), 0.02, true},
		{"regressed beyond the floor", base(30_000, 1), 0.02, false},
		{"regressed but inside this run's spread", base(30_000, 1), 0.40, true},
		{"baseline at another scale", base(10_000, 0.5), 0.02, true},
	} {
		row.CompiledSpread = tc.spread
		if g := gateBackend(row, 1, tc.baseline); g.Pass != tc.pass || g.NSPerStep != 40 {
			t.Errorf("%s: gate %+v, want pass=%v", tc.name, g, tc.pass)
		}
	}
}

func TestNoModeIsUsageError(t *testing.T) {
	var buf bytes.Buffer
	if code := run(nil, &buf); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}
