package serve

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"tpal/internal/tpal/machine"
	"tpal/internal/tpal/programs"
)

// TestCompiledBackendService pins the compiled execution path end to
// end: a service on the compiled backend returns results and stats
// identical to the interpreter service, the per-fingerprint compiled
// cache absorbs repeat submissions, and the /metrics counters track
// compiles, cache hits, compiled runs, and hoisted checks.
func TestCompiledBackendService(t *testing.T) {
	interp := newTestService(t, Config{Workers: 2})
	compiled := newTestService(t, Config{Workers: 2, Backend: machine.BackendCompiled})

	submit := func(s *Service, a, b int64) JobView {
		j, err := s.Submit(SubmitRequest{
			Tenant: "bench",
			Source: programs.ProdSource,
			Args:   map[string]int64{"a": a, "b": b},
		})
		if err != nil {
			t.Fatal(err)
		}
		return await(t, j)
	}

	for _, args := range [][2]int64{{21, 2}, {9, 9}} {
		want := submit(interp, args[0], args[1])
		got := submit(compiled, args[0], args[1])
		if want.Status != StatusDone || got.Status != StatusDone {
			t.Fatalf("args %v: status interp=%s compiled=%s (%s / %s)",
				args, want.Status, got.Status, want.Error, got.Error)
		}
		if !reflect.DeepEqual(want.Result, got.Result) {
			t.Fatalf("args %v: result divergence:\n  interp:   %v\n  compiled: %v", args, want.Result, got.Result)
		}
		if !reflect.DeepEqual(want.Stats, got.Stats) {
			t.Fatalf("args %v: stats divergence:\n  interp:   %+v\n  compiled: %+v", args, want.Stats, got.Stats)
		}
	}

	// A third distinct-args submission of the same program must reuse
	// the cached lowering, not recompile.
	submit(compiled, 6, 7)

	m := compiled.Snapshot()
	if m.Compiles != 1 {
		t.Errorf("Compiles = %d, want 1 (one program fingerprint)", m.Compiles)
	}
	if m.CompileCacheHits != 2 {
		t.Errorf("CompileCacheHits = %d, want 2", m.CompileCacheHits)
	}
	if m.CompiledRuns != 3 {
		t.Errorf("CompiledRuns = %d, want 3", m.CompiledRuns)
	}
	if m.ChecksHoisted == 0 {
		t.Error("ChecksHoisted = 0, want > 0: the verifier-backed lowering should discharge checks")
	}

	im := interp.Snapshot()
	if im.Compiles != 0 || im.CompiledRuns != 0 {
		t.Errorf("interp service shows compiled activity: compiles=%d runs=%d", im.Compiles, im.CompiledRuns)
	}
}

// TestCompiledBackendRejection pins that admission rejections behave
// identically under the compiled backend: the gate fires before any
// lowering happens.
func TestCompiledBackendRejection(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, Backend: machine.BackendCompiled})
	j, err := s.Submit(SubmitRequest{Source: racySrc})
	if err != nil {
		t.Fatal(err)
	}
	v := await(t, j)
	if v.Status != StatusRejected {
		t.Fatalf("status = %s, want rejected", v.Status)
	}
	if m := s.Snapshot(); m.Compiles != 0 {
		t.Errorf("Compiles = %d, want 0: rejected programs must not be lowered", m.Compiles)
	}
}

// TestCompiledBackendMinipar runs a minipar submission through the
// compiled service, covering the optimizer-rewrite path: the program
// the pool executes is the optimized form, and the lowering must
// target that form.
func TestCompiledBackendMinipar(t *testing.T) {
	src := "params n\nvar total = 0\nparfor i in 0 .. n reduce(total, +) {\n    total = total + i\n}\nreturn total\n"
	interp := newTestService(t, Config{Workers: 2})
	compiled := newTestService(t, Config{Workers: 2, Backend: machine.BackendCompiled})
	run := func(s *Service) JobView {
		j, err := s.Submit(SubmitRequest{
			Lang:   "minipar",
			Source: src,
			Args:   map[string]int64{"n": 50},
		})
		if err != nil {
			t.Fatal(err)
		}
		return await(t, j)
	}
	want := run(interp)
	got := run(compiled)
	if want.Status != StatusDone || got.Status != StatusDone {
		t.Fatalf("status interp=%s compiled=%s (%s / %s)", want.Status, got.Status, want.Error, got.Error)
	}
	if !reflect.DeepEqual(want.Result, got.Result) {
		t.Fatalf("result divergence:\n  interp:   %v\n  compiled: %v", want.Result, got.Result)
	}
	if !reflect.DeepEqual(want.Stats, got.Stats) {
		t.Fatalf("stats divergence:\n  interp:   %+v\n  compiled: %+v", want.Stats, got.Stats)
	}
}

// TestCompiledBackendAdmissionCacheBounded pins the admission cache's
// bound: verdicts (and the lowered programs stored on them) are keyed by
// the fingerprint of untrusted input, so a tenant streaming distinct
// programs must not grow the cache past Config.ResultCacheCap, an
// evicted program must re-admit with the identical verdict and quote,
// and the /metrics counters must keep their names and meaning.
func TestCompiledBackendAdmissionCacheBounded(t *testing.T) {
	const cacheCap = 4
	s := newTestService(t, Config{Workers: 2, Backend: machine.BackendCompiled, ResultCacheCap: cacheCap})
	submit := func(i int, a int64) JobView {
		src := strings.Replace(programs.ProdSource, "r := 0\n", fmt.Sprintf("r := 0\n  k := %d\n", i), 1)
		j, err := s.Submit(SubmitRequest{Tenant: "stream", Source: src, Args: map[string]int64{"a": a, "b": 2}})
		if err != nil {
			t.Fatal(err)
		}
		v := await(t, j)
		if v.Status != StatusDone {
			t.Fatalf("program %d: status %s (%s)", i, v.Status, v.Error)
		}
		return v
	}

	const distinct = 3 * cacheCap
	first := submit(0, 5)
	for i := 1; i < distinct; i++ {
		submit(i, 5)
	}
	s.mu.Lock()
	size := s.admissions.len()
	s.mu.Unlock()
	if size > cacheCap {
		t.Fatalf("admission cache holds %d entries after %d distinct programs, cap %d", size, distinct, cacheCap)
	}

	// Program 0 was evicted long ago: it re-analyzes and re-lowers, and
	// must come out with the same verdict, quote, and result.
	again := submit(0, 5)
	if again.Cached {
		t.Fatal("result store should have evicted program 0 as well")
	}
	if again.Fingerprint != first.Fingerprint || !reflect.DeepEqual(again.Quote, first.Quote) ||
		!reflect.DeepEqual(again.Diags, first.Diags) || !reflect.DeepEqual(again.Result, first.Result) {
		t.Fatalf("re-admission diverged:\n  first: %+v quote %+v\n  again: %+v quote %+v", first, first.Quote, again, again.Quote)
	}
	// Still resident now: new arguments hit both the verdict and the
	// lowered program stored on it.
	submit(0, 6)

	m := s.Snapshot()
	if m.Analyses != distinct+1 || m.AnalysisHits != 1 {
		t.Errorf("analyses = %d hits = %d, want %d and 1", m.Analyses, m.AnalysisHits, distinct+1)
	}
	if m.Compiles != distinct+1 || m.CompileCacheHits != 1 || m.CompiledRuns != distinct+2 {
		t.Errorf("compiles = %d hits = %d runs = %d, want %d, 1, %d",
			m.Compiles, m.CompileCacheHits, m.CompiledRuns, distinct+1, distinct+2)
	}
	if m.ChecksHoisted == 0 {
		t.Error("ChecksHoisted = 0, want > 0")
	}
	wire, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(wire, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"compiles", "compile_cache_hits", "compiled_runs", "checks_hoisted", "analyses", "analysis_cache_hits"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("/metrics lost key %q", k)
		}
	}
}
