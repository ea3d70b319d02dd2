package main

import (
	"context"
	"encoding/json"
	"net"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"tpal/internal/minipar"
	"tpal/internal/serve"
	"tpal/internal/tpal"
	"tpal/internal/tpal/analysis"
	"tpal/internal/tpal/asm"
	"tpal/internal/tpal/machine"
)

// testEnv runs the serve-* workloads against an in-process handler and
// everything at smoke-test size.
func testEnv(t *testing.T) *environment {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	return &environment{
		Root: root, OutDir: t.TempDir(), NProc: 2, Short: true,
		StartTarget: func(ctx context.Context, env *environment, name string) (*serveTarget, error) {
			svc := serve.New(serve.Config{Workers: env.NProc})
			srv := httptest.NewServer(svc.Handler())
			return &serveTarget{Base: srv.URL, Workers: env.NProc, Stop: func() {
				srv.Close()
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				_ = svc.Drain(ctx) // a forced drain still stops every worker
			}}, nil
		},
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpecMatchesCode holds BENCHMARK.json and the metric tables in
// metrics.go to the same names, units and workloads.
func TestSpecMatchesCode(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	s, err := readSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Paths) != 1 || s.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", s.Paths)
	}
	if len(s.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(s.Workloads), len(workloadNames))
	}
	for i, w := range s.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, code says %q", i, w.Name, workloadNames[i])
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	same := func(kind string, spec []specMetric, code []metricDef) {
		if len(spec) != len(code) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(spec), len(code))
		}
		seen := map[string]bool{}
		for i, m := range spec {
			if m.Name != code[i].Name || m.Unit != code[i].Unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], code has %s [%s]", kind, i, m.Name, m.Unit, code[i].Name, code[i].Unit)
			}
			if !nameRE.MatchString(m.Name) {
				t.Errorf("%s: bad metric name %q", kind, m.Name)
			}
			if seen[m.Name] {
				t.Errorf("%s: metric %s named twice", kind, m.Name)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: metric %s: better = %q", kind, m.Name, m.Better)
			}
		}
	}
	same("end_to_end", s.EndToEnd, endToEnd)
	same("per_layer", s.PerLayer, perLayer)
	hasSetup := false
	for _, m := range s.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	if len(s.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(s.PerLayer))
	}
}

// TestStreamsSeeded: the same seed gives the same stream, another seed
// another one, and serve-admit never sends a program twice.
func TestStreamsSeeded(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	for w := range serveWorkloads {
		a := generate(root, w, 7, 300)
		b := generate(root, w, 7, 300)
		c := generate(root, w, 8, 300)
		if a.SHA != b.SHA {
			t.Errorf("%s: seed 7 hashed to %s, then to %s", w, a.SHA, b.SHA)
		}
		if a.SHA == c.SHA {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w)
		}
	}
	a := generate(root, "serve-admit", 7, 300)
	c := generate(root, "serve-admit", 8, 300)
	sources := map[string]int{}
	for i, r := range a.Reqs {
		if j, dup := sources[r.Submit.Source]; dup {
			t.Fatalf("serve-admit: requests %d and %d are the same program", j, i)
		}
		sources[r.Submit.Source] = i
	}
	shared := 0
	for _, r := range c.Reqs {
		if _, ok := sources[r.Submit.Source]; ok {
			shared++
		}
	}
	if shared > len(c.Reqs)/10 {
		t.Errorf("serve-admit: seeds 7 and 8 share %d of %d programs", shared, len(c.Reqs))
	}
}

// TestAdmitGeneratorClean checks what the generator promises about the
// distinct programs it emits: each passes the full analysis clean or
// hits exactly its intended TP code, and each runs in at most 2k steps.
func TestAdmitGeneratorClean(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	seenClass := map[string]bool{}
	for _, r := range generate(root, "serve-admit", 3, 50).Reqs {
		if seenClass[r.Class] {
			continue // one of each template; the rest differ in constants only
		}
		seenClass[r.Class] = true
		var prog *tpal.Program
		var entry []tpal.Reg
		if r.Submit.Lang == "minipar" {
			mp, err := minipar.Parse(r.Submit.Source)
			if err != nil {
				t.Fatalf("%s: %v", r.Class, err)
			}
			if prog, err = minipar.Compile(mp); err != nil {
				t.Fatalf("%s: %v", r.Class, err)
			}
			for _, p := range mp.Params {
				entry = append(entry, tpal.Reg(p))
			}
		} else {
			if prog, err = asm.Parse(r.Submit.Source); err != nil {
				t.Fatalf("%s: %v", r.Class, err)
			}
			for name := range r.Submit.Args {
				entry = append(entry, tpal.Reg(name))
			}
		}
		rep := analysis.Analyze(prog, analysis.Options{EntryRegs: entry, Races: true})
		if r.Expect.Status == "rejected" {
			hit := false
			for _, d := range rep.Diags {
				hit = hit || string(d.Code) == r.Expect.Code
			}
			if !hit {
				t.Errorf("%s: analysis does not report %s: %v", r.Class, r.Expect.Code, rep.Diags)
			}
			continue
		}
		if analysis.HasErrors(rep.Diags) {
			t.Errorf("%s: analysis rejects a program meant to be admitted: %v", r.Class, rep.Diags)
			continue
		}
		regs := machine.RegFile{}
		for name, v := range r.Submit.Args {
			regs[tpal.Reg(name)] = machine.IntV(v)
		}
		res, err := machine.Run(prog, machine.Config{Heartbeat: 100, Regs: regs})
		if err != nil {
			t.Errorf("%s: %v", r.Class, err)
		} else if res.Stats.Steps > 2000 {
			t.Errorf("%s: %d machine steps, want at most 2000", r.Class, res.Stats.Steps)
		}
	}
	if len(seenClass) != len(admitClasses()) {
		t.Errorf("saw %d of %d serve-admit templates in 50 requests", len(seenClass), len(admitClasses()))
	}
}

// TestSmokeWorkloads runs every workload briefly, traced, and checks
// that every metric BENCHMARK.json names comes out once, with its unit,
// and that the driver's line can be built in both modes.
func TestSmokeWorkloads(t *testing.T) {
	env := testEnv(t)
	root := env.Root
	s, err := readSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			res, err := runWorkload(context.Background(), env, w, 1, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 {
				t.Errorf("%d of %d operations failed: %v", res.Failed, res.Attempted, res.Failures)
			}
			for _, traced := range []bool{false, true} {
				res.Trace = traced
				line, err := res.driverLine()
				if err != nil {
					t.Fatal(err)
				}
				var got struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(line), &got); err != nil {
					t.Fatalf("driver line is not JSON: %v\n%s", err, line)
				}
				want := s.EndToEnd
				if traced {
					want = s.PerLayer
				}
				if len(got.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics on the driver line, BENCHMARK.json names %d", traced, len(got.Metrics), len(want))
				}
				for _, m := range want {
					g, ok := got.Metrics[m.Name]
					if !ok {
						t.Errorf("trace=%v: metric %s missing", traced, m.Name)
					} else if g.Unit != m.Unit {
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
					}
					if !traced && g.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, g.Value)
					}
				}
			}
			if _, isServe := serveWorkloads[w]; isServe {
				r := res.Values["bench.span_sum_ratio"]
				if r < 1-shortSpanSumTolerance || r > 1+shortSpanSumTolerance {
					t.Errorf("sum of spans is %.3f of the in-process turnaround", r)
				}
				if _, err := os.Stat(filepath.Join(env.OutDir, "trace-"+w+".json")); err != nil {
					t.Errorf("no Chrome trace written: %v", err)
				}
			}
		})
	}
}

// TestExactCountsRepeat walks the head of each stream through the
// layers twice and wants every exact count bit for bit the same.
func TestExactCountsRepeat(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	for w := range serveWorkloads {
		var counts [2]map[string]float64
		for k := range counts {
			p := newPipeline(true)
			for i, r := range generate(root, w, 5, shortTraceN).Reqs {
				if _, why := p.one(i, &r); why != "" {
					t.Fatalf("%s request %d (%s): %s", w, i, r.Class, why)
				}
			}
			p.counts["machine.max_promotion_gap"] = float64(p.maxGap)
			counts[k] = p.counts
		}
		for name, v := range counts[0] {
			if counts[1][name] != v {
				t.Errorf("%s: %s was %v, then %v", w, name, v, counts[1][name])
			}
		}
	}
}

func portFree(addr string) bool {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return false
	}
	ln.Close()
	return true
}

// TestDaemonLifecycle: the child is reaped and its port released after
// a normal stop, a child that never listens is an error that says so,
// and a benchmark interrupted mid-run leaves no daemon behind.
func TestDaemonLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("builds tpal-serve and the benchmark")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	env := &environment{Root: root, OutDir: t.TempDir(), NProc: 2}
	ctx := context.Background()
	bin, err := buildDaemon(ctx, env)
	if err != nil {
		t.Fatal(err)
	}

	d, err := startDaemon(ctx, env, bin, "daemon.log", 2)
	if err != nil {
		t.Fatal(err)
	}
	d.Stop()
	select {
	case <-d.done:
	default:
		t.Error("Stop returned before the child was reaped")
	}
	if !portFree(d.Addr) {
		t.Errorf("port %s still taken after Stop", d.Addr)
	}

	if _, err := startDaemon(ctx, env, "/bin/false", "false.log", 2); err == nil || !strings.Contains(err.Error(), "before listening") {
		t.Errorf("a child that exits at once: err = %v", err)
	}

	// SIGINT mid-run. The benchmark is run from a private copy of the
	// checkout's benchmark directory layout: same root, own out/.
	self := filepath.Join(t.TempDir(), "benchmark")
	build := exec.Command("go", "build", "-o", self, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build benchmark: %v\n%s", err, out)
	}
	cmd := exec.Command(self, "--workload", "serve-hot", "--seconds", "30", "--trace", "0")
	cmd.Dir = filepath.Join(root, "benchmark")
	logPath := filepath.Join(root, "benchmark", "out", "daemon-serve-hot.log")
	_ = os.Remove(logPath) // a log left by an earlier run names a dead address
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrRE := regexp.MustCompile(`listening on http://(\S+)`)
	var addr string
	for deadline := time.Now().Add(20 * time.Second); addr == "" && time.Now().Before(deadline); time.Sleep(50 * time.Millisecond) {
		if b, err := os.ReadFile(logPath); err == nil {
			if m := addrRE.FindSubmatch(b); m != nil {
				if c, err := net.Dial("tcp", string(m[1])); err == nil {
					c.Close()
					addr = string(m[1])
				}
			}
		}
	}
	if addr == "" {
		_ = cmd.Process.Kill()
		t.Fatal("the benchmark's daemon never came up")
	}
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { waited <- cmd.Wait() }()
	select {
	case err := <-waited:
		if err == nil {
			t.Error("an interrupted benchmark exited 0")
		}
	case <-time.After(20 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatal("the benchmark did not exit within 20 s of SIGINT")
	}
	if !portFree(addr) {
		t.Errorf("daemon port %s still taken after the benchmark was interrupted", addr)
	}
}
