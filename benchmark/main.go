// Command benchmark is the repo's one front-door benchmark: six
// workloads, the end-to-end metrics a user of the system sees, and a
// per-layer ledger from the socket down to individual promotions. See
// README.md beside this file.
//
//	bash benchmark/run.sh                       one full pass, every workload, untraced then traced
//	bash benchmark/run.sh -sets 5               five passes, min/median/IQR per metric and workload
//	bash benchmark/run.sh compare A.json B.json apply the bounds of BENCHMARK.json to two result files
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//	                                            one run, one JSON object on the last line (the driver's form)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"tpal/internal/stats"
)

// environment is where the benchmark runs and what it runs on.
type environment struct {
	Root   string // the checkout: the directory holding BENCHMARK.json
	OutDir string // benchmark/out, git-ignored; everything written lands here
	NProc  int
	// Short shrinks the native kernels to smoke-test size.
	Short bool
	// StartTarget starts a cold daemon for a serve-* workload: a child
	// tpal-serve, or an in-process handler under test.
	StartTarget func(ctx context.Context, env *environment, name string) (*serveTarget, error)
}

// findRoot walks up from the working directory to the checkout root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
			return "", fmt.Errorf("%s holds BENCHMARK.json but no go.mod: the benchmark builds tpal-serve from the checkout it sits in", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in this directory or above it")
		}
		dir = parent
	}
}

func newEnvironment() (*environment, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	out := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	return &environment{Root: root, OutDir: out, NProc: runtime.NumCPU(), StartTarget: startTarget}, nil
}

// runWorkload runs one workload once.
func runWorkload(ctx context.Context, env *environment, workload string, seed int64, seconds float64, traced bool) (*result, error) {
	var res *result
	var err error
	switch _, isServe := serveWorkloads[workload]; {
	case workload == "machine-direct":
		res, err = runMachineDirect(ctx, env, seconds, traced)
	case workload == "native-kernels":
		res, err = runNativeKernels(ctx, env, seconds, traced)
	case isServe:
		res, err = runServe(ctx, env, workload, seed, seconds, traced)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return nil, err
	}
	res.set("fail_share", stats.Ratio(float64(res.Failed), float64(res.Attempted)))
	return res, nil
}

// runIsolated runs one workload in a process of its own, the way the
// driver does, so its peak RSS, heap and warm caches owe nothing to the
// workloads a full pass ran before it.
func runIsolated(ctx context.Context, env *environment, workload string, seed int64, seconds float64, traced bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := filepath.Join(env.OutDir, "run-result.json")
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, self, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", trace, "--result-file", out)
	cmd.Dir = env.Root
	cmd.Stderr = os.Stderr
	// On interrupt the child gets the signal too and stops its daemon.
	cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
	cmd.WaitDelay = 15 * time.Second
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	buf, err := os.ReadFile(out)
	if err != nil {
		return nil, err
	}
	var res result
	if err := json.Unmarshal(buf, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", out, err)
	}
	return &res, nil
}

// header makes two result files comparable, or visibly not.
type header struct {
	GoVersion  string                 `json:"go_version"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	NProc      int                    `json:"nproc"`
	Commit     string                 `json:"commit"`
	Seed       int64                  `json:"seed"`
	Seconds    float64                `json:"seconds"`
	Serve      map[string]serveParams `json:"serve_workloads"`
	Started    string                 `json:"started"`
}

func newHeader(env *environment, seed int64, seconds float64) header {
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = env.Root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return header{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: env.NProc,
		Commit: commit, Seed: seed, Seconds: seconds, Serve: serveWorkloads,
		Started: time.Now().UTC().Format(time.RFC3339),
	}
}

// resultFile is what a full pass or a set of passes writes to out/.
type resultFile struct {
	Header header      `json:"header"`
	Passes [][]*result `json:"passes"` // pass → one untraced and one traced result per workload
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:])
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "run this one workload and print the driver's JSON line (default: a full pass)")
		seed     = fs.Int64("seed", defaultSeed, "seed of every generated request stream")
		seconds  = fs.Float64("seconds", 0, "measuring time of one run (default: run_seconds of BENCHMARK.json)")
		trace    = fs.String("trace", "0", "with -workload: 0 measures and reports the end-to-end metrics, 1 the per-layer metrics")
		sets     = fs.Int("sets", 1, "number of complete passes")
		resultTo = fs.String("result-file", "", "with -workload: also write the run's full result, as JSON, to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	err := func() error {
		env, err := newEnvironment()
		if err != nil {
			return err
		}
		bm, err := readSpec(env.Root)
		if err != nil {
			return err
		}
		if *seconds <= 0 {
			*seconds = float64(bm.RunSeconds)
		}
		hdr := newHeader(env, *seed, *seconds)
		line, _ := json.Marshal(hdr)
		fmt.Printf("header %s\n", line)
		if *workload != "" {
			return runOne(ctx, env, *workload, *seed, *seconds, *trace == "1" || *trace == "true", *resultTo)
		}
		return runPasses(ctx, env, bm, hdr, *sets)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// runOne is the driver's form: one workload, one JSON object on the last
// line of standard output.
func runOne(ctx context.Context, env *environment, workload string, seed int64, seconds float64, traced bool, resultTo string) error {
	res, err := runWorkload(ctx, env, workload, seed, seconds, traced)
	if err != nil {
		return err
	}
	printResult(os.Stdout, res)
	line, err := res.driverLine()
	if err != nil {
		return err
	}
	if resultTo != "" {
		buf, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if err := os.WriteFile(resultTo, buf, 0o644); err != nil {
			return err
		}
	}
	fmt.Println(line)
	return nil
}

// runPasses runs every workload, untraced then traced, sets times over,
// and writes the results to out/.
func runPasses(ctx context.Context, env *environment, bm *spec, hdr header, sets int) error {
	file := resultFile{Header: hdr}
	failed := 0
	for pass := 0; pass < sets; pass++ {
		var results []*result
		for _, w := range workloadNames {
			for _, traced := range []bool{false, true} {
				res, err := runIsolated(ctx, env, w, hdr.Seed, hdr.Seconds, traced)
				if err != nil {
					return err
				}
				printResult(os.Stdout, res)
				failed += res.Failed
				results = append(results, res)
			}
		}
		file.Passes = append(file.Passes, results)
	}
	if sets > 1 {
		printSpreads(os.Stdout, bm, &file)
	}
	name := filepath.Join(env.OutDir, "result-"+time.Now().UTC().Format("20060102-150405")+".json")
	buf, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(name, buf, 0o644); err != nil {
		return err
	}
	fmt.Println("results written to", name)
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}
