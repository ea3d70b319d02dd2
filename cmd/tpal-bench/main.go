// Command tpal-bench regenerates the paper's evaluation figures.
//
// Usage:
//
//	tpal-bench -exp fig6              # one figure
//	tpal-bench -exp all               # everything (the default)
//	tpal-bench -exp fig7,fig14 -scale 2 -reps 5 -cores 15
//	tpal-bench -list                  # list experiment ids
//	tpal-bench -bench spmv-random,mandelbrot -exp fig6
//
// See DESIGN.md for the experiment index and EXPERIMENTS.md for
// paper-versus-measured shapes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"tpal/internal/harness"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole tool behind a testable seam: tables go to stdout,
// failures to stderr, and the return value is the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tpal-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp    = fs.String("exp", "all", "experiment id(s), comma separated, or 'all'")
		scale  = fs.Float64("scale", 1.0, "input scale multiplier (1.0 = scaled-down defaults)")
		reps   = fs.Int("reps", 3, "repetitions per measurement (median run kept)")
		cores  = fs.Int("cores", 15, "simulated machine size for at-scale figures")
		benchs = fs.String("bench", "", "comma-separated benchmark subset (default: all)")
		list   = fs.Bool("list", false, "list experiments and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Fprintf(stdout, "%-9s %s\n", e.ID, e.Title)
		}
		return 0
	}

	opt := harness.Options{
		Out:   stdout,
		Scale: *scale,
		Reps:  *reps,
		Cores: *cores,
	}
	if *benchs != "" {
		opt.Benchmarks = strings.Split(*benchs, ",")
	}
	session, err := harness.NewSession(opt)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	var selected []harness.Experiment
	if *exp == "all" {
		selected = harness.Experiments()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, err := harness.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			selected = append(selected, e)
		}
	}

	for _, e := range selected {
		fmt.Fprintf(stdout, "== %s: %s ==\n\n", e.ID, e.Title)
		e.Run(session)
	}
	return 0
}
