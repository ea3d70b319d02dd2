// Command tpal-run assembles and executes TPAL assembly programs on the
// abstract machine, and compiles and runs minipar programs (files ending
// in .mp) through the minipar→TPAL compiler.
//
// Usage:
//
//	tpal-run -builtin prod -reg a=1000,b=3 -heartbeat 50
//	tpal-run -builtin fib -reg n=20 -heartbeat 100 -schedule random -seed 7
//	tpal-run -reg x=5 -out result program.tpal
//	tpal-run -reg n=100 -out result -stats program.mp
//	tpal-run -dump program.mp          # print the compiled TPAL assembly
//	tpal-run -builtin pow -reg d=3,e=9 -stats
//	tpal-run -race -reg n=50 program.mp   # determinacy-race sanitizer on
//	tpal-run -O -builtin pow -reg d=3,e=9  # certified optimizer on
//	tpal-run -backend compiled -builtin fib -reg n=20  # closure-threaded backend
//	tpal-run -fuel 100000 program.tpal    # hard step budget
//	tpal-run -timeout 2s program.tpal     # wall-clock deadline
//	tpal-run -list-builtins
//
// Flags must precede the program file.
//
// With -heartbeat 0 the program runs its pure sequential elaboration;
// otherwise heartbeat interrupts fire every N instructions and promote
// latent parallelism at promotion-ready program points. -signal N
// instead delivers OS-style signals every N instructions with
// rollforward semantics.
//
// Exit status mirrors the tpal-serve job-state machine so scripts can
// tell outcomes apart:
//
//	0  the program halted
//	1  fault: a machine error, verifier rejection, or determinacy race
//	2  usage or load error (bad flags, unreadable or unparsable input)
//	3  budget exceeded (-fuel, or the -max-steps runaway guard)
//	4  timeout (-timeout wall-clock deadline passed)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"tpal/internal/minipar"
	"tpal/internal/tpal"
	"tpal/internal/tpal/asm"
	"tpal/internal/tpal/machine"
	"tpal/internal/tpal/machine/compile"
	"tpal/internal/tpal/opt"
	"tpal/internal/tpal/programs"
)

// Exit codes. The fault/budget/timeout split mirrors the job states of
// internal/serve, so a shell pipeline and the HTTP service agree on
// what happened to a program.
const (
	exitOK      = 0
	exitFault   = 1
	exitUsage   = 2
	exitBudget  = 3
	exitTimeout = 4
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole tool behind a testable seam: it parses flags from
// args, writes results to stdout and failures to stderr, and returns
// the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tpal-run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		builtin  = fs.String("builtin", "", "run a built-in program (prod, pow, fib)")
		regs     = fs.String("reg", "", "entry registers, e.g. a=1000,b=3")
		out      = fs.String("out", "", "result register to print (default: all registers)")
		hb       = fs.Int64("heartbeat", 100, "heartbeat threshold ♥ in instructions (0 = serial)")
		signal   = fs.Int64("signal", 0, "OS-signal period in instructions, rollforward semantics (0 = off)")
		tau      = fs.Int64("tau", 1, "fork-join cost τ for the cost semantics")
		schedule = fs.String("schedule", "lockstep", "task interleaving: lockstep, random, or depth-first")
		seed     = fs.Int64("seed", 0, "seed for the random schedule")
		maxSteps = fs.Int64("max-steps", 0, "step bound (0 = default 100M)")
		fuel     = fs.Int64("fuel", 0, "hard execution budget in machine steps; exceeding it exits 3 (0 = off)")
		timeout  = fs.Duration("timeout", 0, "wall-clock deadline for the run; exceeding it exits 4 (0 = off)")
		race     = fs.Bool("race", false, "enable the determinacy-race sanitizer (halts on the first racing access pair)")
		backend  = fs.String("backend", "interp", "execution backend: interp (switch dispatcher) or compiled (closure-threaded code)")
		optimize = fs.Bool("O", false, "run the certified analysis-directed optimizer before executing")
		stats    = fs.Bool("stats", false, "print execution statistics")
		list     = fs.Bool("list-builtins", false, "list built-in programs and exit")
		dump     = fs.Bool("dump", false, "print the assembled program instead of running it")
		trace    = fs.Bool("trace", false, "print an instruction-level execution trace (Appendix D style)")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}

	if *list {
		names := make([]string, 0, 3)
		for name := range programs.All() {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintln(stdout, n)
		}
		return exitOK
	}

	prog, err := loadProgram(*builtin, fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "tpal-run:", err)
		return exitUsage
	}
	if *optimize {
		// The optimizer subsumes verification (it refuses programs the
		// verifier rejects), and its output is certified equivalent, so
		// both -dump and the machine run use the optimized form.
		res, err := opt.Optimize(prog, opt.Options{EntryRegs: entryRegNames(*regs)})
		if err != nil {
			fmt.Fprintln(stderr, "tpal-run:", err)
			return exitFault
		}
		prog = res.Program
	}
	if *dump {
		fmt.Fprint(stdout, prog.String())
		return exitOK
	}

	cfg := machine.Config{
		Heartbeat:    *hb,
		SignalPeriod: *signal,
		Tau:          *tau,
		MaxSteps:     *maxSteps,
		Fuel:         *fuel,
		Seed:         *seed,
		RaceDetect:   *race,
		Regs:         make(machine.RegFile),
	}
	var runProg func(*tpal.Program, machine.Config) (machine.Result, error)
	switch *backend {
	case "interp":
		runProg = machine.Run
	case "compiled":
		runProg = compile.Run
	default:
		fmt.Fprintf(stderr, "tpal-run: unknown backend %q (want interp or compiled)\n", *backend)
		return exitUsage
	}
	switch *schedule {
	case "lockstep":
		cfg.Schedule = machine.Lockstep
	case "random":
		cfg.Schedule = machine.RandomOrder
	case "depth-first":
		cfg.Schedule = machine.DepthFirst
	default:
		fmt.Fprintf(stderr, "tpal-run: unknown schedule %q\n", *schedule)
		return exitUsage
	}

	if *trace {
		cfg.Trace = machine.WriteTrace(stdout)
	}

	if *regs != "" {
		for _, pair := range strings.Split(*regs, ",") {
			name, val, ok := strings.Cut(pair, "=")
			if !ok {
				fmt.Fprintf(stderr, "tpal-run: bad register assignment %q (want name=int)\n", pair)
				return exitUsage
			}
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				fmt.Fprintf(stderr, "tpal-run: bad register value %q: %v\n", pair, err)
				return exitUsage
			}
			cfg.Regs[tpal.Reg(name)] = machine.IntV(n)
		}
	}

	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		cfg.Context = ctx
	}

	res, err := runProg(prog, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "tpal-run:", err)
		switch {
		case errors.Is(err, machine.ErrFuel), errors.Is(err, machine.ErrMaxSteps):
			return exitBudget
		case errors.Is(err, machine.ErrInterrupted):
			return exitTimeout
		default:
			return exitFault
		}
	}

	if *out != "" {
		fmt.Fprintf(stdout, "%s = %s\n", *out, res.Regs.Get(tpal.Reg(*out)))
	} else {
		names := make([]string, 0, len(res.Regs))
		for r := range res.Regs {
			names = append(names, string(r))
		}
		sort.Strings(names)
		for _, r := range names {
			fmt.Fprintf(stdout, "%s = %s\n", r, res.Regs.Get(tpal.Reg(r)))
		}
	}
	if *stats {
		st := res.Stats
		fmt.Fprintf(stdout, "steps=%d work=%d span=%d parallelism=%.2f forks=%d joins=%d handlers=%d records=%d tasks=%d maxLive=%d\n",
			st.Steps, st.Work, st.Span,
			float64(st.Work)/float64(max(st.Span, 1)),
			st.Forks, st.Joins, st.HandlerRuns, st.JoinRecords, st.TasksCreated, st.MaxLiveTasks)
	}
	return exitOK
}

func loadProgram(builtin string, args []string) (*tpal.Program, error) {
	switch {
	case builtin != "":
		p, ok := programs.All()[builtin]
		if !ok {
			return nil, fmt.Errorf("unknown built-in %q (try -list-builtins)", builtin)
		}
		return p, nil
	case len(args) == 1:
		src, err := os.ReadFile(args[0])
		if err != nil {
			return nil, err
		}
		if strings.HasSuffix(args[0], ".mp") {
			mp, err := minipar.Parse(string(src))
			if err != nil {
				return nil, err
			}
			return minipar.Compile(mp)
		}
		return asm.Parse(string(src))
	case len(args) > 1:
		return nil, fmt.Errorf("flags must precede the program file (got extra arguments %v)", args[1:])
	default:
		return nil, errors.New("provide a .tpal or .mp file, or -builtin name")
	}
}

// entryRegNames extracts the register names of a -reg assignment list;
// the -dump -O path needs them before the register file is built.
func entryRegNames(spec string) []tpal.Reg {
	var out []tpal.Reg
	for _, pair := range strings.Split(spec, ",") {
		if name, _, ok := strings.Cut(pair, "="); ok {
			out = append(out, tpal.Reg(name))
		}
	}
	return out
}
