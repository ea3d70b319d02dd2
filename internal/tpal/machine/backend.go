package machine

import (
	"fmt"
	"strings"

	"tpal/internal/tpal"
	"tpal/internal/tpal/analysis"
)

// Backend selects which execution engine runs the program.
type Backend uint8

const (
	// BackendInterp is the reference lowering in this package: every
	// Op decodes its tpal.Instr and switches on it, performing every
	// dynamic check. It is the differential oracle every other backend
	// is checked against.
	BackendInterp Backend = iota
	// BackendCompiled is the closure-threaded lowering in
	// machine/compile: one specialized Go closure per instruction, with
	// operands and branch targets resolved at compile time and
	// verifier-discharged checks elided. It runs on the same engine and
	// is behaviorally identical to the interpreter (results, faults,
	// Stats, traces, race verdicts) by contract.
	BackendCompiled
)

func (b Backend) String() string {
	switch b {
	case BackendInterp:
		return "interp"
	case BackendCompiled:
		return "compiled"
	}
	return fmt.Sprintf("backend(%d)", uint8(b))
}

// ParseBackend maps a CLI/API spelling to a Backend.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "interp", "":
		return BackendInterp, nil
	case "compiled":
		return BackendCompiled, nil
	}
	return 0, fmt.Errorf("unknown backend %q (want interp or compiled)", s)
}

// compiledRunner is installed by machine/compile's init. The
// registration hook keeps the dependency one-way (compile imports
// machine, never the reverse) while letting Run dispatch on
// Config.Backend.
var compiledRunner func(prog *tpal.Program, cfg Config) (Result, error)

// RegisterCompiledBackend installs the compiled backend's entry point.
// Called from machine/compile's init; exported so the seam stays
// testable.
func RegisterCompiledBackend(run func(prog *tpal.Program, cfg Config) (Result, error)) {
	compiledRunner = run
}

// RunBackend executes the program under the lowering cfg.Backend
// selects. With BackendInterp (the zero value) it is machine.Run; with
// BackendCompiled it dispatches to machine/compile, which must be
// linked in (blank-import it or use a surface that does).
func RunBackend(prog *tpal.Program, cfg Config) (Result, error) {
	switch cfg.Backend {
	case BackendInterp:
		return Run(prog, cfg)
	case BackendCompiled:
		if compiledRunner == nil {
			return Result{}, fmt.Errorf("%w: compiled backend not linked in (import tpal/internal/tpal/machine/compile)", ErrMachine)
		}
		return compiledRunner(prog, cfg)
	}
	return Result{}, fmt.Errorf("%w: unknown backend %d", ErrMachine, cfg.Backend)
}

// Verify is the gate every backend applies before execution: the
// program is validated structurally, then — unless cfg.SkipVerify is
// set — checked by the static verifier with cfg.Regs as the
// assumed-initialized entry registers; verifier errors reject the
// program with ErrVerify. The analysis report (nil under SkipVerify) is
// returned for lowerings that hoist checks on it.
func Verify(prog *tpal.Program, cfg Config) (*analysis.Report, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if cfg.SkipVerify {
		return nil, nil
	}
	entry := make([]tpal.Reg, 0, len(cfg.Regs))
	for r := range cfg.Regs {
		entry = append(entry, r)
	}
	report := analysis.Analyze(prog, analysis.Options{EntryRegs: entry})
	if errs := analysis.Errors(report.Diags); len(errs) > 0 {
		msgs := make([]string, len(errs))
		for i, d := range errs {
			msgs[i] = d.String()
		}
		return nil, fmt.Errorf("%w:\n  %s", ErrVerify, strings.Join(msgs, "\n  "))
	}
	return report, nil
}
