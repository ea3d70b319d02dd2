package machine

import (
	"fmt"
	"strings"

	"tpal/internal/tpal"
	"tpal/internal/tpal/analysis"
)

// Verify is the gate every lowering applies before execution: the
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
