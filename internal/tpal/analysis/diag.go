// Package analysis statically verifies TPAL programs. It layers five
// phases on top of the structural checks of (*tpal.Program).Validate:
//
//  1. structural validation (Validate's Issues, reported as errors);
//  2. control-flow checks over a conservative CFG (every fork must be
//     able to reach a join);
//  3. an abstract interpretation running register
//     definite-initialization, abstract stack-height tracking
//     (salloc/sfree balance, load/store frame bounds, prmpush/prmpop
//     balance, guarded prmsplit) and join-record protocol checking
//     (join targets carry jtppt annotations, ΔR sources are defined at
//     join edges) in one product domain;
//  4. promotion-liveness over the flow-sharpened edge set: a dominator
//     tree and loop forest locate every cycle, and the pass proves each
//     one crosses a promotion-ready program point (or consumes a
//     bounded resource), yielding a static promotion-latency bound and
//     flagging dead annotations and promotion-starved forking loops;
//  5. a symbolic work/span estimator folding per-instruction costs
//     through the loop forest (Figure 28's τ-weighted fork cost;
//     unknown trip counts stay symbolic).
//
// Verify is the diagnostics entry point and Analyze the full-report
// one; cmd/tpal-lint is the CLI; the machine and the minipar compiler
// run the verifier at load/compile time.
package analysis

import (
	"fmt"
	"sort"

	"tpal/internal/tpal"
)

// Severity grades a diagnostic.
type Severity uint8

// Severities. An Error marks a state the abstract machine is certain to
// fault on if control reaches it (or a structural violation); a Warning
// marks a suspicious state that may execute cleanly — for example a
// register that is nil on some path, which TPAL arithmetic reads as 0.
const (
	Warning Severity = iota
	Error
)

func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// Code is a stable diagnostic code. Codes are part of the tool
// contract: they appear in Diag.String and tpal-lint's -json output and
// never change meaning between releases, so suppressions and CI greps
// can key on them.
type Code string

// Diagnostic codes, grouped by phase: TP001 structural, TP01x CFG
// shape, TP02x definite initialization and metafunction sorts, TP03x
// arithmetic, TP04x stack discipline, TP05x promotion liveness.
const (
	CodeStructural       Code = "TP001" // program fails structural validation
	CodeForkNoJoinParent Code = "TP010" // forking task can never reach a join
	CodeForkNoJoinChild  Code = "TP011" // forked child can never reach a join
	CodeAnnotatedHandler Code = "TP012" // promotion handler carries an annotation
	CodeUseNeverAssigned Code = "TP020" // faulting use of a never-assigned register
	CodeUseBeforeAssign  Code = "TP021" // read of a never-assigned register (reads nil)
	CodeUseMaybeUnassign Code = "TP022" // register may be unassigned on some path
	CodeIfTargetKind     Code = "TP023" // if-jump target register can never hold a label
	CodeJumpTargetKind   Code = "TP024" // jump register can never hold a label
	CodeForkTargetKind   Code = "TP025" // fork target register can never hold a label
	CodeForkRecordKind   Code = "TP026" // fork join register can never hold a record
	CodeJoinRecordKind   Code = "TP027" // join operand can never hold a record
	CodeJrallocNotJtppt  Code = "TP028" // jralloc continuation lacks a jtppt annotation
	CodeBinopOperandKind Code = "TP030" // operator operand of a non-arithmetic sort
	CodeDivByZero        Code = "TP031" // division by the constant zero
	CodeStackBaseKind    Code = "TP040" // stack op base register can never hold a pointer
	CodeOutOfFrame       Code = "TP041" // load/store provably below the frame base
	CodeSfreeBelowBase   Code = "TP042" // sfree reaches below the stack base
	CodePrmPopEmpty      Code = "TP043" // prmpop with no live promotion-ready marks
	CodePrmSplitEmpty    Code = "TP044" // prmsplit with no live promotion-ready marks
	CodePrmSplitUnguard  Code = "TP045" // prmsplit not guarded by a prmempty check
	CodeNonPromotingLoop Code = "TP050" // cycle crosses no promotion-ready program point
	CodeLoopForksNoPrppt Code = "TP051" // loop forks but contains no prppt
	CodeDeadPrppt        Code = "TP052" // prppt on an unreachable block; handler never runs
	CodeDeadJtppt        Code = "TP053" // jtppt never targeted by any jralloc
)

// Race-detection codes (TP06x), emitted by the static interference pass
// (Options.Races). Error-severity race codes mark definite interference:
// if the fork executes and both branches reach the reported accesses,
// those accesses touch the same cell of the same stack while logically
// parallel — exactly the condition the dynamic sanitizer
// (machine.Config.RaceDetect) halts on. Warning-severity race codes mark
// overlaps the region abstraction cannot separate.
const (
	CodeRaceWriteWrite Code = "TP060" // parallel branches definitely write the same cell
	CodeRaceReadWrite  Code = "TP061" // one branch reads a cell the other definitely writes
	CodeRaceMarkList   Code = "TP062" // parallel mark-list traffic interferes with an access
	CodeRaceEscape     Code = "TP063" // a stack pointer may escape to memory across a fork
	CodeRaceSameStack  Code = "TP064" // branches share a stack at cells the analysis cannot separate
	CodeRaceMayAlias   Code = "TP065" // branch regions may alias (same allocation site, instances not separable)
)

// Auto-parallelization codes (TP07x), emitted by the minipar autopar
// pass (internal/minipar/autopar) as per-site verdict reasons: why a
// candidate loop or statement pair was left sequential. They are
// informational — Warning severity, never produced by Verify itself —
// but live in this registry so the verdict tables of minipar -auto,
// tpal-lint -autopar, and the serve job view share the stable-code
// contract with every other diagnostic surface.
const (
	CodeAutoNotCounted   Code = "TP070" // loop is not in counted induction form
	CodeAutoLoopCarried  Code = "TP071" // loop-carried dependence not in reducible shape
	CodeAutoUnsupported  Code = "TP072" // candidate region contains call/return/parallel constructs
	CodeAutoUnprofitable Code = "TP073" // static work bound below the spawn-cost threshold
	CodeAutoNotDisjoint  Code = "TP074" // would-be branch regions not provably disjoint (TP06x)
	CodeAutoDependent    Code = "TP075" // statement pair has overlapping read/write sets
)

// Optimizer codes (TP08x), emitted by the translation-validated TPAL
// optimizer (internal/tpal/opt) as per-pass report notes: why a
// candidate rewrite was rejected by the certifier. They are
// informational — Warning severity, never produced by Verify itself —
// but live in this registry so the pass reports of tpal-lint -opt and
// the serve admission path share the stable-code contract with every
// other diagnostic surface.
const (
	CodeOptPrpptBudget Code = "TP080" // prppt kept: removal would exceed the gap budget
	CodeOptPrpptGrade  Code = "TP081" // prppt kept: removal would worsen the latency grade or add diagnostics
	CodeOptReverted    Code = "TP082" // optimizer pass reverted by the translation-validation certifier
)

// Trip-count codes (TP09x), emitted by phase 7 — the interval value
// analysis and its induction/trip-count pass.
const (
	CodeTripDivergent     Code = "TP090" // loop is statically divergent: no feasible exit once entered
	CodeTripCeiling       Code = "TP091" // inferred trip bound exceeds the fixed ceiling
	CodeTripContradiction Code = "TP092" // loop guard contradicted by the entry state: body unreachable
)

// Codes maps every diagnostic code to a one-line description of the
// check it names. The table is the authoritative code registry; tests
// pin its completeness against the checks that emit each code.
var Codes = map[Code]string{
	CodeStructural:        "program fails structural validation",
	CodeForkNoJoinParent:  "the forking task can never reach a join",
	CodeForkNoJoinChild:   "the forked child task can never reach a join",
	CodeAnnotatedHandler:  "a promotion handler carries its own annotation",
	CodeUseNeverAssigned:  "a faulting context reads a never-assigned register",
	CodeUseBeforeAssign:   "a register is read before any assignment (nil reads as 0)",
	CodeUseMaybeUnassign:  "a register may be unassigned on some path",
	CodeIfTargetKind:      "an if-jump target register can never hold a label",
	CodeJumpTargetKind:    "a jump register can never hold a label",
	CodeForkTargetKind:    "a fork target register can never hold a label",
	CodeForkRecordKind:    "a fork join register can never hold a join record",
	CodeJoinRecordKind:    "a join operand can never hold a join record",
	CodeJrallocNotJtppt:   "a jralloc continuation lacks a jtppt annotation",
	CodeBinopOperandKind:  "an operator operand holds a non-arithmetic sort",
	CodeDivByZero:         "a division or remainder by the constant zero",
	CodeStackBaseKind:     "a stack operation's base register can never hold a stack pointer",
	CodeOutOfFrame:        "a load or store provably lands below the frame base",
	CodeSfreeBelowBase:    "an sfree reaches below the stack base",
	CodePrmPopEmpty:       "a prmpop on a stack with no live promotion-ready marks",
	CodePrmSplitEmpty:     "a prmsplit on a stack with no live promotion-ready marks",
	CodePrmSplitUnguard:   "a prmsplit not guarded by a prmempty check",
	CodeNonPromotingLoop:  "a cycle crosses no promotion-ready program point",
	CodeLoopForksNoPrppt:  "a loop forks but contains no promotion-ready program point",
	CodeDeadPrppt:         "a prppt annotation on an unreachable block",
	CodeDeadJtppt:         "a jtppt continuation never targeted by any jralloc",
	CodeRaceWriteWrite:    "both branches of a fork write the same stack cell in parallel",
	CodeRaceReadWrite:     "one branch of a fork reads a stack cell the other writes in parallel",
	CodeRaceMarkList:      "parallel promotion-mark-list traffic interferes with a stack access",
	CodeRaceEscape:        "a stack pointer may escape to memory, so forked regions cannot be separated",
	CodeRaceSameStack:     "fork branches share a stack at cells the analysis cannot separate",
	CodeRaceMayAlias:      "fork branch regions may alias: same allocation site, instances not separable",
	CodeAutoNotCounted:    "a sequential loop is not in counted induction form, so it has no iteration space to split",
	CodeAutoLoopCarried:   "a loop-carried dependence: a cross-iteration update is not in reducible accumulator shape",
	CodeAutoUnsupported:   "a candidate region contains a statement the transform cannot fork (call, return, or parallel construct)",
	CodeAutoUnprofitable:  "a candidate's static work bound is below the spawn-cost threshold; forking would cost more than it saves",
	CodeAutoNotDisjoint:   "the would-be branch region summaries are not provably disjoint (a TP06x overlap survives)",
	CodeAutoDependent:     "a statement pair has overlapping read/write sets and cannot run in parallel",
	CodeOptPrpptBudget:    "a redundant-looking prppt was kept: removing it would push the promotion-latency bound past the optimizer's gap budget",
	CodeOptPrpptGrade:     "a prppt was kept: removing it would worsen the promotion-latency grade or surface new diagnostics",
	CodeOptReverted:       "an optimizer pass was reverted: the translation-validation certifier found a contract violation in its output",
	CodeTripDivergent:     "a loop is statically divergent: once entered, no exit edge is feasible and the region never halts or joins",
	CodeTripCeiling:       "an inferred loop trip bound exceeds the configured ceiling; the loop dominates any fuel budget",
	CodeTripContradiction: "a loop guard is contradicted by every state reaching its header; the body never runs",
}

// IsOptCode reports whether a code belongs to the optimizer report
// family (TP080–TP082).
func IsOptCode(c Code) bool {
	switch c {
	case CodeOptPrpptBudget, CodeOptPrpptGrade, CodeOptReverted:
		return true
	}
	return false
}

// IsAutoParCode reports whether a code belongs to the
// auto-parallelization verdict family (TP070–TP075).
func IsAutoParCode(c Code) bool {
	switch c {
	case CodeAutoNotCounted, CodeAutoLoopCarried, CodeAutoUnsupported,
		CodeAutoUnprofitable, CodeAutoNotDisjoint, CodeAutoDependent:
		return true
	}
	return false
}

// IsTripCode reports whether a code belongs to the phase-7 trip-count
// family (TP090–TP092).
func IsTripCode(c Code) bool {
	switch c {
	case CodeTripDivergent, CodeTripCeiling, CodeTripContradiction:
		return true
	}
	return false
}

// IsRaceCode reports whether a code belongs to the static interference
// pass (TP060–TP065).
func IsRaceCode(c Code) bool {
	switch c {
	case CodeRaceWriteWrite, CodeRaceReadWrite, CodeRaceMarkList,
		CodeRaceEscape, CodeRaceSameStack, CodeRaceMayAlias:
		return true
	}
	return false
}

// RaceDiags returns only the diagnostics of the static interference
// pass.
func RaceDiags(diags []Diag) []Diag {
	var out []Diag
	for _, d := range diags {
		if IsRaceCode(d.Code) {
			out = append(out, d)
		}
	}
	return out
}

// Diag is one verifier finding. Instr follows the machine's program
// counter convention: 0..len(Instrs)-1 name instructions,
// len(Instrs) names the terminator, and -1 (tpal.IssueBlock) names the
// block header or annotation.
type Diag struct {
	Severity Severity
	Code     Code
	Block    tpal.Label
	Instr    int
	Msg      string
}

func (d Diag) String() string {
	pos := fmt.Sprintf("%s[%d]", d.Block, d.Instr)
	if d.Instr == tpal.IssueBlock {
		pos = string(d.Block)
	}
	if d.Code == "" {
		return fmt.Sprintf("%s: %s: %s", pos, d.Severity, d.Msg)
	}
	return fmt.Sprintf("%s: %s: %s: %s", pos, d.Severity, d.Code, d.Msg)
}

// HasErrors reports whether any diagnostic is an Error.
func HasErrors(diags []Diag) bool {
	for _, d := range diags {
		if d.Severity == Error {
			return true
		}
	}
	return false
}

// Errors returns only the Error-severity diagnostics.
func Errors(diags []Diag) []Diag {
	var out []Diag
	for _, d := range diags {
		if d.Severity == Error {
			out = append(out, d)
		}
	}
	return out
}

// sortDiags orders diagnostics by block position in p, then by
// instruction index, then severity (errors first), then message.
func sortDiags(p *tpal.Program, diags []Diag) {
	order := make(map[tpal.Label]int, len(p.Blocks))
	for i, b := range p.Blocks {
		order[b.Label] = i
	}
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if order[a.Block] != order[b.Block] {
			return order[a.Block] < order[b.Block]
		}
		if a.Instr != b.Instr {
			return a.Instr < b.Instr
		}
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		return a.Msg < b.Msg
	})
}
