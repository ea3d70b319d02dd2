package analysis_test

import (
	"errors"
	"testing"

	"tpal/internal/tpal"
	"tpal/internal/tpal/analysis"
	"tpal/internal/tpal/asm"
	"tpal/internal/tpal/machine"
	"tpal/internal/tpal/programs"
)

// TestCorpusRaceFree pins the central soundness-and-precision claim of
// the interference pass: the paper's three programs — including fib,
// whose promotion handlers hand each forked child a block-fresh stack
// while the parent keeps the old one — produce zero race diagnostics.
func TestCorpusRaceFree(t *testing.T) {
	for name, p := range programs.All() {
		entry := corpusEntryRegs[name]
		diags := analysis.VerifyWith(p, analysis.Options{EntryRegs: entry, Races: true})
		for _, d := range diags {
			t.Errorf("%s: %s", name, d)
		}
	}
}

// TestRacesOffByDefault: without Options.Races, no TP06x diagnostics
// appear even on a racy program.
func TestRacesOffByDefault(t *testing.T) {
	p := mustParse(t, racyWriteWrite)
	diags := analysis.VerifyWith(p, analysis.Options{})
	if rd := analysis.RaceDiags(diags); len(rd) != 0 {
		t.Fatalf("race diags without Options.Races: %v", rd)
	}
}

func mustParse(t *testing.T, src string) *tpal.Program {
	t.Helper()
	p, err := asm.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

// raceDiags runs the verifier with the interference pass enabled and
// returns only the TP06x findings.
func raceDiags(t *testing.T, src string, entry ...tpal.Reg) []analysis.Diag {
	t.Helper()
	p := mustParse(t, src)
	return analysis.RaceDiags(analysis.VerifyWith(p, analysis.Options{EntryRegs: entry, Races: true}))
}

// Both branches write cell 1 of the same pre-fork stack.
const racyWriteWrite = `
program racy-ww entry main

block main [.] {
  sp := snew
  salloc sp, 2
  jr := jralloc after
  fork jr, body
  mem[sp + 0] := 1
  join jr
}

block body [.] {
  mem[sp + 0] := 2
  join jr
}

block after [jtppt assoc-comm; {}; comb] {
  halt
}

block comb [.] {
  join jr
}
`

// The child writes a cell the parent reads.
const racyReadWrite = `
program racy-rw entry main

block main [.] {
  sp := snew
  salloc sp, 2
  jr := jralloc after
  fork jr, body
  x := mem[sp + 0]
  join jr
}

block body [.] {
  mem[sp + 0] := 2
  join jr
}

block after [jtppt assoc-comm; {}; comb] {
  halt
}

block comb [.] {
  join jr
}
`

// Race-free variant: the branches write provably distinct cells of the
// shared stack.
const raceFreeSplitCells = `
program racefree-cells entry main

block main [.] {
  sp := snew
  salloc sp, 2
  jr := jralloc after
  fork jr, body
  mem[sp + 0] := 1
  join jr
}

block body [.] {
  mem[sp + 1] := 2
  join jr
}

block after [jtppt assoc-comm; {}; comb] {
  halt
}

block comb [.] {
  join jr
}
`

// Race-free variant: the child works on its own fresh stack while the
// parent keeps the shared one — the corpus promotion-handler shape.
const raceFreePerBranchStacks = `
program racefree-stacks entry main

block main [.] {
  sp := snew
  salloc sp, 2
  cs := snew
  salloc cs, 2
  jr := jralloc after
  fork jr, body
  mem[sp + 0] := 1
  join jr
}

block body [.] {
  mem[cs + 0] := 2
  join jr
}

block after [jtppt assoc-comm; {}; comb] {
  halt
}

block comb [.] {
  join jr
}
`

// A stack pointer escapes to memory before the fork; pointers loaded
// after that are unclassifiable on both sides.
const racyEscape = `
program racy-escape entry main

block main [.] {
  sp := snew
  salloc sp, 2
  ep := snew
  salloc ep, 1
  mem[sp + 0] := ep
  jr := jralloc after
  fork jr, body
  lp := mem[sp + 0]
  mem[lp + 0] := 1
  join jr
}

block body [.] {
  lq := mem[sp + 0]
  mem[lq + 0] := 2
  join jr
}

block after [jtppt assoc-comm; {}; comb] {
  halt
}

block comb [.] {
  join jr
}
`

// Parallel mark-list traffic: the parent splits the mark list of the
// stack whose marked frame the child writes.
const racyMarkSplit = `
program racy-marks entry main

block main [.] {
  sp := snew
  salloc sp, 2
  prmpush mem[sp + 1]
  jr := jralloc after
  fork jr, body
  e := prmempty sp
  if-jump e, done
  prmsplit sp, top
  join jr
}

block done [.] {
  join jr
}

block body [.] {
  mem[sp + 1] := 2
  join jr
}

block after [jtppt assoc-comm; {}; comb] {
  halt
}

block comb [.] {
  join jr
}
`

// The branches share the stack through pointer arithmetic with an
// unknown (register) offset, so cells cannot be separated.
const racySameStackUnknownCells = `
program racy-unknown entry main

block main [.] {
  sp := snew
  salloc sp, 4
  k := 1
  jr := jralloc after
  fork jr, body
  p := sp + k
  mem[p + 0] := 1
  join jr
}

block body [.] {
  mem[sp + 0] := 2
  join jr
}

block after [jtppt assoc-comm; {}; comb] {
  halt
}

block comb [.] {
  join jr
}
`

// Two registers reach the fork holding values from overlapping
// allocation-site sets (one may be a copy of the other), so the pass
// can only prove may-alias.
const racyMayAlias = `
program racy-alias entry main

block main [.] {
  sp := snew
  salloc sp, 2
  t := snew
  salloc t, 2
  n := 0
  if-jump n, meet
  t := sp
  jump meet
}

block meet [.] {
  jr := jralloc after
  fork jr, body
  mem[sp + 0] := 1
  join jr
}

block body [.] {
  mem[t + 0] := 2
  join jr
}

block after [jtppt assoc-comm; {}; comb] {
  halt
}

block comb [.] {
  join jr
}
`

// Race-free variant: the branches write distinct cells before the join
// and the continuation touches the stack only after both branches have
// met — the standard combine-results idiom. The pairing join serializes
// after[0] and comb with both branches, so the pass must stay silent.
const raceFreePostJoin = `
program racefree-postjoin entry main

block main [.] {
  sp := snew
  salloc sp, 2
  jr := jralloc after
  fork jr, body
  mem[sp + 0] := 1
  join jr
}

block body [.] {
  mem[sp + 1] := 2
  join jr
}

block after [jtppt assoc-comm; {}; comb] {
  mem[sp + 0] := 3
  halt
}

block comb [.] {
  mem[sp + 1] := 4
  join jr
}
`

// The parent joins a record that may or may not be the fork's own (jo
// aliases jr on one path), so the write in the continuation may still
// be parallel with the child: flagged, but only as an inseparable
// overlap, never as definite interference.
const racyMayPairJoin = `
program racy-maypair entry main

block main [.] {
  sp := snew
  salloc sp, 2
  jr := jralloc after
  jo := jralloc other
  n := 0
  if-jump n, pick
  jo := jr
  jump pick
}

block pick [.] {
  fork jr, body
  join jo
}

block body [.] {
  mem[sp + 0] := 2
  join jr
}

block after [jtppt assoc-comm; {}; comb] {
  halt
}

block comb [.] {
  join jr
}

block other [jtppt assoc-comm; {}; comb2] {
  mem[sp + 0] := 1
  join jr
}

block comb2 [.] {
  join jo
}
`

// The child's racing write sits in the continuation of an inner,
// branch-local join whose record register is copied onto itself before
// the join: the summary only covers it if the self-move preserves the
// register's record tracking.
const racySelfMoveRecord = `
program racy-selfmove entry main

block main [.] {
  sp := snew
  salloc sp, 2
  jr := jralloc after
  fork jr, body
  mem[sp + 0] := 1
  join jr
}

block body [.] {
  j2 := jralloc bwork
  j2 := j2
  fork j2, bchild
  join j2
}

block bchild [.] {
  join j2
}

block bwork [jtppt assoc-comm; {}; bcomb] {
  mem[sp + 0] := 2
  join jr
}

block bcomb [.] {
  join j2
}

block after [jtppt assoc-comm; {}; comb] {
  halt
}

block comb [.] {
  join jr
}
`

// TestSelfMoveKeepsRecordTracking: a register self-move must not drop
// the walker's join-record tracking, or the inner join stops seeding
// its continuation and the race hiding there escapes the summary.
func TestSelfMoveKeepsRecordTracking(t *testing.T) {
	diags := raceDiags(t, racySelfMoveRecord)
	found := false
	for _, d := range diags {
		if d.Code == analysis.CodeRaceWriteWrite {
			found = true
		}
	}
	if !found {
		t.Errorf("want %s for the post-inner-join write, got %v", analysis.CodeRaceWriteWrite, diags)
	}
}

// TestPostJoinAccessesSerial pins the branch-extent story: accesses
// after a fork's pairing join are serial with the other branch, so the
// combine-results idiom produces no diagnostics at all, and a join
// whose record is only possibly the pairing one demotes a definite
// conflict to a warning instead of suppressing or mis-reporting it.
func TestPostJoinAccessesSerial(t *testing.T) {
	if diags := raceDiags(t, raceFreePostJoin); len(diags) != 0 {
		t.Errorf("combine-results idiom flagged: %v", diags)
	}

	diags := raceDiags(t, racyMayPairJoin)
	sawSameStack := false
	for _, d := range diags {
		if d.Severity == analysis.Error {
			t.Errorf("may-pair join produced a definite race: %s", d)
		}
		if d.Code == analysis.CodeRaceSameStack {
			sawSameStack = true
		}
	}
	if !sawSameStack {
		t.Errorf("may-pair join conflict not flagged as %s: %v", analysis.CodeRaceSameStack, diags)
	}
}

// TestSeededRaces drives each TP06x code with a small counterexample
// and checks the race-free variants stay clean.
func TestSeededRaces(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []analysis.Code // empty = race-free
	}{
		{"write-write", racyWriteWrite, []analysis.Code{analysis.CodeRaceWriteWrite}},
		{"read-write", racyReadWrite, []analysis.Code{analysis.CodeRaceReadWrite}},
		{"split-cells", raceFreeSplitCells, nil},
		{"per-branch-stacks", raceFreePerBranchStacks, nil},
		{"escape", racyEscape, []analysis.Code{analysis.CodeRaceEscape}},
		{"mark-split", racyMarkSplit, []analysis.Code{analysis.CodeRaceMarkList}},
		{"same-stack", racySameStackUnknownCells, []analysis.Code{analysis.CodeRaceSameStack}},
		{"may-alias", racyMayAlias, []analysis.Code{analysis.CodeRaceMayAlias}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diags := raceDiags(t, tc.src)
			got := make(map[analysis.Code]bool)
			for _, d := range diags {
				got[d.Code] = true
			}
			for _, c := range tc.want {
				if !got[c] {
					t.Errorf("want %s, got %v", c, diags)
				}
			}
			if len(tc.want) == 0 && len(diags) != 0 {
				t.Errorf("want race-free, got %v", diags)
			}
		})
	}
}

// Race-free: k is a comparison of the entry register n before it is
// reassigned the child's work label, so the child's indirect jump
// through k can only reach cwork. Entry registers may hold any label,
// but a comparison yields 0 or 1, never one of its operands' labels;
// if the flow facts let k inherit n's labels, the jump would also
// reach pwork and the two writes of cell 0 would look parallel.
const raceFreeComparisonLabel = `
program racefree-cmplabel entry main

block main [.] {
  sp := snew
  salloc sp, 2
  k := n < 2
  k := cwork
  p := pwork
  jr := jralloc after
  fork jr, body
  jump p
}

block pwork [.] {
  mem[sp + 0] := 1
  join jr
}

block body [.] {
  jump k
}

block cwork [.] {
  mem[sp + 1] := 2
  join jr
}

block after [jtppt assoc-comm; {}; comb] {
  halt
}

block comb [.] {
  join jr
}
`

// The parent joins a record it reloaded from memory: jo escapes to the
// stack and comes back as jl. jl names the outer record, not the
// fork's, so the parent's join is a [join-continue] into other, whose
// write of cell 0 is parallel with the child's. The pass sees the
// write only if a load after a record escaped may yield any record.
const racyReloadedRecord = `
program racy-reloaded entry main

block main [.] {
  sp := snew
  salloc sp, 2
  jo := jralloc other
  mem[sp + 1] := jo
  jl := mem[sp + 1]
  jr := jralloc after
  fork jr, body
  join jl
}

block body [.] {
  mem[sp + 0] := 2
  join jr
}

block other [jtppt assoc-comm; {}; comb2] {
  mem[sp + 0] := 1
  join jr
}

block comb2 [.] {
  join jo
}

block after [jtppt assoc-comm; {}; comb] {
  halt
}

block comb [.] {
  join jr
}
`

// TestValueFlowRules pins two rules of the flow-insensitive value
// facts the branch walks start from, each against the dynamic
// sanitizer's verdict on the same program: a comparison result carries
// no label (precision: the race-free program stays clean), and a load
// after a record escaped may yield any record (soundness: the race
// behind a join on a reloaded record is reported).
func TestValueFlowRules(t *testing.T) {
	for _, c := range []struct {
		name  string
		src   string
		entry []tpal.Reg
		racy  bool
	}{
		{"comparison-drops-labels", raceFreeComparisonLabel, []tpal.Reg{"n"}, false},
		{"load-after-record-escape", racyReloadedRecord, nil, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			regs := make(machine.RegFile)
			for _, r := range c.entry {
				regs[r] = machine.IntV(5)
			}
			_, err := machine.Run(mustParse(t, c.src), machine.Config{Regs: regs, RaceDetect: true, SkipVerify: true})
			var re *machine.RaceError
			if dyn := errors.As(err, &re); dyn != c.racy {
				t.Fatalf("dynamic race = %v (err %v), want %v", dyn, err, c.racy)
			}
			if !c.racy && err != nil {
				t.Fatal(err)
			}
			diags := raceDiags(t, c.src, c.entry...)
			if c.racy && len(diags) == 0 {
				t.Errorf("race the sanitizer finds is not reported statically")
			}
			if !c.racy && len(diags) != 0 {
				t.Errorf("want race-free, got %v", diags)
			}
		})
	}
}
