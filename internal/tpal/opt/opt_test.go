package opt_test

import (
	"os"
	"path/filepath"

	"testing"

	"tpal/internal/minipar"
	"tpal/internal/tpal"
	"tpal/internal/tpal/analysis"
	"tpal/internal/tpal/asm"
	"tpal/internal/tpal/machine"
	"tpal/internal/tpal/opt"
	"tpal/internal/tpal/opt/equiv"
	"tpal/internal/tpal/programs"
)

// optSeeds pairs each paper program with entry registers, harness
// values, and its documented result register.
var optSeeds = []struct {
	name   string
	src    string
	regs   map[tpal.Reg]int64
	result tpal.Reg
}{
	{"prod", programs.ProdSource, map[tpal.Reg]int64{"a": 6, "b": 7}, "c"},
	{"pow", programs.PowSource, map[tpal.Reg]int64{"d": 2, "e": 5}, "f"},
	{"fib", programs.FibSource, map[tpal.Reg]int64{"n": 10}, "f"},
}

func seedEntryRegs(regs map[tpal.Reg]int64) ([]tpal.Reg, machine.RegFile) {
	entry := make([]tpal.Reg, 0, len(regs))
	file := make(machine.RegFile)
	for r, v := range regs {
		entry = append(entry, r)
		file[r] = machine.IntV(v)
	}
	return entry, file
}

// TestOptimizedBuiltinsEquivalent is the dynamic half of the
// translation-validation contract on the paper programs: the optimized
// program must produce the same result register as the original under
// every schedule in the matrix, race sanitizer on.
func TestOptimizedBuiltinsEquivalent(t *testing.T) {
	for _, seed := range optSeeds {
		t.Run(seed.name, func(t *testing.T) {
			orig := asm.MustParse(seed.src)
			entry, file := seedEntryRegs(seed.regs)
			res, err := opt.Optimize(orig, opt.Options{EntryRegs: entry})
			if err != nil {
				t.Fatal(err)
			}
			if err := equiv.Certify(orig, res.Program, file, []tpal.Reg{seed.result}); err != nil {
				t.Fatalf("optimized %s not equivalent: %v", seed.name, err)
			}
		})
	}
}

// TestOptimizedMiniparCorpusEquivalent runs every minipar corpus
// program through the raw compiler and the optimizer and certifies
// dynamic equivalence of the result register across the schedule
// matrix.
func TestOptimizedMiniparCorpusEquivalent(t *testing.T) {
	args := map[string][]int64{
		"fib.mp":         {8},
		"mixed.mp":       {7},
		"prod-pow.mp":    {3, 2},
		"sumsquares.mp":  {20},
		"triple-nest.mp": {4},
	}
	files, err := filepath.Glob("../../minipar/testdata/*.mp")
	if err != nil || len(files) == 0 {
		t.Fatalf("minipar corpus missing: %v (%d files)", err, len(files))
	}
	for _, path := range files {
		t.Run(filepath.Base(path), func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			mp, err := minipar.Parse(string(src))
			if err != nil {
				t.Fatal(err)
			}
			raw, err := minipar.CompileRaw(mp)
			if err != nil {
				t.Fatal(err)
			}
			entry := make([]tpal.Reg, len(mp.Params))
			file := make(machine.RegFile)
			vals := args[filepath.Base(path)]
			if len(vals) != len(mp.Params) {
				t.Fatalf("argument table out of date: %d params, %d values", len(mp.Params), len(vals))
			}
			for i, name := range mp.Params {
				entry[i] = tpal.Reg(name)
				file[tpal.Reg(name)] = machine.IntV(vals[i])
			}
			res, err := opt.Optimize(raw, opt.Options{EntryRegs: entry, LiveOut: []tpal.Reg{"result"}})
			if err != nil {
				t.Fatal(err)
			}
			if err := equiv.Certify(raw, res.Program, file, []tpal.Reg{"result"}); err != nil {
				t.Fatalf("optimized %s not equivalent: %v", filepath.Base(path), err)
			}
		})
	}
}

// TestGoldenOptimizedCorpus pins the optimizer's exact output on the
// corpus — the .opt.tpal files are the certified optimized forms — and
// checks idempotence: optimizing an optimized program changes nothing.
// Regenerate the goldens with UPDATE_OPT_GOLDEN=1 go test ./internal/tpal/opt.
func TestGoldenOptimizedCorpus(t *testing.T) {
	for _, seed := range optSeeds {
		t.Run(seed.name, func(t *testing.T) {
			entry, _ := seedEntryRegs(seed.regs)
			res, err := opt.Optimize(asm.MustParse(seed.src), opt.Options{EntryRegs: entry})
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, seed.name, res.Program, opt.Options{EntryRegs: entry})
		})
	}
	t.Run("sumsquares.mp", func(t *testing.T) {
		src, err := os.ReadFile("../../minipar/testdata/sumsquares.mp")
		if err != nil {
			t.Fatal(err)
		}
		mp, err := minipar.Parse(string(src))
		if err != nil {
			t.Fatal(err)
		}
		// Compile runs the optimizer itself; the golden pins its output.
		prog, err := minipar.Compile(mp)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "sumsquares", prog, opt.Options{EntryRegs: []tpal.Reg{"n"}, LiveOut: []tpal.Reg{"result"}})
	})
}

func checkGolden(t *testing.T, name string, p *tpal.Program, opts opt.Options) {
	t.Helper()
	path := filepath.Join("testdata", name+".opt.tpal")
	got := p.String()
	if os.Getenv("UPDATE_OPT_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("optimized %s diverged from %s:\n--- got ---\n%s\n--- want ---\n%s", name, path, got, want)
	}
	// Idempotence: the optimized program is a fixpoint of the pipeline.
	again, err := opt.Optimize(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if again.Rewrites() != 0 {
		t.Errorf("optimizer not idempotent on %s: %d further rewrites\n%s", name, again.Rewrites(), again.Table())
	}
	if again.Program.String() != got {
		t.Errorf("re-optimizing %s changed the program", name)
	}
}

// TestEquivCatchesUnsoundRewrite pins the dynamic certifier's teeth: a
// miscompiled fold — one operator flipped — must fail schedule-matrix
// equivalence even though it is structurally valid and verifier-clean.
func TestEquivCatchesUnsoundRewrite(t *testing.T) {
	orig := programs.Prod()
	broken := asm.MustParse(programs.ProdSource)
	done := false
	for _, b := range broken.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Kind == tpal.IBinOp && b.Instrs[i].Op == tpal.OpAdd && !done {
				b.Instrs[i].Op = tpal.OpSub
				done = true
			}
		}
	}
	if !done {
		t.Fatal("no add instruction found to break")
	}
	if errs := analysis.Errors(analysis.Verify(broken)); len(errs) > 0 {
		t.Fatalf("broken program must still verify (the static certifier cannot see it): %v", errs)
	}
	_, file := seedEntryRegs(map[tpal.Reg]int64{"a": 6, "b": 7})
	if err := equiv.Certify(orig, broken, file, []tpal.Reg{"c"}); err == nil {
		t.Fatal("equivalence certifier must catch a flipped operator")
	}
}

// FuzzOpt fuzzes the whole certified pipeline over mutated corpus
// programs. For every mutant the optimizer must (1) never panic,
// (2) produce a structurally valid program, (3) never mint new
// Error-severity diagnostics, (4) be idempotent, and (5) preserve the
// serial elaboration exactly — with heartbeat off neither prppt
// removal nor any accepted rewrite may change any register the
// original run produced.
func FuzzOpt(f *testing.F) {
	for pi := range optSeeds {
		for kind := uint8(0); kind < 5; kind++ {
			f.Add(uint8(pi), kind, uint8(0), uint8(0))
			f.Add(uint8(pi), kind, uint8(3), uint8(1))
			f.Add(uint8(pi), kind, uint8(7), uint8(2))
		}
	}
	f.Fuzz(func(t *testing.T, progIdx, kind, blockIdx, instrIdx uint8) {
		seed := optSeeds[int(progIdx)%len(optSeeds)]
		p, err := asm.Parse(seed.src)
		if err != nil {
			t.Fatalf("corpus program %s failed to parse: %v", seed.name, err)
		}
		mutateProgram(p, kind, blockIdx, instrIdx)
		if p.Validate() != nil {
			return // structurally broken mutants are the assembler's problem
		}
		entry, file := seedEntryRegs(seed.regs)
		if analysis.HasErrors(analysis.VerifyWith(p, analysis.Options{EntryRegs: entry})) {
			return // the optimizer only accepts verified programs
		}
		res, err := opt.Optimize(p, opt.Options{EntryRegs: entry})
		if err != nil {
			t.Fatalf("Optimize refused a verified program: %v", err)
		}
		if err := res.Program.Validate(); err != nil {
			t.Fatalf("optimized program invalid: %v\n%s", err, res.Program)
		}
		if analysis.HasErrors(analysis.Analyze(res.Program, analysis.Options{EntryRegs: entry, Races: true}).Diags) {
			t.Fatalf("optimizer minted verifier errors:\n%s", res.Program)
		}
		again, err := opt.Optimize(res.Program, opt.Options{EntryRegs: entry})
		if err != nil {
			t.Fatal(err)
		}
		if again.Rewrites() != 0 {
			t.Fatalf("optimizer not idempotent (%d further rewrites):\n%s", again.Rewrites(), res.Program)
		}

		// Serial oracle: heartbeat off, full register files must agree.
		cfg := machine.Config{SkipVerify: true, MaxSteps: 300_000, Regs: file.Clone()}
		want, err := machine.Run(p, cfg)
		if err != nil {
			return // non-halting or faulting mutants have no serial oracle
		}
		cfg.Regs = file.Clone()
		got, err := machine.Run(res.Program, cfg)
		if err != nil {
			t.Fatalf("original halts serially but optimized fails: %v\n%s", err, res.Program)
		}
		for r, v := range want.Regs {
			if gv, ok := got.Regs[r]; !ok || gv.String() != v.String() {
				t.Fatalf("serial divergence at %s: original %s, optimized %v\n%s", r, v, got.Regs[r], res.Program)
			}
		}
	})
}

// mutateProgram mirrors the structured mutations of the analysis and
// machine fuzzers: dropped instructions, lost terminators, retargeted
// labels, unbalanced stack ops.
func mutateProgram(p *tpal.Program, kind, blockIdx, instrIdx uint8) {
	if len(p.Blocks) == 0 {
		return
	}
	b := p.Blocks[int(blockIdx)%len(p.Blocks)]
	switch kind % 5 {
	case 0:
		// No mutation.
	case 1:
		if len(b.Instrs) > 0 {
			i := int(instrIdx) % len(b.Instrs)
			b.Instrs = append(b.Instrs[:i:i], b.Instrs[i+1:]...)
		}
	case 2:
		b.Term = tpal.Term{Kind: tpal.THalt}
	case 3:
		to := p.Blocks[int(instrIdx)%len(p.Blocks)].Label
		for i := range b.Instrs {
			if b.Instrs[i].Val.Kind == tpal.OperLabel {
				b.Instrs[i].Val = tpal.L(to)
				return
			}
		}
		if b.Term.Val.Kind == tpal.OperLabel {
			b.Term.Val = tpal.L(to)
		}
	case 4:
		for i := range b.Instrs {
			k := b.Instrs[i].Kind
			if k == tpal.ISAlloc || k == tpal.ISFree {
				b.Instrs[i].Off++
				return
			}
		}
	}
}

// TestOptimizeTableDeterministic pins the optimizer's report across
// runs: a rejected prppt removal that would surface several new
// diagnostic kinds names the first in sorted order, not in map order
// (removing pow's loop prppt adds both a TP050 and a TP052).
func TestOptimizeTableDeterministic(t *testing.T) {
	var want string
	for i := 0; i < 20; i++ {
		res, err := opt.Optimize(programs.Pow(), opt.Options{EntryRegs: []tpal.Reg{"d", "e"}})
		if err != nil {
			t.Fatal(err)
		}
		got := res.Table()
		if i == 0 {
			want = got
		} else if got != want {
			t.Fatalf("run %d renders a different table:\n%s\nrun 0:\n%s", i, got, want)
		}
	}
}
