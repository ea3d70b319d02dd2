package analysis_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"tpal/internal/minipar"
	"tpal/internal/tpal"
	"tpal/internal/tpal/analysis"
	"tpal/internal/tpal/asm"
)

var updateRaceGolden = flag.Bool("update", false, "rewrite testdata/race_golden.json from the current analysis")

const raceGoldenPath = "testdata/race_golden.json"

// raceGroup is one digest of the race fixture: a named list of programs
// with the entry registers each is analyzed under.
type raceGroup struct {
	name  string
	progs []*tpal.Program
	entry []tpal.Reg
}

// raceGoldenGroups builds the fixture's programs: every distinct
// structured mutation of the three corpus programs (one group per seed
// and mutation kind), the race test sources, every checked-in TPAL
// example, and every minipar sample and autopar example compiled raw
// with its parameters as entry registers (one group per file).
func raceGoldenGroups(t *testing.T) []raceGroup {
	t.Helper()
	var groups []raceGroup
	seen := make(map[string]bool)
	for _, seed := range fuzzSeeds {
		var entry []tpal.Reg
		for r := range seed.regs {
			entry = append(entry, r)
		}
		slices.Sort(entry)
		base := mustParse(t, seed.src)
		for kind := uint8(0); kind < 5; kind++ {
			g := raceGroup{name: fmt.Sprintf("mutant/%s/kind%d", seed.name, kind), entry: entry}
			for bi, b := range base.Blocks {
				// mutate reads instrIdx modulo the block's length and
				// modulo the block count, so this range reaches every
				// mutant of the block.
				for ii := 0; ii < max(len(b.Instrs), len(base.Blocks)); ii++ {
					p := mustParse(t, seed.src)
					mutate(p, kind, uint8(bi), uint8(ii))
					key := tpal.Fingerprint(p) + fmt.Sprint(entry)
					if seen[key] {
						continue
					}
					seen[key] = true
					g.progs = append(g.progs, p)
				}
			}
			groups = append(groups, g)
		}
	}
	for _, c := range []struct{ name, src string }{
		{"racyWriteWrite", racyWriteWrite},
		{"racyReadWrite", racyReadWrite},
		{"raceFreeSplitCells", raceFreeSplitCells},
		{"raceFreePerBranchStacks", raceFreePerBranchStacks},
		{"racyEscape", racyEscape},
		{"racyMarkSplit", racyMarkSplit},
		{"racySameStackUnknownCells", racySameStackUnknownCells},
		{"racyMayAlias", racyMayAlias},
		{"raceFreePostJoin", raceFreePostJoin},
		{"racyMayPairJoin", racyMayPairJoin},
		{"racySelfMoveRecord", racySelfMoveRecord},
	} {
		groups = append(groups, raceGroup{name: "source/" + c.name, progs: []*tpal.Program{mustParse(t, c.src)}})
	}
	tpals, err := filepath.Glob("../../../examples/*/*.tpal")
	if err != nil || len(tpals) == 0 {
		t.Fatalf("no example TPAL programs found: %v", err)
	}
	for _, f := range tpals {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		p, err := asm.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		groups = append(groups, raceGroup{name: exampleName(f), progs: []*tpal.Program{p}})
	}
	mps, err := filepath.Glob("../../minipar/testdata/*.mp")
	if err != nil {
		t.Fatal(err)
	}
	autos, err := filepath.Glob("../../../examples/*/*.mp")
	if err != nil {
		t.Fatal(err)
	}
	if len(mps) == 0 || len(autos) == 0 {
		t.Fatalf("found %d minipar samples and %d minipar examples", len(mps), len(autos))
	}
	for _, f := range append(mps, autos...) {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := minipar.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		var entry []tpal.Reg
		for _, p := range prog.Params {
			entry = append(entry, tpal.Reg(p))
		}
		raw, err := minipar.CompileRaw(prog)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		groups = append(groups, raceGroup{name: exampleName(f), progs: []*tpal.Program{raw}, entry: entry})
	}
	return groups
}

// exampleName keys a file by its directory and base name.
func exampleName(f string) string {
	return filepath.Base(filepath.Dir(f)) + "/" + filepath.Base(f)
}

// TestRaceGolden holds the full diagnostic output of Analyze with the
// interference pass on to one SHA-256 per group, over several hundred
// programs, so any drift in a race verdict, its severity or its message
// shows up here. FuzzRaceAgreement checks only that the static pass
// covers the dynamic sanitizer; this pins its exact output.
//
// Regenerate with
//
//	go test ./internal/tpal/analysis -run TestRaceGolden -update
//
// only when a race-pass verdict change is intended.
func TestRaceGolden(t *testing.T) {
	got := make(map[string]string)
	programs, races := 0, 0
	for _, g := range raceGoldenGroups(t) {
		h := sha256.New()
		for i, p := range g.progs {
			r := analysis.Analyze(p, analysis.Options{EntryRegs: g.entry, Races: true})
			diags := make([]string, len(r.Diags))
			for j, d := range r.Diags {
				diags[j] = d.String()
			}
			slices.Sort(diags)
			fmt.Fprintf(h, "program %d\n%s\n", i, strings.Join(diags, "\n"))
			programs++
			races += len(analysis.RaceDiags(r.Diags))
		}
		got[g.name] = hex.EncodeToString(h.Sum(nil))
	}
	t.Logf("%d groups, %d programs, %d race diagnostics", len(got), programs, races)

	if *updateRaceGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(raceGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(raceGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name, d := range got {
		if want[name] != d {
			t.Errorf("%s: race diagnostics digest %s, want %s", name, d, want[name])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: in the fixture but no longer generated", name)
		}
	}
}
