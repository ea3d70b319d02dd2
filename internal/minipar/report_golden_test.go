package minipar

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"tpal/internal/tpal"
	"tpal/internal/tpal/analysis"
	"tpal/internal/tpal/asm"
	"tpal/internal/tpal/programs"
)

var updateReportGolden = flag.Bool("update", false, "rewrite testdata/report_golden.json from the current analysis")

const reportGoldenPath = "testdata/report_golden.json"

// reportCase is one program of the report fixture with the entry
// registers its embedder initializes.
type reportCase struct {
	name  string
	prog  *tpal.Program
	entry []tpal.Reg
}

// eachReportCase feeds visit the fixture's programs one at a time: the
// paper corpus with and without its entry registers, every checked-in
// TPAL example, every minipar sample and autopar example at both
// compile stages, and the random programs of
// TestDifferentialRandomPrograms at both stages.
func eachReportCase(t *testing.T, visit func(reportCase)) {
	t.Helper()
	corpusEntry := map[string][]tpal.Reg{"prod": {"a", "b"}, "pow": {"d", "e"}, "fib": {"n"}}
	for _, name := range []string{"prod", "pow", "fib"} {
		p := programs.All()[name]
		visit(reportCase{"corpus/" + name + "/entry", p, corpusEntry[name]})
		visit(reportCase{"corpus/" + name + "/bare", p, nil})
	}
	tpals, err := filepath.Glob("../../examples/*/*.tpal")
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
		visit(reportCase{"examples/" + filepath.Base(filepath.Dir(f)) + "/" + filepath.Base(f), p, nil})
	}
	both := func(name, src string) {
		prog, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		entry := make([]tpal.Reg, len(prog.Params))
		for i, p := range prog.Params {
			entry[i] = tpal.Reg(p)
		}
		raw, err := CompileRaw(prog)
		if err != nil {
			t.Fatalf("%s: compile raw: %v", name, err)
		}
		opt, err := Compile(prog)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		visit(reportCase{name + "/raw", raw, entry})
		visit(reportCase{name + "/opt", opt, entry})
	}
	mps, err := filepath.Glob("testdata/*.mp")
	if err != nil {
		t.Fatal(err)
	}
	autos, err := filepath.Glob("../../examples/autopar/*.mp")
	if err != nil {
		t.Fatal(err)
	}
	if len(mps) != 5 || len(autos) == 0 {
		t.Fatalf("found %d minipar samples and %d autopar examples", len(mps), len(autos))
	}
	for _, f := range append(mps, autos...) {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		both(filepath.Base(filepath.Dir(f))+"/"+filepath.Base(f), string(src))
	}
	for trial := 0; trial < 60; trial++ {
		g := &progGen{rng: rand.New(rand.NewSource(int64(trial) * 7919))}
		both(fmt.Sprintf("random/%02d", trial), g.generate())
	}
}

// reportDigest hashes every field of the program's Report, with the
// interference pass off and on.
func reportDigest(c reportCase) string {
	h := sha256.New()
	for _, races := range []bool{false, true} {
		r := analysis.Analyze(c.prog, analysis.Options{EntryRegs: c.entry, Races: races})
		hashReport(h, r)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashReport(h hash.Hash, r *analysis.Report) {
	diags := make([]string, len(r.Diags))
	for i, d := range r.Diags {
		diags[i] = d.String()
	}
	sort.Strings(diags)
	for _, d := range diags {
		fmt.Fprintf(h, "diag %s\n", d)
	}
	fmt.Fprintf(h, "latency %d %d\n", r.Latency.Class, r.Latency.Bound)
	ex := exprHasher{}
	var loops func([]*analysis.Loop)
	loops = func(ls []*analysis.Loop) {
		for _, l := range ls {
			fmt.Fprintf(h, "loop %s %v %d %d %x %x %d %d %d\n", l.Header, l.Blocks, l.Depth, l.Class,
				ex.sum(l.Work), ex.sum(l.Span), l.Trip.Kind, l.Trip.Lo, l.Trip.Hi)
			loops(l.Children)
			fmt.Fprintf(h, "end %s\n", l.Header)
		}
	}
	loops(r.Loops)
	fmt.Fprintf(h, "cost %x %x %x %x\n", ex.sum(r.Work), ex.sum(r.Span), ex.sum(r.NumWork), ex.sum(r.NumSpan))
	heads := make([]string, 0, len(r.Trips))
	for l := range r.Trips {
		heads = append(heads, string(l))
	}
	sort.Strings(heads)
	for _, l := range heads {
		tb := r.Trips[tpal.Label(l)]
		fmt.Fprintf(h, "trip %s %d %d %d\n", l, tb.Kind, tb.Lo, tb.Hi)
	}
	for _, b := range r.Branches {
		fmt.Fprintf(h, "branch %s %d %d\n", b.Block, b.Instr, b.Fate)
	}
}

// exprHasher digests cost expressions structurally, one visit per node
// (they are DAGs). Operands of +, × and max are hashed as a sorted
// multiset: construction order follows map iteration in the cost pass.
type exprHasher map[*analysis.Expr][sha256.Size]byte

func (m exprHasher) sum(e *analysis.Expr) [sha256.Size]byte {
	if d, ok := m[e]; ok {
		return d
	}
	h := sha256.New()
	if e == nil {
		h.Write([]byte("nil"))
	} else {
		var k [8]byte
		binary.LittleEndian.PutUint64(k[:], uint64(e.K))
		fmt.Fprintf(h, "%d %q ", e.Kind, e.Loop)
		h.Write(k[:])
		args := make([][sha256.Size]byte, len(e.Args))
		for i, a := range e.Args {
			args[i] = m.sum(a)
		}
		sort.Slice(args, func(i, j int) bool { return string(args[i][:]) < string(args[j][:]) })
		for _, a := range args {
			h.Write(a[:])
		}
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	m[e] = d
	return d
}

// TestReportGolden holds every field of the analysis report to digests
// recorded before the abstract states moved from register-keyed maps to
// slot vectors, so any drift in diagnostics, latency, the loop forest,
// the cost bounds, trip bounds or branch facts shows up here. The
// fixture was generated at commit 839cb1e with
//
//	go test ./internal/minipar -run TestReportGolden -update
//
// plus only the node-memoized Subst/Eval/Trips walks: without them
// random/44 does not fit in 4.5 GB. The other 151 digests are
// identical with and without the memo.
//
// Regenerating it is a deliberate act: a digest change means some
// analysis verdict changed.
func TestReportGolden(t *testing.T) {
	if *updateReportGolden {
		golden := make(map[string]string)
		eachReportCase(t, func(c reportCase) { golden[c.name] = reportDigest(c) })
		data, err := json.MarshalIndent(golden, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(reportGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(reportGoldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	var golden map[string]string
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	n := 0
	eachReportCase(t, func(c reportCase) {
		n++
		want, ok := golden[c.name]
		if !ok {
			t.Errorf("%s: not in fixture", c.name)
			return
		}
		if got := reportDigest(c); got != want {
			t.Errorf("%s: digest %s, fixture %s", c.name, got, want)
		}
	})
	if n != len(golden) {
		t.Errorf("fixture has %d cases, suite has %d", len(golden), n)
	}
}
