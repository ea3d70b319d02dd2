package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"tpal/internal/tpal"
	"tpal/internal/tpal/programs"
)

var updateAdmissionGolden = flag.Bool("update", false, "rewrite the digests in testdata/admission_golden.json from the current pipeline")

const admissionGoldenPath = "testdata/admission_golden.json"

// admissionGolden is the fixture: the random minipar programs the cases
// submit (TestDifferentialRandomPrograms' generator, trials 0–19, kept
// as text because the generator lives in another package's tests) and
// one digest per case.
type admissionGolden struct {
	Random  []string          `json:"random"`
	Digests map[string]string `json:"digests"`
}

// admissionCase is one submission of the fixture.
type admissionCase struct {
	name string
	req  SubmitRequest
}

// admissionCases lists the fixture's submissions: the paper corpus with
// arguments, every checked-in TPAL example (rejections included), every
// minipar sample and autopar example with auto_parallelize off and on,
// the four serve-admit templates at fixed constants, the random
// programs, and one submission carrying an argument that is not a
// declared param.
func admissionCases(t *testing.T, random []string) []admissionCase {
	t.Helper()
	var cases []admissionCase
	add := func(name string, req SubmitRequest) {
		cases = append(cases, admissionCase{name, req})
	}
	add("corpus/prod", SubmitRequest{Source: programs.ProdSource, Args: map[string]int64{"a": 6, "b": 7}})
	add("corpus/pow", SubmitRequest{Source: programs.PowSource, Args: map[string]int64{"d": 3, "e": 4}})
	add("corpus/fib", SubmitRequest{Source: programs.FibSource, Args: map[string]int64{"n": 10}})

	read := func(f string) string {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		return string(src)
	}
	tpals, err := filepath.Glob("../../examples/*/*.tpal")
	if err != nil || len(tpals) == 0 {
		t.Fatalf("no example TPAL programs found: %v", err)
	}
	for _, f := range tpals {
		add("examples/"+filepath.Base(filepath.Dir(f))+"/"+filepath.Base(f), SubmitRequest{Lang: "tpal", Source: read(f)})
	}

	mps, err := filepath.Glob("../minipar/testdata/*.mp")
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
		src := read(f)
		name := filepath.Base(filepath.Dir(f)) + "/" + filepath.Base(f)
		args := paramArgs(src)
		add(name, SubmitRequest{Lang: "minipar", Source: src, Args: args})
		add(name+"/auto", SubmitRequest{Lang: "minipar", Source: src, Args: args, AutoParallelize: true})
	}

	for _, tpl := range []struct{ name, src string }{
		{"nest1", "params n\nvar total = 1001\nparfor i in 0 .. n reduce(total, +) {\n    var t = i * 17 + 300\n    total = total + t\n}\nreturn total\n"},
		{"nest2", "params n\nvar total = 1002\nparfor i in 0 .. n reduce(total, +) {\n    parfor j in 0 .. n reduce(total, +) {\n        total = total + (i * 31 + j + 400) % 7\n    }\n}\nreturn total\n"},
		{"reduce-mul", "params n\nvar p = 1003\nparfor i in 0 .. n reduce(p, *) {\n    p = p * 3\n}\nreturn p\n"},
		{"parcall", "params n\n\nfunc f(m) {\n  if m < 2 { return m + 1004 }\n  parcall a, b = f(m - 1), f(m - 2)\n  return a + b + 55\n}\n\nvar r = 0\nr = call f(n)\nreturn r\n"},
	} {
		add("serve-admit/"+tpl.name, SubmitRequest{Lang: "minipar", Source: tpl.src, Args: map[string]int64{"n": 5}})
	}

	for i, src := range random {
		add(fmt.Sprintf("random/%02d", i), SubmitRequest{Lang: "minipar", Source: src,
			Args: map[string]int64{"p0": int64(7 * i % 30), "p1": int64(11 * i % 30)}})
	}

	add("extra-arg/sumsquares.mp", SubmitRequest{Lang: "minipar", Source: read("../minipar/testdata/sumsquares.mp"),
		Args: map[string]int64{"n": 6, "extra": 9}})
	return cases
}

// paramArgs gives every param a minipar source declares a small
// argument: 4, 5, 6, ... in declaration order.
func paramArgs(src string) map[string]int64 {
	args := make(map[string]int64)
	for _, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "params ") {
			continue
		}
		for i, p := range strings.Split(strings.TrimPrefix(line, "params "), ",") {
			args[strings.TrimSpace(p)] = int64(4 + i)
		}
		break
	}
	return args
}

// admissionDigest submits one case to a fresh single-worker service and
// hashes everything the admission decided and the run produced: the
// submission error or the job's status, reason and rejection
// diagnostics; the cached verdict's diagnostics; the quote; the
// fingerprint of the program the executor ran; the autopar report; and
// the result registers and stats. For non-autopar cases it then hashes
// the /v1/analyze response for the same program and argument
// registers, which carries the submitted program's latency and bounds.
func admissionDigest(t *testing.T, c admissionCase) string {
	t.Helper()
	h := sha256.New()
	admissionRun(t, h, c)
	return hex.EncodeToString(h.Sum(nil))
}

func admissionRun(t *testing.T, h hash.Hash, c admissionCase) {
	t.Helper()
	s := New(Config{Workers: 1})
	defer s.Drain(context.Background())
	ran := make(chan string, 1)
	s.setRunningHook(func(j *Job) { ran <- tpal.Fingerprint(j.prog) })

	j, err := s.Submit(c.req)
	if err != nil {
		fmt.Fprintf(h, "error %v\n", err)
		return
	}
	v := await(t, j)
	fmt.Fprintf(h, "status %s\nreason %q\n", v.Status, v.Error)
	hashJSON(t, h, "diags", v.Diags)
	var verdicts []*admission
	s.mu.Lock()
	for _, el := range s.admissions.entries {
		verdicts = append(verdicts, el.Value.(*storeEntry[*admission]).val)
	}
	s.mu.Unlock()
	if len(verdicts) != 1 {
		t.Fatalf("%s: %d cached admissions, want 1", c.name, len(verdicts))
	}
	hashJSON(t, h, "verdict-diags", verdicts[0].diags)
	hashJSON(t, h, "quote", v.Quote)
	select {
	case fp := <-ran:
		fmt.Fprintf(h, "ran %s\n", fp)
	default:
		fmt.Fprint(h, "ran nothing\n")
	}
	hashJSON(t, h, "autopar", v.Autopar)
	hashJSON(t, h, "result", v.Result)
	hashJSON(t, h, "stats", v.Stats)

	if !c.req.AutoParallelize {
		var entry []string
		for k := range c.req.Args {
			entry = append(entry, k)
		}
		sort.Strings(entry)
		body, err := json.Marshal(AnalyzeRequest{Lang: c.req.Lang, Source: c.req.Source, Entry: entry})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(string(body))))
		fmt.Fprintf(h, "analyze %d %s\n", rec.Code, rec.Body.String())
	}
}

func hashJSON(t *testing.T, h hash.Hash, label string, v any) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "%s %s\n", label, data)
}

// TestAdmissionGolden holds what the daemon decides and runs for 55
// submissions to digests recorded at commit 7555f6d, the last commit
// whose daemon could also run jobs on the compiled lowering. The digests
// were generated there, hashing the default (interpreter) daemon only,
// with
//
//	go test ./internal/serve -run TestAdmissionGolden -update
//
// so any drift in a verdict, a quote, the program that runs or its
// result shows up here. Regenerating them is a deliberate act.
func TestAdmissionGolden(t *testing.T) {
	data, err := os.ReadFile(admissionGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden admissionGolden
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	cases := admissionCases(t, golden.Random)
	if *updateAdmissionGolden {
		golden.Digests = make(map[string]string)
		for _, c := range cases {
			golden.Digests[c.name] = admissionDigest(t, c)
		}
		out, err := json.MarshalIndent(golden, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(admissionGoldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, c := range cases {
		want, ok := golden.Digests[c.name]
		if !ok {
			t.Errorf("%s: not in fixture", c.name)
			continue
		}
		if got := admissionDigest(t, c); got != want {
			t.Errorf("%s: digest %s, fixture %s", c.name, got, want)
		}
	}
	if len(cases) != len(golden.Digests) {
		t.Errorf("fixture has %d cases, suite has %d", len(golden.Digests), len(cases))
	}
}
