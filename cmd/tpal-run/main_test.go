package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runTool drives the tool through its testable seam and returns the
// exit code plus captured stdout and stderr.
func runTool(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// writeProgram drops TPAL source into a temp file and returns its path.
func writeProgram(t *testing.T, name, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// spinSrc loops n down to zero: a long serial run whose length the
// tests control through -reg n.
const spinSrc = `
program spin entry main

block main [.] {
  jump loop
}

block loop [.] {
  done := n <= 0
  if-jump done, exit
  n := n - 1
  jump loop
}

block exit [.] {
  halt
}
`

// faultSrc executes a join on an integer, a definite machine fault the
// verifier also condemns statically.
const faultSrc = `
program fault entry main

block main [.] {
  jr := 7
  join jr
}
`

func TestExitOK(t *testing.T) {
	path := writeProgram(t, "spin.tpal", spinSrc)
	code, out, errOut := runTool(t, "-reg", "n=10", "-out", "n", path)
	if code != exitOK {
		t.Fatalf("exit code = %d, want %d; stderr: %s", code, exitOK, errOut)
	}
	if !strings.Contains(out, "n = 0") {
		t.Errorf("stdout %q does not report n = 0", out)
	}
}

func TestExitFaultStatic(t *testing.T) {
	path := writeProgram(t, "fault.tpal", faultSrc)
	code, _, errOut := runTool(t, path)
	if code != exitFault {
		t.Fatalf("exit code = %d, want %d (verifier rejection is a fault); stderr: %s", code, exitFault, errOut)
	}
	if !strings.Contains(errOut, "rejected by static verifier") {
		t.Errorf("stderr %q does not mention the verifier", errOut)
	}
}

func TestExitFaultRace(t *testing.T) {
	code, _, errOut := runTool(t, "-race", "../../examples/races/racy.tpal")
	if code != exitFault {
		t.Fatalf("exit code = %d, want %d (the sanitizer's race is a fault); stderr: %s", code, exitFault, errOut)
	}
	if !strings.Contains(errOut, "determinacy race") {
		t.Errorf("stderr %q does not report a determinacy race", errOut)
	}
}

func TestExitBudgetFuel(t *testing.T) {
	path := writeProgram(t, "spin.tpal", spinSrc)
	code, _, errOut := runTool(t, "-reg", "n=1000000", "-fuel", "500", path)
	if code != exitBudget {
		t.Fatalf("exit code = %d, want %d; stderr: %s", code, exitBudget, errOut)
	}
	if !strings.Contains(errOut, "fuel budget exceeded") {
		t.Errorf("stderr %q does not report the fuel budget", errOut)
	}
}

func TestExitBudgetMaxSteps(t *testing.T) {
	path := writeProgram(t, "spin.tpal", spinSrc)
	code, _, errOut := runTool(t, "-reg", "n=1000000", "-max-steps", "500", path)
	if code != exitBudget {
		t.Fatalf("exit code = %d, want %d; stderr: %s", code, exitBudget, errOut)
	}
}

func TestExitTimeout(t *testing.T) {
	path := writeProgram(t, "spin.tpal", spinSrc)
	// 2^40 iterations cannot finish in 50ms; -max-steps lifts the
	// runaway guard so the deadline is what fires.
	code, _, errOut := runTool(t, "-reg", "n=1099511627776", "-max-steps", "1152921504606846976", "-timeout", "50ms", path)
	if code != exitTimeout {
		t.Fatalf("exit code = %d, want %d; stderr: %s", code, exitTimeout, errOut)
	}
	if !strings.Contains(errOut, "interrupted") {
		t.Errorf("stderr %q does not report the interruption", errOut)
	}
}

func TestExitUsage(t *testing.T) {
	if code, _, _ := runTool(t, "-schedule", "sideways", "-builtin", "prod"); code != exitUsage {
		t.Errorf("bad -schedule: exit code = %d, want %d", code, exitUsage)
	}
	if code, _, _ := runTool(t, "no-such-file.tpal"); code != exitUsage {
		t.Errorf("missing file: exit code = %d, want %d", code, exitUsage)
	}
	if code, _, _ := runTool(t, "-reg", "n=notanumber", "-builtin", "fib"); code != exitUsage {
		t.Errorf("bad -reg: exit code = %d, want %d", code, exitUsage)
	}
}

func TestBuiltinStillRuns(t *testing.T) {
	code, out, errOut := runTool(t, "-builtin", "prod", "-reg", "a=21,b=2", "-out", "c")
	if code != exitOK {
		t.Fatalf("exit code = %d, want %d; stderr: %s", code, exitOK, errOut)
	}
	if !strings.Contains(out, "c = 42") {
		t.Errorf("stdout %q does not report c = 42", out)
	}
}

// TestBackendFlag runs the closure-threaded lowering through -backend
// and holds the flag's spelling: an unknown lowering is a usage error.
func TestBackendFlag(t *testing.T) {
	code, out, errOut := runTool(t, "-backend", "compiled", "-builtin", "prod", "-reg", "a=21,b=2", "-out", "c")
	if code != exitOK {
		t.Fatalf("exit code = %d, want %d; stderr: %s", code, exitOK, errOut)
	}
	if !strings.Contains(out, "c = 42") {
		t.Errorf("stdout %q does not report c = 42", out)
	}
	if code, _, _ := runTool(t, "-backend", "bogus", "-builtin", "prod"); code != exitUsage {
		t.Errorf("-backend bogus: exit code = %d, want %d", code, exitUsage)
	}
}

// TestTraceAppendixD pins the Appendix D execution-trace view: prod at
// a=4, b=5 and ♥=6, one line per transition and per task event, with
// the heartbeat redirections, followed by the final registers. The
// expected output lives in testdata/appendix_d_prod.txt.
func TestTraceAppendixD(t *testing.T) {
	code, out, errOut := runTool(t, "-builtin", "prod", "-reg", "a=4,b=5", "-heartbeat", "6", "-trace")
	if code != exitOK {
		t.Fatalf("exit code = %d, want %d; stderr: %s", code, exitOK, errOut)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "appendix_d_prod.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("trace differs from testdata/appendix_d_prod.txt:\n%s", out)
	}
}
