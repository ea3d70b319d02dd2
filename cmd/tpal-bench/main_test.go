package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun drives the whole tool through its seam. The exit-1 rows pin
// the fix for a user typo reaching a panic: an unknown -bench used to
// die with a goroutine dump instead of one line on stderr.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		args     string
		code     int
		stdout   string // substring wanted on stdout; "" wants stdout empty
		outLines int    // lines wanted on stdout, when nonzero
		errLines int    // lines wanted on stderr
	}{
		{args: "-list", stdout: "fig15a ", outLines: 13},
		{args: "-exp nosuch", code: 1, errLines: 1},
		{args: "-bench nosuch -exp fig6", code: 1, errLines: 1},
		{args: "-exp fig15a -scale 0.02 -reps 1 -bench plus-reduce-array", stdout: "== fig15a:"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(tc.args), &stdout, &stderr)
		out, errs := stdout.String(), stderr.String()
		if code != tc.code || strings.Count(errs, "\n") != tc.errLines {
			t.Errorf("%s: exit %d with stderr %q, want exit %d and %d line(s)", tc.args, code, errs, tc.code, tc.errLines)
		}
		if !strings.Contains(out, tc.stdout) || (tc.stdout == "") != (out == "") ||
			(tc.outLines != 0 && strings.Count(out, "\n") != tc.outLines) {
			t.Errorf("%s: stdout wants %q (%d lines), got:\n%s", tc.args, tc.stdout, tc.outLines, out)
		}
	}
}
