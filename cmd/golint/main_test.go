package main

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func lintSrc(t *testing.T, src string) []string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	return lintFile(fset, f)
}

func TestChecks(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string // substring of exactly one finding; "" = clean
	}{
		{"boolcompare-eq", `package x
func f(b bool) bool { return b == true }`, "boolcompare"},
		{"boolcompare-neq", `package x
func f(b bool) bool { return false != b }`, "boolcompare"},
		{"boolcompare-clean", `package x
func f(b, c bool) bool { return b == c }`, ""},
		{"emptybranch-if", `package x
func f(b bool) { if b { } }`, "emptybranch"},
		{"emptybranch-else", `package x
func f(b bool) { if b { _ = b } else { } }`, "emptybranch"},
		{"sprintfconst", `package x
import "fmt"
func f() string { return fmt.Sprintf("hello") }`, "sprintfconst"},
		{"sprintf-verb-clean", `package x
import "fmt"
func f(n int) string { return fmt.Sprintf("n=%d", n) }`, ""},
		{"lenzero", `package x
func f(a []int) bool { return len(a) >= 0 }`, "lenzero"},
		{"lenzero-clean", `package x
func f(a []int) bool { return len(a) > 0 }`, ""},
		{"deferloop-for", `package x
func f(fs []func()) {
	for i := 0; i < len(fs); i++ {
		defer fs[i]()
	}
}`, "deferloop"},
		{"deferloop-range", `package x
func f(fs []func()) {
	for _, g := range fs {
		defer g()
	}
}`, "deferloop"},
		{"deferloop-funclit-clean", `package x
func f(fs []func()) {
	for _, g := range fs {
		func() { defer g() }()
	}
}`, ""},
		{"deferloop-outside-clean", `package x
func f(g func()) {
	defer g()
	for range make([]int, 3) {
	}
}`, ""},
		{"shadowerr-stale-read", `package x
func open() (int, error) { return 0, nil }
func f() error {
	v, err := open()
	if err != nil {
		return err
	}
	if v > 0 {
		w, err := open()
		_ = w
		_ = err
	}
	return err
}`, "shadowerr"},
		{"shadowerr-naked-return", `package x
func open() (int, error) { return 0, nil }
func f() (err error) {
	if true {
		v, err := open()
		_ = v
		_ = err
	}
	return
}`, "shadowerr"},
		{"shadowerr-guard-clean", `package x
func open() (int, error) { return 0, nil }
func use(int) error { return nil }
func f() error {
	v, err := open()
	if err != nil {
		return err
	}
	if err := use(v); err != nil {
		return err
	}
	return nil
}`, ""},
		{"shadowerr-rewrite-clean", `package x
func open() (int, error) { return 0, nil }
func use(int) error { return nil }
func f() error {
	v, err := open()
	if err != nil {
		return err
	}
	if v > 0 {
		w, err := open()
		_ = w
		_ = err
	}
	err = use(v)
	return err
}`, ""},
		{"shadowerr-sibling-cases-clean", `package x
func open() (int, error) { return 0, nil }
func use2(int) error { return nil }
func f(k int) int {
	switch k {
	case 0:
		v, err := open()
		if err != nil {
			return 1
		}
		if err := use2(v); err != nil {
			return 1
		}
	case 1:
		v, err := open()
		if err != nil {
			return 2
		}
		_ = v
	}
	return 0
}`, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := lintSrc(t, tc.src)
			if tc.want == "" {
				if len(got) != 0 {
					t.Fatalf("want clean, got %v", got)
				}
				return
			}
			if len(got) != 1 || !strings.Contains(got[0], tc.want) {
				t.Fatalf("want one %q finding, got %v", tc.want, got)
			}
		})
	}
}
