package minipar

import (
	"fmt"
	"strings"
	"testing"
)

// inspectLog renders Inspect's visit sequence: one entry per statement,
// with its position, the variables of its own expressions (through
// ExprVars), and the names it declares and writes.
func inspectLog(ss []Stmt) string {
	var out []string
	Inspect(ss, func(s Stmt, sh Shape) bool {
		var vars []string
		for _, e := range sh.Exprs {
			ExprVars(e, func(v VarRef) { vars = append(vars, v.Name) })
		}
		out = append(out, fmt.Sprintf("%T@%s(%s)d%vw%v",
			s, sh.Pos, strings.Join(vars, " "), sh.Declares, sh.Writes))
		return true
	})
	return strings.Join(out, "; ")
}

func TestInspectVisitOrder(t *testing.T) {
	at := func(line int) Pos { return Pos{Line: line, Col: line + 1} }
	v := func(name string) Expr { return VarRef{Name: name} }
	bin := func(l, r Expr) Expr { return Binary{Op: OpAdd, L: l, R: r} }
	// Every statement kind, with compound ones empty. Expressions hold
	// several variables so ExprVars' left-to-right order shows.
	leaves := []struct {
		name string
		s    Stmt
		want string
	}{
		{"var", VarDecl{Name: "x", Init: bin(v("a"), bin(IntLit{Value: 1}, v("b"))), Pos: at(1)},
			"minipar.VarDecl@1:2(a b)d[x]w[]"},
		{"assign", Assign{Name: "x", Expr: bin(bin(v("a"), v("b")), v("c")), Pos: at(2)},
			"minipar.Assign@2:3(a b c)d[]w[x]"},
		{"if", If{Cond: Binary{Op: OpLt, L: v("a"), R: v("b")}, Pos: at(3)},
			"minipar.If@3:4(a b)d[]w[]"},
		{"while", While{Cond: Binary{Op: OpLt, L: v("i"), R: v("n")}, Pos: at(4)},
			"minipar.While@4:5(i n)d[]w[]"},
		{"parfor", ParFor{Var: "i", Lo: v("lo"), Hi: v("hi"), Pos: at(5)},
			"minipar.ParFor@5:6(lo hi)d[i]w[]"},
		{"parfor reduce", ParFor{Var: "i", Lo: v("lo"), Hi: v("hi"), Reduce: &ReduceClause{Acc: "s", Op: OpAdd}, Pos: at(6)},
			"minipar.ParFor@6:7(lo hi)d[i]w[s]"},
		{"par", Par{Pos: at(7)},
			"minipar.Par@7:8()d[]w[]"},
		{"return", Return{Expr: bin(v("r"), v("q")), Pos: at(8)},
			"minipar.Return@8:9(r q)d[]w[]"},
		{"call", Call{Dst: "x", Func: "f", Arg: v("a"), Pos: at(9)},
			"minipar.Call@9:10(a)d[]w[x]"},
	}
	// m and z are markers around the nesting slot: m fills the sibling
	// list that runs before the slot, z the one that runs after it.
	m := Assign{Name: "m", Expr: v("m"), Pos: at(90)}
	z := Assign{Name: "z", Expr: v("z"), Pos: at(99)}
	const mLog = "minipar.Assign@90:91(m)d[]w[m]"
	const zLog = "minipar.Assign@99:100(z)d[]w[z]"
	cond := Binary{Op: OpLt, L: v("c"), R: v("k")}
	wrappers := []struct {
		name string
		wrap func(Stmt) Stmt
		want string // %s is the nested statement's log
	}{
		{"if then", func(s Stmt) Stmt { return If{Cond: cond, Then: []Stmt{s}, Else: []Stmt{z}, Pos: at(20)} },
			"minipar.If@20:21(c k)d[]w[]; %s; " + zLog},
		{"if else", func(s Stmt) Stmt { return If{Cond: cond, Then: []Stmt{m}, Else: []Stmt{s}, Pos: at(21)} },
			"minipar.If@21:22(c k)d[]w[]; " + mLog + "; %s"},
		{"while", func(s Stmt) Stmt { return While{Cond: cond, Body: []Stmt{m, s, z}, Pos: at(22)} },
			"minipar.While@22:23(c k)d[]w[]; " + mLog + "; %s; " + zLog},
		{"parfor", func(s Stmt) Stmt { return ParFor{Var: "j", Lo: v("l"), Hi: v("h"), Body: []Stmt{s}, Pos: at(23)} },
			"minipar.ParFor@23:24(l h)d[j]w[]; %s"},
		{"parfor reduce", func(s Stmt) Stmt {
			return ParFor{Var: "j", Lo: v("l"), Hi: v("h"), Reduce: &ReduceClause{Acc: "t", Op: OpMul}, Body: []Stmt{s}, Pos: at(24)}
		}, "minipar.ParFor@24:25(l h)d[j]w[t]; %s"},
		{"par A", func(s Stmt) Stmt { return Par{A: []Stmt{s}, B: []Stmt{z}, Pos: at(25)} },
			"minipar.Par@25:26()d[]w[]; %s; " + zLog},
		{"par B", func(s Stmt) Stmt { return Par{A: []Stmt{m}, B: []Stmt{s}, Pos: at(26)} },
			"minipar.Par@26:27()d[]w[]; " + mLog + "; %s"},
	}
	for _, leaf := range leaves {
		if got := inspectLog([]Stmt{leaf.s}); got != leaf.want {
			t.Errorf("%s:\n got %s\nwant %s", leaf.name, got, leaf.want)
		}
		for _, w := range wrappers {
			want := fmt.Sprintf(w.want, leaf.want)
			if got := inspectLog([]Stmt{w.wrap(leaf.s)}); got != want {
				t.Errorf("%s in %s:\n got %s\nwant %s", leaf.name, w.name, got, want)
			}
		}
	}
}

func TestInspectPrunes(t *testing.T) {
	inner := Assign{Name: "x", Expr: IntLit{Value: 1}}
	prog := []Stmt{
		While{Cond: Binary{Op: OpLt, L: IntLit{}, R: IntLit{}}, Body: []Stmt{inner}},
		Par{A: []Stmt{inner}, B: []Stmt{inner}},
	}
	var seen []string
	Inspect(prog, func(s Stmt, _ Shape) bool {
		seen = append(seen, fmt.Sprintf("%T", s))
		_, isPar := s.(Par)
		return isPar
	})
	want := "minipar.While minipar.Par minipar.Assign minipar.Assign"
	if got := strings.Join(seen, " "); got != want {
		t.Fatalf("visited %s, want %s", got, want)
	}
}

type unknownStmt struct{}

func (unknownStmt) stmt() {}

func TestShapeOfUnknownPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("ShapeOf of an unknown statement type did not panic")
		}
	}()
	Inspect([]Stmt{Par{B: []Stmt{unknownStmt{}}}}, func(Stmt, Shape) bool { return true })
}

func TestParIndependence(t *testing.T) {
	for _, tc := range []struct {
		a, b     string
		conflict ParConflict
		name     string
	}{
		{"x = 1", "y = 2", Independent, ""},
		{"x = call f(1)", "y = 2", ConflictCall, ""},
		{"y = 2", "return 1", ConflictReturn, ""},
		// Calls are tested before returns, writes before reads, and the
		// first shared name wins.
		{"return 1", "x = call f(1)", ConflictCall, ""},
		{"y = 1\nx = 1", "x = 2\ny = x", ConflictWriteWrite, "x"},
		{"y = 1", "x = y", ConflictWriteRead, "y"},
		{"x = y", "y = 1", ConflictReadWrite, "y"},
		// Names local to a branch are not shared.
		{"var t = 1\nt = 2", "var t = 3", Independent, ""},
		// A reduce accumulator is both read and written.
		{"parfor i in 0 .. 4 reduce(s, +) { s = s + i }", "y = s", ConflictWriteRead, "s"},
	} {
		src := "params x, y, s\nfunc f(m) {\n if m < 2 { return m }\n parcall p, q = f(m - 1), f(m - 2)\n return p + q\n}\n"
		pa, err := Parse(src + tc.a)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := Parse(src + tc.b)
		if err != nil {
			t.Fatal(err)
		}
		conflict, name := ParIndependence(pa.Body, pb.Body)
		if conflict != tc.conflict || name != tc.name {
			t.Errorf("ParIndependence(%q, %q) = %d %q, want %d %q", tc.a, tc.b, conflict, name, tc.conflict, tc.name)
		}
	}
}
