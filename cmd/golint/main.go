// Command golint is the repository's own Go style checker: a small
// go/ast pass over the tree that flags patterns gofmt and go vet both
// accept but this codebase does not want. It uses only the standard
// library — no module downloads, no type checking — so it runs in the
// sandboxed CI environment exactly as it runs locally.
//
// Checks:
//
//	boolcompare   comparison against a bool literal (x == true, y != false)
//	emptybranch   if or else branch with an empty body
//	sprintfconst  fmt.Sprintf/Errorf/Printf-family call whose format
//	              string contains no verb — the call is a costlier
//	              string literal (Errorf is exempt only when it keeps
//	              an error chain, which needs a verb anyway)
//	lenzero       len(x) < 0 or len(x) >= 0: always false/true
//	deferloop     defer lexically inside a for/range body: the calls
//	              pile up until function exit, not loop-iteration exit
//	              (a defer inside a func literal in the loop is fine)
//	shadowerr     a := in a nested block redeclares err while an
//	              enclosing scope holds one, and the outer err is read
//	              again afterwards — that read sees the stale value the
//	              shadowed writes never touched (the common guard idiom
//	              `if err := f(); err != nil` is fine when nothing reads
//	              the outer err later, and a plain `err = ...` rewrite
//	              clears the hazard)
//
// Usage:
//
//	golint ./internal ./cmd       # lint the trees, exit 1 on findings
//
// Test files are linted too; testdata directories are skipped.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		args = []string{"."}
	}
	var files []string
	for _, arg := range args {
		err := filepath.WalkDir(arg, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != arg {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			fmt.Fprintf(stderr, "golint: %v\n", err)
			return 2
		}
	}
	sort.Strings(files)

	found := 0
	for _, path := range files {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			fmt.Fprintf(stderr, "golint: %v\n", err)
			return 2
		}
		for _, d := range lintFile(fset, f) {
			fmt.Fprintln(stdout, d)
			found++
		}
	}
	if found > 0 {
		fmt.Fprintf(stdout, "golint: %d finding(s)\n", found)
		return 1
	}
	return 0
}

// lintFile runs every check over one parsed file and returns rendered
// findings in position order.
func lintFile(fset *token.FileSet, f *ast.File) []string {
	var out []string
	report := func(pos token.Pos, check, msg string) {
		out = append(out, fmt.Sprintf("%s: %s: %s", fset.Position(pos), check, msg))
	}

	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			checkBoolCompare(fset, n, report)
			checkLenZero(fset, n, report)
		case *ast.IfStmt:
			checkEmptyBranch(n, report)
		case *ast.CallExpr:
			checkSprintfConst(n, report)
		case *ast.ForStmt:
			checkDeferLoop(n.Body, report)
		case *ast.RangeStmt:
			checkDeferLoop(n.Body, report)
		case *ast.FuncDecl:
			checkShadowErr(n.Type, n.Body, report)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func isBoolLit(e ast.Expr) (bool, bool) {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false, false
	}
	switch id.Name {
	case "true":
		return true, true
	case "false":
		return false, true
	}
	return false, false
}

// checkBoolCompare flags x == true / x != false style comparisons: the
// bool expression already is the condition.
func checkBoolCompare(fset *token.FileSet, n *ast.BinaryExpr, report func(token.Pos, string, string)) {
	if n.Op != token.EQL && n.Op != token.NEQ {
		return
	}
	for _, side := range []ast.Expr{n.X, n.Y} {
		if _, ok := isBoolLit(side); ok {
			report(n.Pos(), "boolcompare",
				fmt.Sprintf("comparison with bool literal %s; use the expression (or its negation) directly", render(fset, side)))
			return
		}
	}
}

// checkLenZero flags len(x) < 0 and len(x) >= 0, which are always
// false and always true: len never goes negative.
func checkLenZero(fset *token.FileSet, n *ast.BinaryExpr, report func(token.Pos, string, string)) {
	if n.Op != token.LSS && n.Op != token.GEQ {
		return
	}
	call, ok := n.X.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return
	}
	if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "len" {
		return
	}
	if lit, ok := n.Y.(*ast.BasicLit); ok && lit.Kind == token.INT && lit.Value == "0" {
		report(n.Pos(), "lenzero",
			fmt.Sprintf("len(%s) %s 0 is always %v", render(fset, call.Args[0]), n.Op, n.Op == token.GEQ))
	}
}

// checkEmptyBranch flags if/else branches whose body is empty: either
// dead scaffolding or an inverted condition waiting to happen.
func checkEmptyBranch(n *ast.IfStmt, report func(token.Pos, string, string)) {
	if n.Body != nil && len(n.Body.List) == 0 {
		report(n.Pos(), "emptybranch", "if branch has an empty body")
	}
	if blk, ok := n.Else.(*ast.BlockStmt); ok && len(blk.List) == 0 {
		report(n.Else.Pos(), "emptybranch", "else branch has an empty body")
	}
}

// formatCalls maps fmt functions to the index of their format argument.
var formatCalls = map[string]int{
	"Sprintf": 0, "Printf": 0, "Errorf": 0,
	"Fprintf": 1, "Fscanf": 1, "Sscanf": 1,
}

// checkSprintfConst flags fmt format calls whose format string is a
// literal with no verbs and no escapes: the plain-string sibling
// (Sprint, Print, errors.New, WriteString) says the same thing without
// a scan of the format string.
func checkSprintfConst(n *ast.CallExpr, report func(token.Pos, string, string)) {
	sel, ok := n.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok || pkg.Name != "fmt" {
		return
	}
	argIx, ok := formatCalls[sel.Sel.Name]
	if !ok || len(n.Args) <= argIx {
		return
	}
	lit, ok := n.Args[argIx].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING || len(n.Args) > argIx+1 {
		return
	}
	val, err := strconv.Unquote(lit.Value)
	if err != nil || strings.ContainsAny(val, "%") {
		return
	}
	report(n.Pos(), "sprintfconst",
		fmt.Sprintf("fmt.%s with a constant format and no arguments; use the non-formatting variant", sel.Sel.Name))
}

// checkDeferLoop flags defer statements lexically inside a loop body:
// deferred calls run at function exit, so each iteration adds one more
// pending call — a resource leak when the loop is long. A defer inside
// a func literal is scoped to that literal and fine; a nested loop is
// checked by its own visit, not twice.
func checkDeferLoop(body *ast.BlockStmt, report func(token.Pos, string, string)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.ForStmt, *ast.RangeStmt:
			return false
		case *ast.DeferStmt:
			report(n.Pos(), "deferloop",
				"defer inside a loop runs at function exit, not iteration exit; the pending calls accumulate")
		}
		return true
	})
}

// checkShadowErr flags a := that redeclares err in a nested block when
// the outer err is read again after the block. The shadow itself is
// legal and often deliberate (the `if err := f(); err != nil` guard
// idiom), so a report fires only when a later statement reads the
// generation of err that was hidden — that read sees a stale value the
// shadowed writes never reached. A plain `err = ...` store to the
// outer err between shadow and read refreshes the value and clears the
// pending report.
//
// The walk is purely lexical: each scope tracks the "generation" of
// the err currently visible (0 = none), a := or var that hides an
// enclosing generation bumps it, and pending shadows are keyed by the
// generation they hid. Reads flush — and writes kill — only pending
// entries of the generation the reading scope resolves to, so reads of
// the shadow itself never trigger the outer report.
func checkShadowErr(typ *ast.FuncType, body *ast.BlockStmt, report func(token.Pos, string, string)) {
	if body == nil {
		return
	}
	st := &shadowState{report: report}
	gen := 0
	declared := func(fields *ast.FieldList) {
		if fields == nil {
			return
		}
		for _, field := range fields.List {
			for _, name := range field.Names {
				if name.Name == "err" && gen == 0 {
					gen = st.fresh()
				}
			}
		}
	}
	declared(typ.Params)
	declared(typ.Results)
	st.resultGen = 0
	if gen != 0 {
		st.resultGen = gen
	}
	if typ.Results != nil {
		// Only a named *result* makes a naked return read err.
		for _, field := range typ.Results.List {
			for _, name := range field.Names {
				if name.Name == "err" {
					st.namedResult = true
				}
			}
		}
	}
	st.scope(body.List, gen)
}

// errShadow is one := (or var) that hid generation gen of err and has
// not yet been proved harmful or harmless.
type errShadow struct {
	pos token.Pos
	gen int
}

type shadowState struct {
	pending     []errShadow
	counter     int  // generation allocator; IDs are unique per function
	resultGen   int  // generation of the named result err, if any
	namedResult bool // function has a named result called err
	report      func(token.Pos, string, string)
}

// fresh allocates a generation ID. IDs are unique across the whole
// function so sibling scopes that each declare their own err never
// collide: a read in one case clause cannot flush a shadow pending in
// another.
func (st *shadowState) fresh() int {
	st.counter++
	return st.counter
}

// flush reports and drops every pending shadow of generation gen: the
// caller just saw a read of that generation, so the stale value is
// observable.
func (st *shadowState) flush(gen int) {
	kept := st.pending[:0]
	for _, p := range st.pending {
		if p.gen == gen {
			st.report(p.pos, "shadowerr",
				"err shadowed by := here is read again from the outer scope later; the outer err still holds its pre-shadow value")
		} else {
			kept = append(kept, p)
		}
	}
	st.pending = kept
}

// kill drops pending shadows of generation gen without reporting: the
// outer err was just rewritten, so no stale read can happen.
func (st *shadowState) kill(gen int) {
	kept := st.pending[:0]
	for _, p := range st.pending {
		if p.gen != gen {
			kept = append(kept, p)
		}
	}
	st.pending = kept
}

// reads flushes pending shadows of gen if the node mentions the ident
// err anywhere. Func literals are scanned as child scopes of the same
// generation (closures capture err by reference).
func (st *shadowState) reads(n ast.Node, gen int) {
	if n == nil || gen == 0 {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			g := gen
			for _, field := range m.Type.Params.List {
				for _, name := range field.Names {
					if name.Name == "err" {
						g = st.fresh() // literal's own err; body reads are private
					}
				}
			}
			st.scope(m.Body.List, g)
			return false
		case *ast.Ident:
			if m.Name == "err" {
				st.flush(gen)
			}
		}
		return true
	})
}

// scope walks one block's statements with the visible err generation.
func (st *shadowState) scope(stmts []ast.Stmt, gen int) {
	local := false
	for _, s := range stmts {
		gen, local = st.stmt(s, gen, local)
	}
}

// stmt processes one statement where the visible err has generation gen
// (0 = not in scope) and local says the current scope itself declared
// that generation; it returns the updated pair for the statements that
// follow in the same scope.
func (st *shadowState) stmt(s ast.Stmt, gen int, local bool) (int, bool) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			st.reads(r, gen)
		}
		writesErr := false
		for _, l := range s.Lhs {
			if id, ok := l.(*ast.Ident); ok {
				if id.Name == "err" {
					writesErr = true
				}
			} else {
				st.reads(l, gen) // index/selector operands are reads
			}
		}
		if !writesErr {
			return gen, local
		}
		if s.Tok == token.DEFINE && !local {
			if gen > 0 {
				st.pending = append(st.pending, errShadow{s.Pos(), gen})
			}
			return st.fresh(), true
		}
		// Plain store (or := reusing the scope's own err): the visible
		// err is refreshed, so shadows that hid it are now harmless.
		st.kill(gen)
		return gen, local
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return gen, local
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, v := range vs.Values {
				st.reads(v, gen)
			}
			for _, name := range vs.Names {
				if name.Name == "err" {
					// var err in a nested scope also shadows, but the
					// spelling is explicit enough not to report; it still
					// bumps the generation so resolution stays right.
					gen, local = st.fresh(), true
				}
			}
		}
		return gen, local
	case *ast.ReturnStmt:
		if len(s.Results) == 0 && st.namedResult {
			st.flush(st.resultGen) // naked return reads the named result err
			return gen, local
		}
		for _, r := range s.Results {
			st.reads(r, gen)
		}
		return gen, local
	case *ast.IfStmt:
		g, l := gen, false
		if s.Init != nil {
			g, l = st.stmt(s.Init, g, l)
		}
		st.reads(s.Cond, g)
		st.scope(s.Body.List, g)
		switch e := s.Else.(type) {
		case *ast.BlockStmt:
			st.scope(e.List, g)
		case ast.Stmt:
			st.stmt(e, g, l)
		}
		return gen, local
	case *ast.ForStmt:
		g, l := gen, false
		if s.Init != nil {
			g, l = st.stmt(s.Init, g, l)
		}
		st.reads(s.Cond, g)
		if s.Post != nil {
			st.stmt(s.Post, g, l)
		}
		st.scope(s.Body.List, g)
		return gen, local
	case *ast.RangeStmt:
		st.reads(s.X, gen)
		g := gen
		if s.Tok == token.DEFINE {
			for _, e := range []ast.Expr{s.Key, s.Value} {
				if id, ok := e.(*ast.Ident); ok && id.Name == "err" && g > 0 {
					st.pending = append(st.pending, errShadow{s.Pos(), g})
					g = st.fresh()
				}
			}
		}
		st.scope(s.Body.List, g)
		return gen, local
	case *ast.SwitchStmt:
		g, l := gen, false
		if s.Init != nil {
			g, l = st.stmt(s.Init, g, l)
		}
		_ = l
		st.reads(s.Tag, g)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					st.reads(e, g)
				}
				st.scope(cc.Body, g)
			}
		}
		return gen, local
	case *ast.TypeSwitchStmt:
		g, l := gen, false
		if s.Init != nil {
			g, l = st.stmt(s.Init, g, l)
		}
		_ = l
		st.reads(s.Assign, g)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				st.scope(cc.Body, g)
			}
		}
		return gen, local
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				g, l := gen, false
				if cc.Comm != nil {
					g, l = st.stmt(cc.Comm, g, l)
				}
				_ = l
				st.scope(cc.Body, g)
			}
		}
		return gen, local
	case *ast.BlockStmt:
		st.scope(s.List, gen)
		return gen, local
	case *ast.LabeledStmt:
		return st.stmt(s.Stmt, gen, local)
	default:
		st.reads(s, gen)
		return gen, local
	}
}

// render prints an expression compactly for a finding message.
func render(fset *token.FileSet, e ast.Expr) string {
	var sb strings.Builder
	if err := printer.Fprint(&sb, fset, e); err != nil {
		return "?"
	}
	return sb.String()
}
