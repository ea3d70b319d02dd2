package autopar

import "tpal/internal/minipar"

// cloneProgram deep-copies a program so the pass can rewrite freely
// without mutating the caller's AST. Positions are preserved: verdicts
// point at the original source.
func cloneProgram(p *minipar.Program) *minipar.Program {
	q := &minipar.Program{
		Params: append([]string{}, p.Params...),
		Funcs:  append([]minipar.FuncDecl{}, p.Funcs...),
		Body:   cloneStmts(p.Body, nil, nil),
	}
	return q
}

// cloneStmts is the one rebuilding walk over statement lists: it
// deep-copies ss, optionally renaming variable *reads* (VarRef nodes)
// via ren, and when edit is non-nil passes every copied statement
// through it once its own expressions and bodies are rebuilt. The loop
// rewrite uses the rename to substitute a fresh parfor index for the
// while's induction variable; candidate screening guarantees the
// variable is never written, shadowed, or used as a reduce accumulator
// inside the region, so renaming reads is a complete substitution. The
// accumulator normalization is the edit.
func cloneStmts(ss []minipar.Stmt, ren map[string]string, edit func(minipar.Stmt) minipar.Stmt) []minipar.Stmt {
	out := make([]minipar.Stmt, 0, len(ss))
	for _, s := range ss {
		s = cloneStmt(s, ren, edit)
		if edit != nil {
			s = edit(s)
		}
		out = append(out, s)
	}
	return out
}

func cloneStmt(s minipar.Stmt, ren map[string]string, edit func(minipar.Stmt) minipar.Stmt) minipar.Stmt {
	ex := func(e minipar.Expr) minipar.Expr { return cloneExpr(e, ren) }
	body := func(ss []minipar.Stmt) []minipar.Stmt { return cloneStmts(ss, ren, edit) }
	switch st := s.(type) {
	case minipar.VarDecl:
		st.Init = ex(st.Init)
		return st
	case minipar.Assign:
		st.Expr = ex(st.Expr)
		return st
	case minipar.If:
		st.Cond = ex(st.Cond)
		st.Then, st.Else = body(st.Then), body(st.Else)
		return st
	case minipar.While:
		st.Cond = ex(st.Cond)
		st.Body = body(st.Body)
		return st
	case minipar.ParFor:
		st.Lo, st.Hi = ex(st.Lo), ex(st.Hi)
		if st.Reduce != nil {
			rc := *st.Reduce
			st.Reduce = &rc
		}
		st.Body = body(st.Body)
		return st
	case minipar.Par:
		st.A, st.B = body(st.A), body(st.B)
		return st
	case minipar.Return:
		st.Expr = ex(st.Expr)
		return st
	case minipar.Call:
		st.Arg = ex(st.Arg)
		return st
	}
	return s
}

func cloneExpr(e minipar.Expr, ren map[string]string) minipar.Expr {
	switch ex := e.(type) {
	case minipar.VarRef:
		if to, ok := ren[ex.Name]; ok {
			ex.Name = to
		}
		return ex
	case minipar.Binary:
		ex.L = cloneExpr(ex.L, ren)
		ex.R = cloneExpr(ex.R, ren)
		return ex
	}
	return e
}

// collectNames gathers every identifier the program mentions, so fresh
// index variables never collide with anything.
func collectNames(p *minipar.Program) map[string]bool {
	names := map[string]bool{}
	for _, n := range p.Params {
		names[n] = true
	}
	for _, fd := range p.Funcs {
		names[fd.Name] = true
		names[fd.Param] = true
		names[fd.AName] = true
		names[fd.BName] = true
	}
	minipar.Inspect(p.Body, func(s minipar.Stmt, sh minipar.Shape) bool {
		if c, ok := s.(minipar.Call); ok {
			names[c.Func] = true
		}
		mentions(sh, func(name string) { names[name] = true })
		return true
	})
	return names
}

// occursIn reports whether name is mentioned anywhere in the region, in
// any role (read, write, declaration, index, accumulator). The liveness
// check that decides whether a loop's exit-value fixup can be dropped
// uses it conservatively.
func occursIn(ss []minipar.Stmt, name string) bool {
	found := false
	minipar.Inspect(ss, func(_ minipar.Stmt, sh minipar.Shape) bool {
		if !found {
			mentions(sh, func(n string) { found = found || n == name })
		}
		return !found
	})
	return found
}

// mentions calls f on every variable name a statement itself mentions:
// the names it declares or writes and those its own expressions read.
func mentions(sh minipar.Shape, f func(string)) {
	for _, n := range sh.Declares {
		f(n)
	}
	for _, n := range sh.Writes {
		f(n)
	}
	for _, e := range sh.Exprs {
		minipar.ExprVars(e, func(v minipar.VarRef) { f(v.Name) })
	}
}

// exprHasDiv reports whether an expression can fault (division or
// modulus). Prologue folding may delete or move an initializer
// expression, which is only sound when it cannot fault.
func exprHasDiv(e minipar.Expr) bool {
	if b, ok := e.(minipar.Binary); ok {
		return b.Op == minipar.OpDiv || b.Op == minipar.OpMod || exprHasDiv(b.L) || exprHasDiv(b.R)
	}
	return false
}
