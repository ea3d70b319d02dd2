package minipar

import "slices"

// Check performs semantic analysis:
//
//   - variables are declared (as params, var, or parfor index) before use
//     and not redeclared in the same scope;
//   - if/while conditions are comparisons; parfor bounds and general
//     expression operands are arithmetic;
//   - inside a parfor body, assignments to variables declared outside the
//     loop are permitted only for the loop's reduce accumulator, and only
//     in the shape acc = acc OP expr with the loop's reduce operator (the
//     reducer discipline that makes per-task views mergeable);
//   - a reduce accumulator is declared outside its loop;
//   - the program ends every control path... is not required; a program
//     that falls off the end returns 0.
func Check(p *Program) error {
	c := &checker{funcs: map[string]*FuncDecl{}}
	for i := range p.Funcs {
		fd := &p.Funcs[i]
		if _, dup := c.funcs[fd.Name]; dup {
			return errf(fd.Pos, "function %q redeclared", fd.Name)
		}
		c.funcs[fd.Name] = fd
		if err := checkFunc(fd); err != nil {
			return err
		}
	}
	c.pushScope()
	for _, name := range p.Params {
		if err := c.declare(name, Pos{}); err != nil {
			return err
		}
	}
	if err := c.stmts(p.Body); err != nil {
		return err
	}
	return nil
}

// checkFunc validates the expression scopes of a recursive parallel
// function: base condition and arguments over the parameter, combine
// over the parcall results.
func checkFunc(fd *FuncDecl) error {
	only := func(e Expr, allowed ...string) error {
		var err error
		ExprVars(e, func(v VarRef) {
			if err == nil && !slices.Contains(allowed, v.Name) {
				err = errf(v.Pos, "variable %q is not in scope here (allowed: %v)", v.Name, allowed)
			}
		})
		return err
	}
	b, ok := fd.BaseCmp.(Binary)
	if !ok || !b.Op.IsComparison() {
		return errf(fd.Pos, "function %q base case condition must be a comparison", fd.Name)
	}
	if err := only(b.L, fd.Param); err != nil {
		return err
	}
	if err := only(b.R, fd.Param); err != nil {
		return err
	}
	for _, e := range []Expr{fd.BaseRet, fd.ArgA, fd.ArgB} {
		if err := only(e, fd.Param); err != nil {
			return err
		}
		if err := noComparisons(e, fd.Pos); err != nil {
			return err
		}
	}
	if fd.AName == fd.BName {
		return errf(fd.Pos, "parcall result names must differ")
	}
	if err := only(fd.Combine, fd.AName, fd.BName); err != nil {
		return err
	}
	return noComparisons(fd.Combine, fd.Pos)
}

func noComparisons(e Expr, pos Pos) error {
	if b, ok := e.(Binary); ok {
		if b.Op.IsComparison() {
			return errf(b.Pos, "comparisons are only allowed as conditions")
		}
		if err := noComparisons(b.L, pos); err != nil {
			return err
		}
		return noComparisons(b.R, pos)
	}
	return nil
}

type scopeEntry struct {
	depth int // parfor nesting depth at declaration
}

type checker struct {
	scopes []map[string]scopeEntry
	loops  []*ParFor // enclosing parfor stack
	funcs  map[string]*FuncDecl
}

func (c *checker) pushScope() { c.scopes = append(c.scopes, map[string]scopeEntry{}) }
func (c *checker) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) declare(name string, pos Pos) error {
	if name == "result" || name == "resume" {
		return errf(pos, "%q is reserved by the compiler", name)
	}
	top := c.scopes[len(c.scopes)-1]
	if _, dup := top[name]; dup {
		return errf(pos, "variable %q redeclared in the same scope", name)
	}
	top[name] = scopeEntry{depth: len(c.loops)}
	return nil
}

func (c *checker) lookup(name string) (scopeEntry, bool) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if e, ok := c.scopes[i][name]; ok {
			return e, true
		}
	}
	return scopeEntry{}, false
}

func (c *checker) stmts(ss []Stmt) error {
	for _, s := range ss {
		if err := c.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) stmt(s Stmt) error {
	switch st := s.(type) {
	case VarDecl:
		if err := c.arith(st.Init); err != nil {
			return err
		}
		return c.declare(st.Name, st.Pos)

	case Assign:
		entry, ok := c.lookup(st.Name)
		if !ok {
			return errf(st.Pos, "assignment to undeclared variable %q", st.Name)
		}
		if err := c.arith(st.Expr); err != nil {
			return err
		}
		// The reducer discipline: crossing a parfor boundary is only
		// allowed for that loop's accumulator, in mergeable shape.
		if entry.depth < len(c.loops) {
			loop := c.loops[entry.depth] // innermost loop the variable is outside of
			if loop.Reduce == nil || loop.Reduce.Acc != st.Name {
				return errf(st.Pos,
					"assignment to %q crosses a parfor boundary; only the loop's reduce accumulator may be updated",
					st.Name)
			}
			if !isReduceShape(st, loop.Reduce) {
				return errf(st.Pos,
					"reduce accumulator %q must be updated as %s = %s %s <expr>",
					st.Name, st.Name, st.Name, loop.Reduce.Op)
			}
		}
		return nil

	case If:
		if err := c.comparison(st.Cond, st.Pos); err != nil {
			return err
		}
		c.pushScope()
		err := c.stmts(st.Then)
		c.popScope()
		if err != nil {
			return err
		}
		c.pushScope()
		err = c.stmts(st.Else)
		c.popScope()
		return err

	case While:
		if err := c.comparison(st.Cond, st.Pos); err != nil {
			return err
		}
		c.pushScope()
		err := c.stmts(st.Body)
		c.popScope()
		return err

	case ParFor:
		if err := c.arith(st.Lo); err != nil {
			return err
		}
		if err := c.arith(st.Hi); err != nil {
			return err
		}
		if st.Reduce != nil {
			entry, ok := c.lookup(st.Reduce.Acc)
			if !ok {
				return errf(st.Pos, "reduce accumulator %q is not declared", st.Reduce.Acc)
			}
			if entry.depth != len(c.loops) {
				// Declared inside some other enclosing loop is fine as
				// long as it is outside *this* loop; only "declared
				// inside this loop" is impossible here since the loop
				// body has not been entered yet. Nothing to check.
				_ = entry
			}
		}
		stCopy := st
		c.loops = append(c.loops, &stCopy)
		c.pushScope()
		if err := c.declare(st.Var, st.Pos); err != nil {
			return err
		}
		err := c.stmts(st.Body)
		c.popScope()
		c.loops = c.loops[:len(c.loops)-1]
		return err

	case Par:
		c.pushScope()
		err := c.stmts(st.A)
		c.popScope()
		if err != nil {
			return err
		}
		c.pushScope()
		err = c.stmts(st.B)
		c.popScope()
		if err != nil {
			return err
		}
		// Declarations inside a branch may not shadow a name visible at
		// the par: the flat register file would leak the branch-local
		// value on the serial path but drop it on the promoted path,
		// making the two elaborations disagree. The first such
		// declaration in source order is reported.
		shadow := ""
		Inspect([]Stmt{st}, func(_ Stmt, sh Shape) bool {
			for _, name := range sh.Declares {
				if _, visible := c.lookup(name); visible && shadow == "" {
					shadow = name
				}
			}
			return shadow == ""
		})
		if shadow != "" {
			return errf(st.Pos, "par branch redeclares %q, which is visible outside the par", shadow)
		}
		return checkParIndependence(st)

	case Return:
		return c.arith(st.Expr)

	case Call:
		if _, ok := c.funcs[st.Func]; !ok {
			return errf(st.Pos, "call to undeclared function %q", st.Func)
		}
		if len(c.loops) > 0 {
			return errf(st.Pos, "call statements may not appear inside parfor bodies")
		}
		if _, ok := c.lookup(st.Dst); !ok {
			return errf(st.Pos, "assignment to undeclared variable %q", st.Dst)
		}
		return c.arith(st.Arg)
	}
	return errf(Pos{}, "unknown statement %T", s)
}

// checkParIndependence enforces the par discipline of ParIndependence.
// Under it the serial elaboration (A then B) and every promoted
// interleaving compute the same stores, so par is deterministic by
// construction — the statement-pair analogue of the parfor reducer
// discipline.
func checkParIndependence(st Par) error {
	conflict, name := ParIndependence(st.A, st.B)
	switch conflict {
	case ConflictCall:
		return errf(st.Pos, "call statements may not appear inside par branches")
	case ConflictReturn:
		return errf(st.Pos, "return statements may not appear inside par branches")
	case ConflictWriteWrite:
		return errf(st.Pos, "par branches are not independent: both branches write %q", name)
	case ConflictWriteRead:
		return errf(st.Pos, "par branches are not independent: the first branch writes %q, which the second reads", name)
	case ConflictReadWrite:
		return errf(st.Pos, "par branches are not independent: the second branch writes %q, which the first reads", name)
	}
	return nil
}

// isReduceShape recognizes acc = acc OP expr (and for commutative ops
// also acc = expr OP acc).
func isReduceShape(a Assign, r *ReduceClause) bool {
	b, ok := a.Expr.(Binary)
	if !ok || b.Op != r.Op {
		return false
	}
	if v, ok := b.L.(VarRef); ok && v.Name == a.Name {
		return true
	}
	if v, ok := b.R.(VarRef); ok && v.Name == a.Name {
		return true // + and * are commutative
	}
	return false
}

// comparison requires the expression to be a top-level comparison whose
// operands are arithmetic.
func (c *checker) comparison(e Expr, pos Pos) error {
	b, ok := e.(Binary)
	if !ok || !b.Op.IsComparison() {
		return errf(pos, "condition must be a comparison")
	}
	if err := c.arith(b.L); err != nil {
		return err
	}
	return c.arith(b.R)
}

// arith checks an arithmetic expression: no comparisons inside, all
// variables declared.
func (c *checker) arith(e Expr) error {
	switch ex := e.(type) {
	case IntLit:
		return nil
	case VarRef:
		if _, ok := c.lookup(ex.Name); !ok {
			return errf(ex.Pos, "use of undeclared variable %q", ex.Name)
		}
		return nil
	case Binary:
		if ex.Op.IsComparison() {
			return errf(ex.Pos, "comparisons are only allowed as conditions")
		}
		if err := c.arith(ex.L); err != nil {
			return err
		}
		return c.arith(ex.R)
	}
	return errf(Pos{}, "unknown expression %T", e)
}
