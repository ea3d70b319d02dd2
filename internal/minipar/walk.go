package minipar

import "fmt"

// Shape is what a walk over the AST needs to know about one statement,
// spelled out once for every statement kind by ShapeOf.
type Shape struct {
	Pos Pos
	// Exprs are the statement's own expressions in evaluation order; the
	// expressions of nested statements belong to those statements.
	Exprs []Expr
	// Declares are the names the statement introduces: a var's name, a
	// parfor's index variable.
	Declares []string
	// Writes are the names the statement itself assigns: an assignment's
	// or a call's target, a parfor's reduce accumulator.
	Writes []string
	// Bodies are the nested statement lists in execution order: Then
	// before Else, A before B.
	Bodies [][]Stmt
}

// ShapeOf returns the shape of s. It panics on a statement type it does
// not know, so a new kind cannot be skipped silently by the walks built
// on it.
func ShapeOf(s Stmt) Shape {
	switch st := s.(type) {
	case VarDecl:
		return Shape{Pos: st.Pos, Exprs: []Expr{st.Init}, Declares: []string{st.Name}}
	case Assign:
		return Shape{Pos: st.Pos, Exprs: []Expr{st.Expr}, Writes: []string{st.Name}}
	case If:
		return Shape{Pos: st.Pos, Exprs: []Expr{st.Cond}, Bodies: [][]Stmt{st.Then, st.Else}}
	case While:
		return Shape{Pos: st.Pos, Exprs: []Expr{st.Cond}, Bodies: [][]Stmt{st.Body}}
	case ParFor:
		sh := Shape{Pos: st.Pos, Exprs: []Expr{st.Lo, st.Hi}, Declares: []string{st.Var}, Bodies: [][]Stmt{st.Body}}
		if st.Reduce != nil {
			sh.Writes = []string{st.Reduce.Acc}
		}
		return sh
	case Par:
		return Shape{Pos: st.Pos, Bodies: [][]Stmt{st.A, st.B}}
	case Return:
		return Shape{Pos: st.Pos, Exprs: []Expr{st.Expr}}
	case Call:
		return Shape{Pos: st.Pos, Exprs: []Expr{st.Arg}, Writes: []string{st.Dst}}
	}
	panic(fmt.Sprintf("minipar: unknown statement %T", s))
}

// Inspect walks ss in pre-order: f sees each statement and its shape
// before the statement's bodies, and returning false skips the bodies.
func Inspect(ss []Stmt, f func(Stmt, Shape) bool) {
	for _, s := range ss {
		sh := ShapeOf(s)
		if f(s, sh) {
			for _, body := range sh.Bodies {
				Inspect(body, f)
			}
		}
	}
}

// ExprVars calls f on every variable reference in e, left to right.
func ExprVars(e Expr, f func(VarRef)) {
	switch ex := e.(type) {
	case VarRef:
		f(ex)
	case Binary:
		ExprVars(ex.L, f)
		ExprVars(ex.R, f)
	}
}
