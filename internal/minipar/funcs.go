package minipar

// Recursive parallel functions: the minipar form of the paper's §B.2
// stack-based recursion. A function declaration has the fixed
// divide-and-conquer shape of the paper's fib (Figure 20):
//
//	func fib(n) {
//	    if n < 2 { return n }
//	    parcall a, b = fib(n - 1), fib(n - 2)
//	    return a + b
//	}
//
// and compiles to the Figure 22/23 block family: a frame per recursive
// step holding [continuation, promotion-ready mark, pending operand], a
// retk dispatcher annotated as the join-target program point, branch1/
// branch2 continuations, and a promotion handler that splits the oldest
// mark, stashes the join record in the dead mark cell, and forks the
// latent branch with a fresh stack.
//
// Restrictions (checked): one parameter; the base case is a leading
// `if <cmp over param> { return <expr over param> }`; the parcall's two
// callees are the function itself (so every frame on a stack belongs to
// one function and the promotion handler statically knows the frame
// layout and join protocol); the final return uses only the parcall
// results. Calls appear in the main body as `x = call f(e)` statements,
// outside parfor bodies.

// FuncDecl is a recursive parallel function.
type FuncDecl struct {
	Name    string
	Param   string
	BaseCmp Expr // comparison over Param
	BaseRet Expr // expression over Param
	AName   string
	BName   string
	ArgA    Expr // first recursive argument, over Param
	ArgB    Expr // second recursive argument, over Param
	Combine Expr // expression over AName/BName
	Pos     Pos
}

// Call is the statement x = call f(e).
type Call struct {
	Dst  string
	Func string
	Arg  Expr
	Pos  Pos
}

func (Call) stmt() {}

// callFunc evaluates a function application in the reference
// interpreter. The function's expressions evaluate through the same
// eval as statement bodies, each on a fresh environment holding only
// the names in scope there.
func (in *interp) callFunc(f *FuncDecl, arg int64) (int64, error) {
	if err := in.tick(f.Pos); err != nil {
		return 0, err
	}
	fr := interp{env: map[string]int64{f.Param: arg}}
	cond, err := fr.eval(f.BaseCmp)
	if err != nil {
		return 0, err
	}
	if cond == 0 { // TPAL truth
		return fr.eval(f.BaseRet)
	}
	a1, err := fr.eval(f.ArgA)
	if err != nil {
		return 0, err
	}
	a2, err := fr.eval(f.ArgB)
	if err != nil {
		return 0, err
	}
	ra, err := in.callFunc(f, a1)
	if err != nil {
		return 0, err
	}
	rb, err := in.callFunc(f, a2)
	if err != nil {
		return 0, err
	}
	fr.env = map[string]int64{f.AName: ra, f.BName: rb}
	return fr.eval(f.Combine)
}
