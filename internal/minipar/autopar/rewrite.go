package autopar

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"tpal/internal/minipar"
	"tpal/internal/tpal"
	"tpal/internal/tpal/analysis"
)

// rebuildFn reconstructs the whole program with the given list substituted
// for the statement list currently being processed. Statement lists nest
// (if/while/parfor/par bodies), and every candidate must be certified
// against the *whole* rebuilt program — the interference pass reasons
// about the complete handler chain, not a statement in isolation — so the
// walker threads a rebuild continuation down the tree instead of mutating
// shared nodes in place.
type rebuildFn func([]minipar.Stmt) *minipar.Program

type walker struct {
	opts  Options
	names map[string]bool // every identifier in the program; fresh names avoid all of them
	nfr   int

	// tails holds, for each enclosing statement list, the statements
	// that follow the construct we are inside — the continuation the
	// liveness check scans when deciding whether a loop's exit-value
	// fixup can be dropped. For a par, the sibling branch is pushed too.
	tails     [][]minipar.Stmt
	loopDepth int // number of enclosing while/parfor bodies

	verdicts []Verdict

	// asm and rep are the last program certify accepted and its report.
	asm *tpal.Program
	rep *analysis.Report
}

func (w *walker) fresh(base string) string {
	for {
		w.nfr++
		name := fmt.Sprintf("%s_p%d", base, w.nfr)
		if !w.names[name] {
			w.names[name] = true
			return name
		}
	}
}

func (w *walker) tailsMention(name string) bool {
	for _, t := range w.tails {
		if occursIn(t, name) {
			return true
		}
	}
	return false
}

func replaceAt(ss []minipar.Stmt, i int, s minipar.Stmt) []minipar.Stmt {
	out := append([]minipar.Stmt{}, ss...)
	out[i] = s
	return out
}

// splice copies ss with del statements at index i replaced by ins.
func splice(ss []minipar.Stmt, i, del int, ins ...minipar.Stmt) []minipar.Stmt {
	out := append([]minipar.Stmt{}, ss[:i]...)
	out = append(out, ins...)
	return append(out, ss[i+del:]...)
}

// processList runs the pass over one statement list: children first (so
// an enclosing loop candidate sees its body in final form), then the
// loop pass (while -> parfor), then the pair pass (adjacent independent
// loop-bearing statements -> par). Loop rewrites fold away dead index
// prologues precisely so that two sequential loops end up adjacent and
// pairable.
func (w *walker) processList(cur []minipar.Stmt, rebuild rebuildFn) []minipar.Stmt {
	for i := 0; i < len(cur); i++ {
		cur = w.child(cur, i, rebuild)
	}
	for i := 0; i < len(cur); {
		if wst, ok := cur[i].(minipar.While); ok {
			cur, i = w.tryLoop(cur, i, wst, rebuild)
			continue
		}
		i++
	}
	for i := 0; i+1 < len(cur); {
		if !loopBearing(cur[i]) || !loopBearing(cur[i+1]) {
			i++
			continue
		}
		next, ok := w.tryPair(cur, i, rebuild)
		if ok {
			cur = next // stay at i: the new par may pair with its next neighbor
			continue
		}
		i++
	}
	return cur
}

// child recurses into the nested statement lists of cur[i].
func (w *walker) child(cur []minipar.Stmt, i int, rebuild rebuildFn) []minipar.Stmt {
	switch st := cur[i].(type) {
	case minipar.If:
		w.tails = append(w.tails, cur[i+1:])
		st.Then = w.processList(st.Then, func(l []minipar.Stmt) *minipar.Program {
			s2 := st
			s2.Then = l
			return rebuild(replaceAt(cur, i, s2))
		})
		st.Else = w.processList(st.Else, func(l []minipar.Stmt) *minipar.Program {
			s2 := st
			s2.Else = l
			return rebuild(replaceAt(cur, i, s2))
		})
		w.tails = w.tails[:len(w.tails)-1]
		return replaceAt(cur, i, st)

	case minipar.While:
		w.tails = append(w.tails, cur[i+1:])
		w.loopDepth++
		st.Body = w.processList(st.Body, func(l []minipar.Stmt) *minipar.Program {
			s2 := st
			s2.Body = l
			return rebuild(replaceAt(cur, i, s2))
		})
		w.loopDepth--
		w.tails = w.tails[:len(w.tails)-1]
		return replaceAt(cur, i, st)

	case minipar.ParFor:
		w.tails = append(w.tails, cur[i+1:])
		w.loopDepth++
		st.Body = w.processList(st.Body, func(l []minipar.Stmt) *minipar.Program {
			s2 := st
			s2.Body = l
			return rebuild(replaceAt(cur, i, s2))
		})
		w.loopDepth--
		w.tails = w.tails[:len(w.tails)-1]
		return replaceAt(cur, i, st)

	case minipar.Par:
		w.tails = append(w.tails, cur[i+1:], st.B)
		st.A = w.processList(st.A, func(l []minipar.Stmt) *minipar.Program {
			s2 := st
			s2.A = l
			return rebuild(replaceAt(cur, i, s2))
		})
		w.tails[len(w.tails)-1] = st.A
		st.B = w.processList(st.B, func(l []minipar.Stmt) *minipar.Program {
			s2 := st
			s2.B = l
			return rebuild(replaceAt(cur, i, s2))
		})
		w.tails = w.tails[:len(w.tails)-2]
		return replaceAt(cur, i, st)
	}
	return cur
}

// loopMatch is a while loop recognized in counted induction form:
// while v < hi (or <=, or the flipped > / >= spellings) whose body ends
// with v = v + 1 and never otherwise touches v.
type loopMatch struct {
	v       string
	hi      minipar.Expr
	plusOne bool // condition was inclusive; the iteration space is [v, hi+1)
	body    []minipar.Stmt
}

// matchInduction screens a while for counted induction form; a failure
// returns the blocking TP07x code and reason.
func matchInduction(wst minipar.While) (loopMatch, analysis.Code, string) {
	var m loopMatch
	if len(wst.Body) == 0 {
		return m, analysis.CodeAutoNotCounted, "loop body is empty"
	}
	x, ok := inductionStep(wst.Body[len(wst.Body)-1])
	if !ok {
		return m, analysis.CodeAutoNotCounted, "loop body does not end with an induction step x = x + 1"
	}
	cond, ok := wst.Cond.(minipar.Binary)
	if !ok {
		return m, analysis.CodeAutoNotCounted, "loop condition is not a comparison"
	}
	switch {
	case (cond.Op == minipar.OpLt || cond.Op == minipar.OpLe) && isVar(cond.L, x):
		m.v, m.hi, m.plusOne = x, cond.R, cond.Op == minipar.OpLe
	case (cond.Op == minipar.OpGt || cond.Op == minipar.OpGe) && isVar(cond.R, x):
		m.v, m.hi, m.plusOne = x, cond.L, cond.Op == minipar.OpGe
	default:
		return m, analysis.CodeAutoNotCounted, fmt.Sprintf(
			"loop condition %q does not bound the stepped variable %q from above",
			minipar.FormatExpr(wst.Cond), x)
	}
	m.body = wst.Body[:len(wst.Body)-1]
	if minipar.DeclaredNames(wst.Body)[m.v] {
		return m, analysis.CodeAutoNotCounted, fmt.Sprintf("induction variable %q is redeclared inside the body", m.v)
	}
	eff := minipar.RegionEffects(m.body)
	if eff.Calls {
		return m, analysis.CodeAutoUnsupported, "the loop body contains a call statement, which cannot cross a fork"
	}
	if eff.Returns {
		return m, analysis.CodeAutoUnsupported, "the loop body contains a return statement; which iteration returns would depend on the schedule"
	}
	if eff.Writes[m.v] {
		return m, analysis.CodeAutoNotCounted, fmt.Sprintf("induction variable %q is written outside the induction step", m.v)
	}
	hiVars := map[string]bool{}
	minipar.ExprVars(m.hi, func(v minipar.VarRef) { hiVars[v.Name] = true })
	if hiVars[m.v] {
		return m, analysis.CodeAutoNotCounted, fmt.Sprintf("loop bound reads the induction variable %q", m.v)
	}
	full := minipar.RegionEffects(wst.Body)
	for _, name := range sortedNames(hiVars) {
		if full.Writes[name] {
			return m, analysis.CodeAutoNotCounted, fmt.Sprintf("loop bound is not invariant: the body writes %q", name)
		}
	}
	return m, "", ""
}

func inductionStep(s minipar.Stmt) (string, bool) {
	a, ok := s.(minipar.Assign)
	if !ok {
		return "", false
	}
	b, ok := a.Expr.(minipar.Binary)
	if !ok || b.Op != minipar.OpAdd {
		return "", false
	}
	if isVar(b.L, a.Name) && isOne(b.R) {
		return a.Name, true
	}
	if isVar(b.R, a.Name) && isOne(b.L) {
		return a.Name, true
	}
	return "", false
}

func isVar(e minipar.Expr, name string) bool {
	v, ok := e.(minipar.VarRef)
	return ok && v.Name == name
}

func isOne(e minipar.Expr) bool {
	l, ok := e.(minipar.IntLit)
	return ok && l.Value == 1
}

func sortedNames(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// classifyAccumulators decides what the loop body's cross-iteration
// writes are: none (a map-shaped loop), exactly one variable updated
// only in reducible accumulator shape with one operator (a reduction),
// or anything else (a loop-carried dependence, blocked).
func classifyAccumulators(body []minipar.Stmt, indexVar string) (*minipar.ReduceClause, analysis.Code, string) {
	eff := minipar.RegionEffects(body)
	var outs []string
	for name := range eff.Writes {
		if name != indexVar {
			outs = append(outs, name)
		}
	}
	sort.Strings(outs)
	if len(outs) == 0 {
		return nil, "", ""
	}
	if len(outs) > 1 {
		return nil, analysis.CodeAutoLoopCarried, fmt.Sprintf(
			"cross-iteration writes to multiple variables (%s); only a single reduction accumulator can cross iterations",
			strings.Join(outs, ", "))
	}
	acc := outs[0]
	op, ok, why := accumulatorOp(body, acc)
	if !ok {
		return nil, analysis.CodeAutoLoopCarried, why
	}
	if why := readOutsideUpdates(body, acc); why != "" {
		return nil, analysis.CodeAutoLoopCarried, why
	}
	return &minipar.ReduceClause{Acc: acc, Op: op}, "", ""
}

// accumulatorOp checks that every update of acc in the region is in
// accumulator shape acc = acc OP e with one consistent associative
// operator, counting a nested parfor's reduce(acc, OP) clause as an
// update in that operator.
func accumulatorOp(body []minipar.Stmt, acc string) (minipar.BinOp, bool, string) {
	var op minipar.BinOp
	seen := false
	bad := ""
	record := func(o minipar.BinOp) {
		if seen && o != op {
			bad = fmt.Sprintf("updates of %q mix operators %s and %s, so no single reduction combines them", acc, op, o)
		}
		op, seen = o, true
	}
	minipar.Inspect(body, func(s minipar.Stmt, _ minipar.Shape) bool {
		if bad != "" {
			return false
		}
		if a, ok := s.(minipar.Assign); ok && a.Name == acc {
			o, shaped := reduceShapedUpdate(a, acc)
			if !shaped {
				bad = fmt.Sprintf("the update of %q at %s is not in accumulator shape %s = %s op <expr>", acc, a.Pos, acc, acc)
				return false
			}
			record(o)
		}
		if pf, ok := s.(minipar.ParFor); ok && pf.Reduce != nil && pf.Reduce.Acc == acc {
			record(pf.Reduce.Op)
		}
		return true
	})
	if bad != "" {
		return 0, false, bad
	}
	if !seen {
		return 0, false, fmt.Sprintf("cross-iteration writes to %q are not in accumulator shape", acc)
	}
	return op, true, ""
}

// reduceShapedUpdate recognizes updates reducible to acc = acc OP e for
// OP in {+, *}: the whole right-hand side flattens into an OP-chain in
// which acc appears as exactly one leaf (anywhere — + and * on wrapping
// 64-bit integers are exactly associative and commutative, so the
// rewrite may reassociate s = s + i + j into s = s + (i + j)).
func reduceShapedUpdate(st minipar.Assign, acc string) (minipar.BinOp, bool) {
	b, ok := st.Expr.(minipar.Binary)
	if !ok || (b.Op != minipar.OpAdd && b.Op != minipar.OpMul) {
		return 0, false
	}
	var leaves []minipar.Expr
	flattenOp(b, b.Op, &leaves)
	accCount := 0
	for _, leaf := range leaves {
		if isVar(leaf, acc) {
			accCount++
		} else if refersTo(leaf, acc) {
			return 0, false
		}
	}
	return b.Op, accCount == 1
}

// flattenOp collects the leaves of a same-operator chain.
func flattenOp(e minipar.Expr, op minipar.BinOp, out *[]minipar.Expr) {
	if b, ok := e.(minipar.Binary); ok && b.Op == op {
		flattenOp(b.L, op, out)
		flattenOp(b.R, op, out)
		return
	}
	*out = append(*out, e)
}

// normalizeAccUpdates rewrites every update of acc in the region into
// the checker's canonical accumulator shape acc = acc OP (rest), with
// the non-acc leaves recombined in their original order. Only called on
// regions that already passed accumulatorOp, so every update flattens
// cleanly.
func normalizeAccUpdates(ss []minipar.Stmt, acc string, op minipar.BinOp) []minipar.Stmt {
	return cloneStmts(ss, nil, func(s minipar.Stmt) minipar.Stmt {
		if a, ok := s.(minipar.Assign); ok && a.Name == acc {
			a.Expr = normalizeAccExpr(a.Expr, acc, op)
			return a
		}
		return s
	})
}

func normalizeAccExpr(e minipar.Expr, acc string, op minipar.BinOp) minipar.Expr {
	b, ok := e.(minipar.Binary)
	if !ok {
		return e
	}
	// Already canonical: acc on the left, acc-free remainder.
	if isVar(b.L, acc) && !refersTo(b.R, acc) {
		return e
	}
	var leaves []minipar.Expr
	flattenOp(b, b.Op, &leaves)
	rest := make([]minipar.Expr, 0, len(leaves)-1)
	for _, leaf := range leaves {
		if isVar(leaf, acc) {
			continue
		}
		rest = append(rest, leaf)
	}
	if len(rest) == 0 {
		return e
	}
	combined := rest[0]
	for _, leaf := range rest[1:] {
		combined = minipar.Binary{Op: b.Op, L: combined, R: leaf, Pos: b.Pos}
	}
	return minipar.Binary{Op: b.Op, L: minipar.VarRef{Name: acc, Pos: b.Pos}, R: combined, Pos: b.Pos}
}

func refersTo(e minipar.Expr, name string) bool {
	found := false
	minipar.ExprVars(e, func(v minipar.VarRef) { found = found || v.Name == name })
	return found
}

// readOutsideUpdates rejects an accumulator whose running value is
// observed mid-loop: any read outside its own shaped updates makes the
// per-task partial views visible, which no reduction can hide.
func readOutsideUpdates(body []minipar.Stmt, acc string) string {
	bad := ""
	minipar.Inspect(body, func(s minipar.Stmt, sh minipar.Shape) bool {
		if a, ok := s.(minipar.Assign); ok && a.Name == acc {
			return true // shape (checked separately) keeps e acc-free
		}
		for _, e := range sh.Exprs {
			if bad == "" && refersTo(e, acc) {
				bad = fmt.Sprintf("%q is read at %s outside its own accumulation, so partial sums would be observable", acc, sh.Pos)
			}
		}
		return bad == ""
	})
	return bad
}

// tryLoop screens cur[i] (a while) as a parallelization candidate,
// rewrites it to a parfor when everything holds, and certifies the
// rewritten whole program. Returns the (possibly rewritten) list and the
// index to continue scanning from.
func (w *walker) tryLoop(cur []minipar.Stmt, i int, wst minipar.While, rebuild rebuildFn) ([]minipar.Stmt, int) {
	v := Verdict{Pos: wst.Pos, Kind: "loop", Desc: "while " + minipar.FormatExpr(wst.Cond)}
	block := func(code analysis.Code, reason string) ([]minipar.Stmt, int) {
		v.Code, v.Reason = code, reason
		w.verdicts = append(w.verdicts, v)
		return cur, i + 1
	}

	m, code, reason := matchInduction(wst)
	if code != "" {
		return block(code, reason)
	}
	clause, code, reason := classifyAccumulators(m.body, m.v)
	if code != "" {
		return block(code, reason)
	}
	if clause != nil {
		v.Reduce = fmt.Sprintf("reduce(%s, %s)", clause.Acc, clause.Op)
	}

	// Trip estimate: exact ("inferred") when straight-line constant
	// propagation over the statements preceding the loop pins both the
	// induction variable's entry value and the bound — this subsumes the
	// old adjacent-literal-prologue rule and also catches symbolic
	// bounds like n in `n = 64; i = 0; while i < n` — and TripAssume
	// ("assumed") otherwise. The provenance lands in the verdict so a
	// reader can tell an honest work estimate from a guess.
	adjDecl, adjAssign := false, false
	var preInit minipar.Expr
	if i > 0 {
		switch pre := cur[i-1].(type) {
		case minipar.VarDecl:
			if pre.Name == m.v {
				adjDecl, preInit = true, pre.Init
			}
		case minipar.Assign:
			if pre.Name == m.v {
				adjAssign, preInit = true, pre.Expr
			}
		}
	}
	env := constPrefix(cur[:i])
	trips := w.opts.TripAssume
	v.TripSource = "assumed"
	if hv, ok := constEval(m.hi, env); ok {
		if lo, ok := env[m.v]; ok {
			if m.plusOne {
				hv++
			}
			trips = hv - lo
			if trips < 0 {
				trips = 0
			}
			v.TripSource = "inferred"
		}
	}
	per := satAdd(1, costStmts(m.body, w.opts.TripAssume))
	v.Trips, v.EstWork = trips, satMul(trips, per)
	if trips < 2 || v.EstWork < w.opts.SpawnThreshold {
		return block(analysis.CodeAutoUnprofitable, fmt.Sprintf(
			"estimated work %d (%d trips x %d per iteration) is below the spawn-cost threshold %d",
			v.EstWork, trips, per, w.opts.SpawnThreshold))
	}

	// The rewrite: a parfor over [v, bound) on a fresh index, the body
	// with reads of v substituted. The original while left v at the
	// bound; a fixup preserves that exit value unless v is provably
	// dead afterwards. When the adjacent prologue initializes v and
	// nothing else uses it, the prologue folds into the parfor's lower
	// bound and disappears.
	bound := cloneExpr(m.hi, nil)
	if m.plusOne {
		bound = minipar.Binary{Op: minipar.OpAdd, L: bound, R: minipar.IntLit{Value: 1, Pos: wst.Pos}, Pos: wst.Pos}
	}
	fresh := w.fresh(m.v)
	newBody := cloneStmts(m.body, map[string]string{m.v: fresh}, nil)
	if clause != nil {
		newBody = normalizeAccUpdates(newBody, clause.Acc, clause.Op)
	}
	pf := minipar.ParFor{
		Var:    fresh,
		Lo:     minipar.VarRef{Name: m.v, Pos: wst.Pos},
		Hi:     bound,
		Reduce: clause,
		Body:   newBody,
		Pos:    wst.Pos,
	}
	live := occursIn(cur[i+1:], m.v) || w.tailsMention(m.v)
	// Dropping the fixup is sound when v is dead in the continuation
	// and, under an enclosing loop that re-executes this list, the
	// adjacent declaration re-creates v each time around.
	dropFixup := !live && (w.loopDepth == 0 || adjDecl)
	// Folding deletes the prologue outright: sound for a declaration
	// (nothing can have read v before it), and for an assignment only
	// outside enclosing loops (re-execution would otherwise observe the
	// missing store). The initializer moves into the parfor bound, so
	// it must not be able to fault.
	fold := dropFixup && (adjDecl || (adjAssign && w.loopDepth == 0)) && !exprHasDiv(preInit)

	var trial []minipar.Stmt
	switch {
	case fold:
		pf.Lo = cloneExpr(preInit, nil)
		trial = splice(cur, i-1, 2, pf)
	case dropFixup:
		trial = splice(cur, i, 1, pf)
	default:
		fix := minipar.If{
			Cond: minipar.Binary{Op: minipar.OpLt, L: minipar.VarRef{Name: m.v, Pos: wst.Pos}, R: cloneExpr(bound, nil), Pos: wst.Pos},
			Then: []minipar.Stmt{minipar.Assign{Name: m.v, Expr: cloneExpr(bound, nil), Pos: wst.Pos}},
			Pos:  wst.Pos,
		}
		trial = splice(cur, i, 1, pf, fix)
	}

	if reason, ok := w.certify(rebuild(trial)); !ok {
		return block(analysis.CodeAutoNotDisjoint, "rewritten program failed certification: "+reason)
	}
	v.Parallelized = true
	v.Speedup = loopSpeedup(trips, per, w.opts.Tau)
	w.verdicts = append(w.verdicts, v)
	switch {
	case fold:
		return trial, i // parfor landed at i-1; continue after it
	case dropFixup:
		return trial, i + 1
	default:
		return trial, i + 2
	}
}

// tryPair screens the adjacent pair (cur[i], cur[i+1]) — both
// loop-bearing — for independence, wraps it in a par when the region
// summaries are disjoint and forking pays, and certifies the result.
func (w *walker) tryPair(cur []minipar.Stmt, i int, rebuild rebuildFn) ([]minipar.Stmt, bool) {
	a, b := cur[i], cur[i+1]
	v := Verdict{Pos: minipar.ShapeOf(a).Pos, Kind: "pair", Desc: briefStmt(a) + " | " + briefStmt(b)}
	block := func(code analysis.Code, reason string) ([]minipar.Stmt, bool) {
		v.Code, v.Reason = code, reason
		w.verdicts = append(w.verdicts, v)
		return cur, false
	}
	switch conflict, name := minipar.ParIndependence([]minipar.Stmt{a}, []minipar.Stmt{b}); conflict {
	case minipar.ConflictCall:
		return block(analysis.CodeAutoUnsupported, "a statement in the pair contains a call, which cannot cross a fork")
	case minipar.ConflictReturn:
		return block(analysis.CodeAutoUnsupported, "a statement in the pair contains a return; which side returns would depend on the schedule")
	case minipar.ConflictWriteWrite:
		return block(analysis.CodeAutoDependent, fmt.Sprintf("both statements write %q", name))
	case minipar.ConflictWriteRead:
		return block(analysis.CodeAutoDependent, fmt.Sprintf("the first statement writes %q, which the second reads", name))
	case minipar.ConflictReadWrite:
		return block(analysis.CodeAutoDependent, fmt.Sprintf("the second statement writes %q, which the first reads", name))
	}
	wa := costStmt(a, w.opts.TripAssume)
	wb := costStmt(b, w.opts.TripAssume)
	v.EstWork = satAdd(wa, wb)
	smaller := wa
	if wb < smaller {
		smaller = wb
	}
	if smaller < w.opts.SpawnThreshold {
		return block(analysis.CodeAutoUnprofitable, fmt.Sprintf(
			"the smaller side's estimated work %d is below the spawn-cost threshold %d",
			smaller, w.opts.SpawnThreshold))
	}
	par := minipar.Par{A: []minipar.Stmt{a}, B: []minipar.Stmt{b}, Pos: v.Pos}
	trial := splice(cur, i, 2, par)
	if reason, ok := w.certify(rebuild(trial)); !ok {
		return block(analysis.CodeAutoNotDisjoint, "rewritten program failed certification: "+reason)
	}
	v.Parallelized = true
	v.Speedup = pairSpeedup(wa, wb, w.opts.Tau)
	w.verdicts = append(w.verdicts, v)
	return trial, true
}

// loopBearing reports whether a statement contains latent or potential
// loop-scale work — the profitability screen for pair candidates.
func loopBearing(s minipar.Stmt) bool {
	switch st := s.(type) {
	case minipar.While, minipar.ParFor, minipar.Par:
		return true
	case minipar.If:
		for _, ss := range [][]minipar.Stmt{st.Then, st.Else} {
			for _, inner := range ss {
				if loopBearing(inner) {
					return true
				}
			}
		}
	}
	return false
}

func briefStmt(s minipar.Stmt) string {
	switch st := s.(type) {
	case minipar.While:
		return "while " + minipar.FormatExpr(st.Cond)
	case minipar.ParFor:
		return "parfor " + st.Var
	case minipar.Par:
		return "par"
	case minipar.If:
		return "if " + minipar.FormatExpr(st.Cond)
	}
	return "stmt"
}

// constEnv maps variable names to values proven constant at a program
// point by straight-line evaluation of the preceding statements.
type constEnv map[string]int64

// constEval evaluates e under env. ok is false when any leaf is
// unknown, the arithmetic could overflow, or a divisor is zero — the
// estimate must never claim precision the interpreter would not
// reproduce.
func constEval(e minipar.Expr, env constEnv) (int64, bool) {
	switch x := e.(type) {
	case minipar.IntLit:
		return x.Value, true
	case minipar.VarRef:
		v, ok := env[x.Name]
		return v, ok
	case minipar.Binary:
		l, lok := constEval(x.L, env)
		r, rok := constEval(x.R, env)
		if !lok || !rok {
			return 0, false
		}
		switch x.Op {
		case minipar.OpAdd:
			s := l + r
			return s, (r >= 0) == (s >= l)
		case minipar.OpSub:
			d := l - r
			return d, (r <= 0) == (d >= l)
		case minipar.OpMul:
			p := l * r
			return p, l == 0 || (p/l == r && !(l == -1 && r == math.MinInt64))
		case minipar.OpDiv:
			if r == 0 || (l == math.MinInt64 && r == -1) {
				return 0, false
			}
			return l / r, true
		case minipar.OpMod:
			if r == 0 || (l == math.MinInt64 && r == -1) {
				return 0, false
			}
			return l % r, true
		}
	}
	return 0, false
}

// constPrefix runs straight-line constant propagation over ss in
// order: a declaration or assignment with a constant-evaluable
// right-hand side binds its name, any other write kills it. Compound
// statements kill everything they might assign on any path — this is
// a may-write approximation, never an execution.
func constPrefix(ss []minipar.Stmt) constEnv {
	env := constEnv{}
	for _, s := range ss {
		switch st := s.(type) {
		case minipar.VarDecl:
			bindOrKill(env, st.Name, st.Init)
		case minipar.Assign:
			bindOrKill(env, st.Name, st.Expr)
		default:
			killAssigned(env, []minipar.Stmt{s})
		}
	}
	return env
}

func bindOrKill(env constEnv, name string, e minipar.Expr) {
	if v, ok := constEval(e, env); ok {
		env[name] = v
	} else {
		delete(env, name)
	}
}

// killAssigned removes from env every name a statement list might
// write, recursing through compound bodies.
func killAssigned(env constEnv, ss []minipar.Stmt) {
	minipar.Inspect(ss, func(_ minipar.Stmt, sh minipar.Shape) bool {
		for _, n := range sh.Declares {
			delete(env, n)
		}
		for _, n := range sh.Writes {
			delete(env, n)
		}
		return true
	})
}
