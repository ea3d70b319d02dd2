package minipar

// Effects is the outward-visible variable footprint of a statement
// region: the outer-scope variables it reads and the outer-scope
// variables it writes. Variables declared inside the region (var
// declarations, parfor index variables) are local and excluded; a local
// declaration shadows an outer name for the rest of its scope, exactly
// as the checker scopes it. The checker uses Effects to enforce par
// branch independence, and the autopar pass uses it to recognize
// dependence-free candidate sites.
type Effects struct {
	Reads  map[string]bool
	Writes map[string]bool
	// Calls and Returns record whether the region contains a call or
	// return statement: both pin a region to its enclosing task (calls
	// push frames on the shared stack; a return's identity depends on
	// execution order), so neither may cross a forked boundary.
	Calls   bool
	Returns bool
	// Pars records whether the region already contains a par statement.
	Pars bool
}

// RegionEffects computes the Effects of a statement sequence.
func RegionEffects(ss []Stmt) Effects {
	w := &effectsWalker{eff: Effects{Reads: map[string]bool{}, Writes: map[string]bool{}}}
	w.pushScope()
	w.stmts(ss)
	w.popScope()
	return w.eff
}

type effectsWalker struct {
	scopes []map[string]bool // locally declared names, innermost last
	eff    Effects
}

func (w *effectsWalker) pushScope() { w.scopes = append(w.scopes, map[string]bool{}) }
func (w *effectsWalker) popScope()  { w.scopes = w.scopes[:len(w.scopes)-1] }

func (w *effectsWalker) local(name string) bool {
	for i := len(w.scopes) - 1; i >= 0; i-- {
		if w.scopes[i][name] {
			return true
		}
	}
	return false
}

func (w *effectsWalker) read(name string) {
	if !w.local(name) {
		w.eff.Reads[name] = true
	}
}

func (w *effectsWalker) write(name string) {
	if !w.local(name) {
		w.eff.Writes[name] = true
	}
}

func (w *effectsWalker) expr(e Expr) {
	ExprVars(e, func(v VarRef) { w.read(v.Name) })
}

func (w *effectsWalker) stmts(ss []Stmt) {
	for _, s := range ss {
		w.stmt(s)
	}
}

func (w *effectsWalker) stmt(s Stmt) {
	switch st := s.(type) {
	case VarDecl:
		w.expr(st.Init)
		w.scopes[len(w.scopes)-1][st.Name] = true
	case Assign:
		w.expr(st.Expr)
		w.write(st.Name)
	case If:
		w.expr(st.Cond)
		w.pushScope()
		w.stmts(st.Then)
		w.popScope()
		w.pushScope()
		w.stmts(st.Else)
		w.popScope()
	case While:
		w.expr(st.Cond)
		w.pushScope()
		w.stmts(st.Body)
		w.popScope()
	case ParFor:
		w.expr(st.Lo)
		w.expr(st.Hi)
		if st.Reduce != nil && !w.local(st.Reduce.Acc) {
			// The implicit per-task merge both reads and writes the
			// accumulator.
			w.eff.Reads[st.Reduce.Acc] = true
			w.eff.Writes[st.Reduce.Acc] = true
		}
		w.pushScope()
		w.scopes[len(w.scopes)-1][st.Var] = true
		w.stmts(st.Body)
		w.popScope()
	case Par:
		w.eff.Pars = true
		w.pushScope()
		w.stmts(st.A)
		w.popScope()
		w.pushScope()
		w.stmts(st.B)
		w.popScope()
	case Return:
		w.eff.Returns = true
		w.expr(st.Expr)
	case Call:
		w.eff.Calls = true
		w.expr(st.Arg)
		w.write(st.Dst)
	}
}

// DeclaredNames collects every name a region declares, at any nesting
// depth (var declarations and parfor index variables).
func DeclaredNames(ss []Stmt) map[string]bool {
	out := map[string]bool{}
	Inspect(ss, func(_ Stmt, sh Shape) bool {
		for _, name := range sh.Declares {
			out[name] = true
		}
		return true
	})
	return out
}

// ParConflict names the first reason two statement regions may not run
// as the branches of a par.
type ParConflict uint8

// Par conflicts, in the order ParIndependence tests them.
const (
	Independent ParConflict = iota
	// ConflictCall: a region contains a call, which pushes frames on
	// the program's one shared stack, so a forked branch would race on it.
	ConflictCall
	// ConflictReturn: a region contains a return, and which branch
	// returns first would depend on the schedule.
	ConflictReturn
	// ConflictWriteWrite: both regions write the shared name.
	ConflictWriteWrite
	// ConflictWriteRead: the first region writes the shared name and the
	// second reads it.
	ConflictWriteRead
	// ConflictReadWrite: the first region reads the shared name and the
	// second writes it.
	ConflictReadWrite
)

// ParIndependence is the one statement-level dependence test behind both
// the checker's par discipline and the autopar pair rule: regions a and b
// are independent when neither contains a call or a return and no
// variable one writes is read or written by the other. It returns the
// first conflict in ParConflict order and, for the three data conflicts,
// the lexicographically first shared name, so messages (and the golden
// verdict tables built from them) are deterministic.
func ParIndependence(a, b []Stmt) (ParConflict, string) {
	ea, eb := RegionEffects(a), RegionEffects(b)
	switch {
	case ea.Calls || eb.Calls:
		return ConflictCall, ""
	case ea.Returns || eb.Returns:
		return ConflictReturn, ""
	}
	if name, ok := firstShared(ea.Writes, eb.Writes); ok {
		return ConflictWriteWrite, name
	}
	if name, ok := firstShared(ea.Writes, eb.Reads); ok {
		return ConflictWriteRead, name
	}
	if name, ok := firstShared(eb.Writes, ea.Reads); ok {
		return ConflictReadWrite, name
	}
	return Independent, ""
}

// firstShared returns the lexicographically first name both sets hold.
func firstShared(a, b map[string]bool) (string, bool) {
	var hit string
	found := false
	for k := range a {
		if b[k] && (!found || k < hit) {
			hit, found = k, true
		}
	}
	return hit, found
}
