// Package machine implements the TPAL abstract machine: the sequential
// transition rules of the paper's Figures 29 and 31, the parallel
// heartbeat-driven evaluation of Figure 30, and the metafunctions of
// Figure 27. It also tracks the cost semantics of Figure 28 (work and
// span with a per-fork overhead τ) during execution.
package machine

import (
	"fmt"

	"tpal/internal/tpal"
)

// ValueKind discriminates machine values.
type ValueKind uint8

// Machine value kinds. VNil is the zero value (reads of uninitialized
// registers or stack cells observe it and it behaves as integer 0 where
// an integer is expected, matching the zero-initialized cells of the
// formal salloc rule).
const (
	VNil ValueKind = iota
	VInt
	VLabel
	VJoin
	VPtr  // uptr: a pointer into a task-private stack
	VMark // prmark: a promotion-ready mark stored in a stack cell
)

// Value is a machine value: an integer, a label, a join-record
// identifier, a stack pointer, or a promotion-ready mark.
type Value struct {
	Kind  ValueKind
	Int   int64
	Label tpal.Label
	Join  *JoinRecord
	Ptr   Ptr
}

// IntV returns an integer value.
func IntV(n int64) Value { return Value{Kind: VInt, Int: n} }

// LabelV returns a label value.
func LabelV(l tpal.Label) Value { return Value{Kind: VLabel, Label: l} }

// MarkV returns a promotion-ready mark value.
func MarkV() Value { return Value{Kind: VMark} }

// PtrV returns a stack-pointer value.
func PtrV(p Ptr) Value { return Value{Kind: VPtr, Ptr: p} }

// JoinV returns a join-record value.
func JoinV(j *JoinRecord) Value { return Value{Kind: VJoin, Join: j} }

// AsInt interprets v as an integer. Nil reads as 0, matching
// zero-initialized stack cells and registers.
func (v Value) AsInt() (int64, bool) {
	switch v.Kind {
	case VInt:
		return v.Int, true
	case VNil:
		return 0, true
	}
	return 0, false
}

// Truthy reports the TPAL truth of v: zero is true, everything else is
// false. Non-integer values are never true, so if-jump falls through on
// them.
func (v Value) Truthy() bool {
	n, ok := v.AsInt()
	return ok && n == 0
}

func (v Value) String() string {
	switch v.Kind {
	case VNil:
		return "nil"
	case VInt:
		return fmt.Sprintf("%d", v.Int)
	case VLabel:
		return string(v.Label)
	case VJoin:
		return fmt.Sprintf("join#%d", v.Join.id)
	case VPtr:
		return fmt.Sprintf("uptr(abs=%d)", v.Ptr.Abs)
	case VMark:
		return "prmark"
	}
	return "?"
}

// Equal reports semantic equality of two values. Pointers compare by
// identity of the underlying stack and absolute offset; join records by
// identity.
func (v Value) Equal(w Value) bool {
	if v.Kind == VNil && w.Kind == VInt {
		return w.Int == 0
	}
	if w.Kind == VNil && v.Kind == VInt {
		return v.Int == 0
	}
	if v.Kind != w.Kind {
		return false
	}
	switch v.Kind {
	case VNil, VMark:
		return true
	case VInt:
		return v.Int == w.Int
	case VLabel:
		return v.Label == w.Label
	case VJoin:
		return v.Join == w.Join
	case VPtr:
		return v.Ptr.Stack == w.Ptr.Stack && v.Ptr.Abs == w.Ptr.Abs
	}
	return false
}

// RegFile is a task's register file: a mapping from registers to values
// (Figure 26). Register files are copied at forks; heap structure
// reachable from them (stacks, join records) is shared.
type RegFile map[tpal.Reg]Value

// Clone returns a copy of the register file. The values themselves are
// shared, which matches the formalism: stacks and join records live in
// the heap.
func (r RegFile) Clone() RegFile {
	c := make(RegFile, len(r))
	for k, v := range r {
		c[k] = v
	}
	return c
}

// Get reads a register; absent registers read as the nil value.
func (r RegFile) Get(reg tpal.Reg) Value { return r[reg] }

// Set writes a register.
func (r RegFile) Set(reg tpal.Reg, v Value) { r[reg] = v }

// Resolve evaluates an operand against a register file (the R̂ and Ĥ
// metafunctions of Figure 27 fold together here: labels resolve to label
// values and block lookup happens at jump time).
func Resolve(r RegFile, o tpal.Operand) Value {
	switch o.Kind {
	case tpal.OperReg:
		return r.Get(o.Reg)
	case tpal.OperLabel:
		return LabelV(o.Label)
	case tpal.OperInt:
		return IntV(o.Int)
	}
	return Value{}
}
