package machine

import (
	"errors"
	"fmt"
)

// Stack is a task-private call stack with support for promotion-ready
// marks (the extension of Figure 21). Cells are stored bottom-first:
// cells[0] is the oldest cell. A pointer into the stack addresses cells
// relative to its absolute index, with mem[p + k] reaching k cells
// *older* than p — TPAL stacks, like x86 stacks, grow "downward", so
// adding to a pointer moves toward the base.
//
// The formal rules of Figure 31 present stacks as functional tuples held
// in registers; the paper's fib program, however, writes through one
// pointer (sp-top) and reads the result through another (sp), so the
// executable semantics here uses a single mutable stack object shared by
// every pointer derived from it. The paper explicitly leaves the stack
// representation open ("our semantics is prescriptive only for the
// high-level behavior of the stack").
type Stack struct {
	cells []Value
	top   int // absolute index of the current top cell; -1 when empty
	// sid is the race sanitizer's shadow-map key, assigned lazily on the
	// stack's first shadowed access (race.go); 0 means never shadowed.
	sid int64
}

// Ptr is a pointer into a stack: the uptr of the grammar. Abs is the
// absolute (bottom-relative) index of the cell the pointer targets.
type Ptr struct {
	Stack *Stack
	Abs   int
}

// NewStack returns a fresh empty stack (the snew instruction).
func NewStack() *Stack { return &Stack{top: -1} }

// Top returns a pointer to the current top cell. On an empty stack the
// pointer has Abs == -1 and only becomes dereferenceable after Alloc.
func (s *Stack) Top() Ptr { return Ptr{Stack: s, Abs: s.top} }

// Depth returns the number of live cells.
func (s *Stack) Depth() int { return s.top + 1 }

// ErrStack is the class of stack addressing errors.
var ErrStack = errors.New("tpal stack error")

// Alloc pushes n zeroed cells on top of the cell addressed by p (salloc)
// and returns the new top pointer. Allocation is relative to p, not to
// any previous high-water mark, so a pointer that was rewound past dead
// cells (as the fib joink block does) allocates over them.
func (s *Stack) Alloc(p Ptr, n int) (Ptr, error) {
	if n < 0 {
		return Ptr{}, fmt.Errorf("%w: salloc of %d cells", ErrStack, n)
	}
	newTop := p.Abs + n
	if grow := newTop + 1 - len(s.cells); grow > 0 {
		s.cells = append(s.cells, make([]Value, grow)...)
	}
	clear(s.cells[p.Abs+1 : newTop+1])
	s.top = newTop
	return s.Top(), nil
}

// Free pops n cells (sfree) from the given pointer and returns the new
// top pointer. The new top becomes p - n in absolute terms; freeing past
// the base is an error.
func (s *Stack) Free(p Ptr, n int) (Ptr, error) {
	if n < 0 {
		return Ptr{}, fmt.Errorf("%w: sfree of %d cells", ErrStack, n)
	}
	newTop := p.Abs - n
	if newTop < -1 {
		return Ptr{}, fmt.Errorf("%w: sfree of %d cells below stack base (top %d)", ErrStack, n, p.Abs)
	}
	s.top = newTop
	return s.Top(), nil
}

// addr converts a (pointer, offset) pair to an absolute index, checking
// bounds. Offset k addresses the cell k positions older than p.
func (s *Stack) addr(p Ptr, off int64) (int, error) {
	idx := p.Abs - int(off)
	if idx < 0 || idx >= len(s.cells) {
		return 0, fmt.Errorf("%w: access at mem[ptr(abs=%d) + %d] outside stack of %d cells", ErrStack, p.Abs, off, len(s.cells))
	}
	return idx, nil
}

// Cell converts a (pointer, offset) pair to an absolute index without
// materializing an error, reporting whether it is in bounds. The
// compiled backend uses it on its fast path and falls back to
// Load/Store for the fault message.
func (s *Stack) Cell(p Ptr, off int64) (int, bool) {
	idx := p.Abs - int(off)
	return idx, idx >= 0 && idx < len(s.cells)
}

// CellValue reads the cell at an absolute index previously validated by
// Cell.
func (s *Stack) CellValue(idx int) Value { return s.cells[idx] }

// SetCellValue writes the cell at an absolute index previously
// validated by Cell.
func (s *Stack) SetCellValue(idx int, v Value) { s.cells[idx] = v }

// Load reads mem[p + off].
func (s *Stack) Load(p Ptr, off int64) (Value, error) {
	idx, err := s.addr(p, off)
	if err != nil {
		return Value{}, err
	}
	return s.cells[idx], nil
}

// Store writes mem[p + off] := v.
func (s *Stack) Store(p Ptr, off int64, v Value) error {
	idx, err := s.addr(p, off)
	if err != nil {
		return err
	}
	s.cells[idx] = v
	return nil
}

// PushMark stores a promotion-ready mark at mem[p + off] (prmpush).
func (s *Stack) PushMark(p Ptr, off int64) error {
	return s.Store(p, off, MarkV())
}

// PopMark removes the promotion-ready mark at mem[p + off] (prmpop),
// replacing it with 0. It is an error if the cell does not hold a mark,
// which catches unbalanced push/pop sequences in programs.
func (s *Stack) PopMark(p Ptr, off int64) error {
	idx, err := s.addr(p, off)
	if err != nil {
		return err
	}
	if s.cells[idx].Kind != VMark {
		return fmt.Errorf("%w: prmpop at mem[ptr(abs=%d) + %d]: cell holds %s, not a mark", ErrStack, p.Abs, off, s.cells[idx])
	}
	s.cells[idx] = IntV(0)
	return nil
}

// MarksEmpty reports whether the live region of the stack (from p down to
// the base) contains no promotion-ready mark (prmempty).
func (s *Stack) MarksEmpty(p Ptr) bool {
	limit := p.Abs
	if limit >= len(s.cells) {
		limit = len(s.cells) - 1
	}
	for i := 0; i <= limit; i++ {
		if s.cells[i].Kind == VMark {
			return false
		}
	}
	return true
}

// SplitOldestMark implements prmsplit: it finds the oldest (deepest)
// promotion-ready mark in the live region below p, replaces it with 0,
// and returns its offset relative to p. Heartbeat scheduling's
// outer-most-first policy requires promoting the least recent latent
// parallelism, which is the deepest mark.
func (s *Stack) SplitOldestMark(p Ptr) (int64, error) {
	limit := p.Abs
	if limit >= len(s.cells) {
		limit = len(s.cells) - 1
	}
	for i := 0; i <= limit; i++ {
		if s.cells[i].Kind == VMark {
			s.cells[i] = IntV(0)
			return int64(p.Abs - i), nil
		}
	}
	return 0, fmt.Errorf("%w: prmsplit on a stack with no promotion-ready marks", ErrStack)
}

// Snapshot returns a copy of the live cells, bottom first. It is intended
// for tests and debugging.
func (s *Stack) Snapshot() []Value {
	out := make([]Value, s.top+1)
	copy(out, s.cells[:s.top+1])
	return out
}
