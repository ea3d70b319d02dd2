package machine

import (
	"errors"
	"testing"

	"tpal/internal/tpal/asm"
)

func TestStackAllocStore(t *testing.T) {
	s := NewStack()
	p := s.Top()
	if p.Abs != -1 || s.Depth() != 0 {
		t.Fatalf("fresh stack: %+v depth %d", p, s.Depth())
	}
	p, err := s.Alloc(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Abs != 2 || s.Depth() != 3 {
		t.Fatalf("after alloc 3: abs=%d depth=%d", p.Abs, s.Depth())
	}
	// mem[p + k] addresses k cells below the top.
	for k := int64(0); k < 3; k++ {
		if err := s.Store(p, k, IntV(100+k)); err != nil {
			t.Fatal(err)
		}
	}
	for k := int64(0); k < 3; k++ {
		v, err := s.Load(p, k)
		if err != nil {
			t.Fatal(err)
		}
		if v.Int != 100+k {
			t.Errorf("mem[p+%d] = %v", k, v)
		}
	}
}

func TestStackDownwardGrowthLayout(t *testing.T) {
	// Reproduce the paper's fib frame layout (Figure 24): a base frame
	// [exit], then two 3-cell frames pushed on top.
	s := NewStack()
	sp, _ := s.Alloc(s.Top(), 1)
	_ = s.Store(sp, 0, LabelV("exit"))
	sp, _ = s.Alloc(sp, 3)
	_ = s.Store(sp, 0, LabelV("branch1"))
	_ = s.PushMark(sp, 1)
	_ = s.Store(sp, 2, IntV(7)) // old t
	sp, _ = s.Alloc(sp, 3)
	_ = s.Store(sp, 0, LabelV("branch1"))
	_ = s.PushMark(sp, 1)
	_ = s.Store(sp, 2, IntV(8)) // new t

	// The oldest mark sits 4 cells below the top.
	off, err := s.SplitOldestMark(sp)
	if err != nil {
		t.Fatal(err)
	}
	if off != 4 {
		t.Fatalf("oldest mark offset = %d, want 4", off)
	}
	// frame base = sp + off - 1 points at the old continuation cell.
	frame := Ptr{Stack: s, Abs: sp.Abs - int(off) + 1}
	v, _ := s.Load(frame, 0)
	if v.Label != "branch1" {
		t.Fatalf("frame continuation = %v", v)
	}
	vt, _ := s.Load(frame, 2)
	if vt.Int != 7 {
		t.Fatalf("frame operand = %v, want old t=7", vt)
	}
	// The newer mark remains.
	if s.MarksEmpty(sp) {
		t.Fatal("newer mark should remain after split")
	}
	off2, _ := s.SplitOldestMark(sp)
	if off2 != 1 {
		t.Fatalf("second split offset = %d, want 1", off2)
	}
	if !s.MarksEmpty(sp) {
		t.Fatal("all marks should be consumed")
	}
}

func TestStackFreeAndRealloc(t *testing.T) {
	s := NewStack()
	sp, _ := s.Alloc(s.Top(), 5)
	_ = s.Store(sp, 0, IntV(1))
	sp2, err := s.Free(sp, 5)
	if err != nil {
		t.Fatal(err)
	}
	if sp2.Abs != -1 {
		t.Fatalf("free-all left abs=%d", sp2.Abs)
	}
	if _, err := s.Free(sp2, 1); err == nil {
		t.Fatal("free below base should error")
	}
	// Reallocation over dead cells zeroes them.
	sp3, _ := s.Alloc(sp2, 2)
	v, _ := s.Load(sp3, 1)
	if v.Kind != VNil {
		t.Fatalf("recycled cell not zeroed: %v", v)
	}
}

func TestStackRewoundPointerAlloc(t *testing.T) {
	// joink-style rewind: sp moves down past live cells, then allocates
	// relative to the rewound position.
	s := NewStack()
	sp, _ := s.Alloc(s.Top(), 7)
	rewound := Ptr{Stack: s, Abs: 0}
	sp2, err := s.Alloc(rewound, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sp2.Abs != 2 {
		t.Fatalf("alloc from rewound pointer: abs=%d, want 2", sp2.Abs)
	}
	_ = sp
}

func TestStackErrors(t *testing.T) {
	s := NewStack()
	sp, _ := s.Alloc(s.Top(), 2)
	if _, err := s.Load(sp, 5); !errors.Is(err, ErrStack) {
		t.Errorf("out-of-range load: %v", err)
	}
	if err := s.Store(sp, -7, IntV(0)); !errors.Is(err, ErrStack) {
		t.Errorf("out-of-range store: %v", err)
	}
	if err := s.PopMark(sp, 0); !errors.Is(err, ErrStack) {
		t.Errorf("popping a non-mark: %v", err)
	}
	if _, err := s.SplitOldestMark(sp); !errors.Is(err, ErrStack) {
		t.Errorf("split with no marks: %v", err)
	}
	if _, err := s.Alloc(sp, -1); !errors.Is(err, ErrStack) {
		t.Errorf("negative alloc: %v", err)
	}
}

func TestPushPopMark(t *testing.T) {
	s := NewStack()
	sp, _ := s.Alloc(s.Top(), 3)
	if !s.MarksEmpty(sp) {
		t.Fatal("fresh stack has marks")
	}
	if err := s.PushMark(sp, 1); err != nil {
		t.Fatal(err)
	}
	if s.MarksEmpty(sp) {
		t.Fatal("mark not visible")
	}
	if err := s.PopMark(sp, 1); err != nil {
		t.Fatal(err)
	}
	if !s.MarksEmpty(sp) {
		t.Fatal("mark not removed")
	}
	v, _ := s.Load(sp, 1)
	if n, ok := v.AsInt(); !ok || n != 0 {
		t.Fatalf("popped mark cell = %v, want 0", v)
	}
}

func TestSnapshot(t *testing.T) {
	s := NewStack()
	sp, _ := s.Alloc(s.Top(), 2)
	_ = s.Store(sp, 0, IntV(9))
	_ = s.Store(sp, 1, IntV(8))
	snap := s.Snapshot()
	if len(snap) != 2 || snap[0].Int != 8 || snap[1].Int != 9 {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestValueTruthiness(t *testing.T) {
	// TPAL truth: 0 is true, everything else false.
	if !IntV(0).Truthy() {
		t.Error("0 must be true")
	}
	if IntV(1).Truthy() || IntV(-3).Truthy() {
		t.Error("nonzero must be false")
	}
	if !(Value{}).Truthy() {
		t.Error("nil reads as integer 0 = true")
	}
	if LabelV("x").Truthy() || MarkV().Truthy() {
		t.Error("non-integers are never true")
	}
}

func TestValueEqual(t *testing.T) {
	s := NewStack()
	p1 := Ptr{Stack: s, Abs: 2}
	p2 := Ptr{Stack: s, Abs: 2}
	p3 := Ptr{Stack: s, Abs: 3}
	cases := []struct {
		a, b Value
		want bool
	}{
		{IntV(3), IntV(3), true},
		{IntV(3), IntV(4), false},
		{IntV(0), Value{}, true}, // nil == 0
		{Value{}, IntV(0), true},
		{LabelV("a"), LabelV("a"), true},
		{LabelV("a"), LabelV("b"), false},
		{PtrV(p1), PtrV(p2), true},
		{PtrV(p1), PtrV(p3), false},
		{MarkV(), MarkV(), true},
		{IntV(1), LabelV("a"), false},
	}
	for _, tc := range cases {
		if got := tc.a.Equal(tc.b); got != tc.want {
			t.Errorf("Equal(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

// TestMergeR pins the MergeR metafunction of Figure 27 as the join
// implements it: the merged file is the parent's with the ΔR-selected
// child registers copied in under their renamed targets.
func TestMergeR(t *testing.T) {
	run := func(deltaR string) RegFile {
		t.Helper()
		p, err := asm.Parse(`
program merge entry start
block start [.] {
  a := 1
  r := 10
  ret := cont
  jr := jralloc cont
  fork jr, child
  join jr
}
block child [.] {
  a := 2
  r := 20
  join jr
}
block cont [jtppt assoc-comm; {` + deltaR + `}; comb] {
  halt
}
block comb [.] {
  join jr
}
`)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(p, Config{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Regs
	}
	merged := run("r -> r2")
	if v := merged.Get("a"); v.Int != 1 {
		t.Errorf("parent register a overwritten: %v", v)
	}
	if v := merged.Get("r"); v.Int != 10 {
		t.Errorf("parent register r overwritten: %v", v)
	}
	if v := merged.Get("r2"); v.Int != 20 {
		t.Errorf("child register not copied under rename: %v", v)
	}
	if v := merged.Get("ret"); v.Label != "cont" {
		t.Errorf("unrelated parent register lost: %v", v)
	}
	// ΔR targets take the child value even when the parent defines them.
	if v := run("r -> r").Get("r"); v.Int != 20 {
		t.Errorf("ΔR target should take child value: %v", v)
	}
}

func TestRegFileCloneIsolation(t *testing.T) {
	r := RegFile{"x": IntV(1)}
	c := r.Clone()
	c.Set("x", IntV(2))
	c.Set("y", IntV(3))
	if r.Get("x").Int != 1 {
		t.Error("clone mutation leaked into original")
	}
	if _, ok := r["y"]; ok {
		t.Error("clone addition leaked into original")
	}
}
