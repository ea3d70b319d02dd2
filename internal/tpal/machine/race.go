package machine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"tpal/internal/tpal"
)

// Determinacy-race sanitizer (Config.RaceDetect).
//
// The classical SP-bags algorithm for Cilk maintains, per procedure
// frame, bags of serial and parallel descendants under a depth-first
// execution order. TPAL's machine interleaves tasks under arbitrary
// schedules, so the sanitizer substitutes the equivalent happens-before
// formulation over the same series-parallel structure: each task
// carries a vector clock, fork makes the child and the parent's
// continuation mutually concurrent, and resolving a join edge merges
// the two branch clocks into the combining task, so everything after a
// join happens-after both branches — exactly the SP relation of the
// cost semantics' series-parallel graph (Figure 28). Two accesses to
// the same stack cell race iff neither happens-before the other and at
// least one writes; for a strictly nested fork-join program this is
// schedule-independent (the determinacy-race property), which is what
// lets one instrumented run certify or refute a program.
//
// Shadow state is one cell array per dynamic stack, each cell holding
// the last write and the reads since then that are still concurrent
// with something. Structural operations (salloc zeroing cells, sfree
// retiring them) count as writes to the affected range; mark-list
// scans (prmempty, prmsplit) count as reads of the live region they
// walk, and prmsplit additionally as a write to the mark it consumes.

// ErrRace is the class of determinacy-race errors; RaceError unwraps
// to it.
var ErrRace = errors.New("tpal machine: determinacy race")

// AccessPos locates one racing access.
type AccessPos struct {
	Task  int
	Block tpal.Label
	Instr int
	Write bool
}

func (a AccessPos) String() string {
	op := "read"
	if a.Write {
		op = "write"
	}
	return fmt.Sprintf("%s by task %d at %s[%d]", op, a.Task, a.Block, a.Instr)
}

// RaceError reports the first determinacy race observed: the two
// logically-parallel accesses and the fork that made them parallel.
type RaceError struct {
	First  AccessPos // the earlier access (already in shadow memory)
	Second AccessPos // the access that completed the race
	// Fork is the position of the fork instruction whose two branches
	// contain the accesses; ForkKnown is false when the fork tree no
	// longer exposes it (it always does for strictly nested programs).
	Fork      AccessPos
	ForkKnown bool
}

func (e *RaceError) Error() string {
	msg := fmt.Sprintf("%v: %s conflicts with %s", ErrRace, e.Second, e.First)
	if e.ForkKnown {
		msg += fmt.Sprintf(" (branches of the fork at %s[%d])", e.Fork.Block, e.Fork.Instr)
	}
	return msg
}

func (e *RaceError) Unwrap() error { return ErrRace }

// vclock is a vector clock keyed by task id, one per task under
// Config.RaceDetect. The root task starts from one fresh entry for
// itself.
type vclock map[int]int64

// fork implements the sanitizer's fork rule: the child starts from a
// copy of the parent's knowledge plus its own fresh entry, and the
// parent advances its own entry, making the two branches mutually
// concurrent while everything pre-fork happens-before both. It returns
// the child's clock and advances the parent's in place.
func (c vclock) fork(parentID, childID int) vclock {
	child := make(vclock, len(c)+1)
	for k, v := range c {
		child[k] = v
	}
	child[childID] = 1
	c[parentID]++
	return child
}

// join implements the sanitizer's join rule: the surviving task
// happens-after both branches, so it absorbs the stashed branch clock
// pointwise and ticks its own entry.
func (c vclock) join(id int, stashed vclock) {
	for k, v := range stashed {
		if v > c[k] {
			c[k] = v
		}
	}
	c[id]++
}

// forkNode is one node of the dynamic fork tree: each fork links a
// fresh node above the forking task's current node, and every sanitized
// access records the node (plus the accessing task's side on it) so a
// conflicting pair can name the fork whose branches contain the
// accesses.
type forkNode struct {
	// up is the node the forking task was participating in when it
	// issued the fork, and upSide that task's role in it.
	up     *forkNode
	upSide side
	// block and instr locate the fork instruction that created the
	// node.
	block tpal.Label
	instr int
}

// accessRec is one recorded access: the epoch (task, its clock entry at
// access time), the program position, and the task's position in the
// fork tree when it accessed (for naming the separating fork).
type accessRec struct {
	task  int
	time  int64
	block tpal.Label
	instr int
	write bool
	fork  *forkNode
	side  side
}

func (r accessRec) pos() AccessPos {
	return AccessPos{Task: r.task, Block: r.block, Instr: r.instr, Write: r.write}
}

// happensBefore reports whether the recorded access happens-before the
// point described by the clock.
func (r accessRec) happensBefore(c vclock) bool {
	return c[r.task] >= r.time
}

// shadowCell is the sanitizer's view of one stack cell.
type shadowCell struct {
	hasWrite bool
	write    accessRec
	reads    []accessRec
}

// raceState is the machine-wide sanitizer state. Shadows are keyed by a
// sanitizer-assigned stack id rather than the *Stack itself so the map
// does not pin dead stacks: when the program drops its last reference
// to a stack (heartbeat runs churn one per promotion), a finalizer
// queues the id on the dead list and the machine goroutine deletes the
// entry at the next shadow access, keeping shadow memory proportional
// to the live stacks instead of every stack ever touched.
type raceState struct {
	shadows map[int64]*shadow

	mu      sync.Mutex
	dead    []int64
	pending atomic.Bool
}

type shadow struct {
	cells []shadowCell
}

// stackSID hands out sanitizer stack ids. The counter is global so ids
// never collide even when one Stack is observed by several machines.
var stackSID atomic.Int64

func newRaceState() *raceState {
	return &raceState{shadows: make(map[int64]*shadow)}
}

// retire runs on the GC's finalizer goroutine when a shadowed stack
// becomes unreachable; reap applies the deletions on the machine
// goroutine.
func (rs *raceState) retire(s *Stack) {
	rs.mu.Lock()
	rs.dead = append(rs.dead, s.sid)
	rs.mu.Unlock()
	rs.pending.Store(true)
}

func (rs *raceState) reap() {
	rs.mu.Lock()
	dead := rs.dead
	rs.dead = nil
	rs.pending.Store(false)
	rs.mu.Unlock()
	for _, id := range dead {
		delete(rs.shadows, id)
	}
}

func (rs *raceState) cell(s *Stack, abs int) *shadowCell {
	if rs.pending.Load() {
		rs.reap()
	}
	if s.sid == 0 {
		s.sid = stackSID.Add(1)
		runtime.SetFinalizer(s, rs.retire)
	}
	sh := rs.shadows[s.sid]
	if sh == nil {
		sh = &shadow{}
		rs.shadows[s.sid] = sh
	}
	for len(sh.cells) <= abs {
		sh.cells = append(sh.cells, shadowCell{})
	}
	return &sh.cells[abs]
}

// accessRec builds the record of an access by t at its current
// position.
func (t *Task) accessRec(write bool) accessRec {
	r := accessRec{
		task:  t.id,
		time:  t.clock[t.id],
		block: t.block.label,
		instr: t.off,
		write: write,
		side:  t.side,
	}
	if t.edge != nil {
		r.fork = t.edge.node
	}
	return r
}

// raceErr assembles the RaceError for a conflicting pair.
func raceErr(prev accessRec, cur accessRec) error {
	e := &RaceError{First: prev.pos(), Second: cur.pos()}
	if f, ok := separatingFork(prev, cur); ok {
		e.Fork = f
		e.ForkKnown = true
	}
	return e
}

// separatingFork walks the two accesses' fork-tree chains to the
// deepest common node; when the accesses sit on opposite sides of
// it, the fork that created that node is the parallel composition that
// made them logically parallel.
func separatingFork(a, b accessRec) (AccessPos, bool) {
	sides := make(map[*forkNode]side)
	for n, s := a.fork, a.side; n != nil; s, n = n.upSide, n.up {
		sides[n] = s
	}
	for n, s := b.fork, b.side; n != nil; s, n = n.upSide, n.up {
		if sa, ok := sides[n]; ok {
			if sa != s {
				return AccessPos{Block: n.block, Instr: n.instr}, true
			}
			return AccessPos{}, false
		}
	}
	return AccessPos{}, false
}

// read records a read by t of mem[cell abs] of stack s, reporting a
// race against any concurrent write.
func (rs *raceState) read(t *Task, s *Stack, abs int) error {
	if abs < 0 {
		return nil
	}
	c := rs.cell(s, abs)
	cur := t.accessRec(false)
	if c.hasWrite && !c.write.happensBefore(t.clock) {
		return raceErr(c.write, cur)
	}
	// Keep the read set small: drop reads that happen-before this one
	// (they are covered by it for every future write check).
	kept := c.reads[:0]
	for _, r := range c.reads {
		if !r.happensBefore(t.clock) {
			kept = append(kept, r)
		}
	}
	c.reads = append(kept, cur)
	return nil
}

// write records a write by t of mem[cell abs] of stack s, reporting a
// race against any concurrent read or write.
func (rs *raceState) write(t *Task, s *Stack, abs int) error {
	if abs < 0 {
		return nil
	}
	c := rs.cell(s, abs)
	cur := t.accessRec(true)
	if c.hasWrite && !c.write.happensBefore(t.clock) {
		return raceErr(c.write, cur)
	}
	for _, r := range c.reads {
		if !r.happensBefore(t.clock) {
			return raceErr(r, cur)
		}
	}
	c.hasWrite = true
	c.write = cur
	c.reads = c.reads[:0]
	return nil
}

// The Race* methods are the sanitizer hooks an Op calls around its
// stack access; each is a no-op unless Config.RaceDetect is set.

// RaceRead records a read by t of mem[cell abs] of stack s.
func (e *Engine) RaceRead(t *Task, s *Stack, abs int) error {
	if e.race == nil {
		return nil
	}
	return e.race.read(t, s, abs)
}

// RaceWrite records a write by t of mem[cell abs] of stack s.
func (e *Engine) RaceWrite(t *Task, s *Stack, abs int) error {
	if e.race == nil {
		return nil
	}
	return e.race.write(t, s, abs)
}

// RaceReadRange records reads by t of every cell in [lo, hi] of s.
func (e *Engine) RaceReadRange(t *Task, s *Stack, lo, hi int) error {
	if e.race == nil {
		return nil
	}
	for i := max(lo, 0); i <= hi; i++ {
		if err := e.race.read(t, s, i); err != nil {
			return err
		}
	}
	return nil
}

// RaceWriteRange records writes by t to every cell in [lo, hi] of s.
func (e *Engine) RaceWriteRange(t *Task, s *Stack, lo, hi int) error {
	if e.race == nil {
		return nil
	}
	for i := max(lo, 0); i <= hi; i++ {
		if err := e.race.write(t, s, i); err != nil {
			return err
		}
	}
	return nil
}
