// Package vtime is a discrete-event simulator for fork-join task DAGs
// on P virtual cores. The heartbeat runtime can record its promotion
// DAG during a real (single-core) run — each task's spawn offset within
// its parent and its self-execution time — and this package replays the
// DAG under greedy scheduling, giving a simulated makespan for any core
// count.
//
// This validates the harness's analytic projection: the greedy bound
// T_P ≤ T₁/P + T∞ is an upper bound, and the simulation gives the
// actual greedy-schedule makespan for the recorded DAG. Both are models
// of a machine this environment does not have (see DESIGN.md §2); where
// they agree, the projection is tight.
//
// Execution model (matching the runtime): a spawned task becomes ready
// at its parent's spawn point and runs non-preemptively for its self
// time on one core; a task completes when its self time has elapsed and
// all of its children have completed (fully strict fork-join); workers
// never idle while a task is ready (greedy).
package vtime

import (
	"container/heap"
	"fmt"
	"sync"
)

// Recorder collects a task DAG from a run. It is safe for concurrent
// use by multiple workers.
type Recorder struct {
	mu    sync.Mutex
	tasks []taskRec
}

type taskRec struct {
	parent  int   // -1 for the root
	offset  int64 // spawn point in the parent's self time, ns
	selfDur int64 // self-execution time, ns
	done    bool
}

// NewRecorder returns a recorder with the root task pre-registered as
// id 0.
func NewRecorder() *Recorder {
	return &Recorder{tasks: []taskRec{{parent: -1}}}
}

// Spawn registers a new task created by parent at the given offset into
// the parent's self time, returning the new task's id.
func (r *Recorder) Spawn(parent int, offset int64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.tasks)
	r.tasks = append(r.tasks, taskRec{parent: parent, offset: offset})
	return id
}

// Finish records a task's total self-execution time.
func (r *Recorder) Finish(id int, selfDur int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := &r.tasks[id]
	t.selfDur = selfDur
	t.done = true
}

// Tasks returns the number of recorded tasks.
func (r *Recorder) Tasks() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.tasks)
}

// DAG freezes the recording into a simulatable DAG. It errors only if a
// task never finished. A spawn offset past its parent's self time is
// not an error: offsets are measured with a different clock read than
// durations, so overshoots are normal, and DAG clamps the offset to the
// parent's self time.
func (r *Recorder) DAG() (*DAG, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d := &DAG{nodes: make([]node, len(r.tasks))}
	for i, t := range r.tasks {
		if !t.done {
			return nil, fmt.Errorf("vtime: task %d never finished", i)
		}
		d.nodes[i] = node{parent: t.parent, offset: t.offset, selfDur: t.selfDur}
	}
	for i := range d.nodes {
		n := &d.nodes[i]
		if n.parent >= 0 {
			p := &d.nodes[n.parent]
			if n.offset > p.selfDur {
				n.offset = p.selfDur // clamp clock skew
			}
			p.children = append(p.children, i)
		}
	}
	return d, nil
}

// DAG is a frozen fork-join task graph.
type DAG struct {
	nodes []node
}

type node struct {
	parent   int
	offset   int64
	selfDur  int64
	children []int
}

// Tasks returns the node count.
func (d *DAG) Tasks() int { return len(d.nodes) }

// Work returns the total self time across tasks (T₁ of the DAG).
func (d *DAG) Work() int64 {
	var w int64
	for i := range d.nodes {
		w += d.nodes[i].selfDur
	}
	return w
}

// Span returns the critical path of the DAG (T∞): the longest chain of
// spawn offsets plus completion dependencies.
func (d *DAG) Span() int64 {
	// completion[i] = span point at which i completes = max(start_i +
	// selfDur_i, max over children of completion). start_i = start of
	// parent + offset. Process children after parents (ids are ordered
	// by creation, so parents precede children); completions need
	// reverse order.
	n := len(d.nodes)
	start := make([]int64, n)
	for i := 1; i < n; i++ {
		start[i] = start[d.nodes[i].parent] + d.nodes[i].offset
	}
	completion := make([]int64, n)
	for i := n - 1; i >= 0; i-- {
		c := start[i] + d.nodes[i].selfDur
		for _, ch := range d.nodes[i].children {
			if completion[ch] > c {
				c = completion[ch]
			}
		}
		completion[i] = c
	}
	if n == 0 {
		return 0
	}
	return completion[0]
}

// Simulate returns the makespan of a greedy schedule of the DAG on p
// cores, in the same time unit as the recorded durations.
func (d *DAG) Simulate(p int) int64 {
	if p < 1 {
		p = 1
	}
	n := len(d.nodes)
	if n == 0 {
		return 0
	}

	// Per-task state.
	type tstate struct {
		childrenLeft int
		selfDone     bool
		completedAt  int64
		completed    bool
	}
	st := make([]tstate, n)
	for i := range st {
		st[i].childrenLeft = len(d.nodes[i].children)
	}

	// Event queue: task completions of running tasks, plus spawn events
	// while a task runs. We process a running task's spawns eagerly:
	// when a worker picks up task i at time t, all its children become
	// ready at t + offset_k.
	eq := &eventQueue{}
	ready := &readyQueue{}
	heap.Push(ready, readyItem{task: 0, at: 0})

	var now int64
	free := p
	var completeTask func(i int, at int64)
	completeTask = func(i int, at int64) {
		s := &st[i]
		if s.completed || !s.selfDone || s.childrenLeft > 0 {
			return
		}
		s.completed = true
		s.completedAt = at
		if parent := d.nodes[i].parent; parent >= 0 {
			ps := &st[parent]
			ps.childrenLeft--
			completeTask(parent, at)
		}
	}

	for {
		// Start ready tasks on free workers.
		for free > 0 && ready.Len() > 0 && (*ready)[0].at <= now {
			it := heap.Pop(ready).(readyItem)
			i := it.task
			free--
			// Schedule child-ready events and self completion.
			for _, ch := range d.nodes[i].children {
				heap.Push(eq, simEvent{at: now + d.nodes[ch].offset, kind: evChildReady, task: ch})
			}
			heap.Push(eq, simEvent{at: now + d.nodes[i].selfDur, kind: evSelfDone, task: i})
		}
		if eq.Len() == 0 {
			break
		}
		// Advance to the next event and drain everything simultaneous,
		// so worker accounting stays exact.
		now = (*eq)[0].at
		for eq.Len() > 0 && (*eq)[0].at == now {
			ev := heap.Pop(eq).(simEvent)
			switch ev.kind {
			case evSelfDone:
				free++
				st[ev.task].selfDone = true
				completeTask(ev.task, now)
			case evChildReady:
				heap.Push(ready, readyItem{task: ev.task, at: now})
			}
		}
	}
	if !st[0].completed {
		// Should not happen for a well-formed DAG; fall back to span.
		return d.Span()
	}
	return st[0].completedAt
}

type readyItem struct {
	task int
	at   int64
}

type readyQueue []readyItem

func (q readyQueue) Len() int           { return len(q) }
func (q readyQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q readyQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *readyQueue) Push(x any)        { *q = append(*q, x.(readyItem)) }
func (q *readyQueue) Pop() any          { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }

// simEvent is a scheduled simulation event.
type simEvent struct {
	at   int64
	kind int
	task int
}

const (
	evSelfDone   = 0 // a running task finished its self time; its worker frees
	evChildReady = 1 // a spawn point passed; the child may start
)

type eventQueue []simEvent

func (q eventQueue) Len() int           { return len(q) }
func (q eventQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q eventQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)        { *q = append(*q, x.(simEvent)) }
func (q *eventQueue) Pop() any          { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }
