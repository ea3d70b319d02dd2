package machine

// JoinRecord is the synchronization object allocated by jralloc. A record
// carries the continuation block to run once every task registered on
// the record has joined. One record can synchronize an arbitrary number
// of forks (for example, every promotion of a parallel loop shares the
// record allocated at the loop's first promotion).
//
// The TPAL runtime "keeps a record of the tree induced by the fork
// instructions" (§2.2); that tree is represented here by joinEdge values.
// Each fork adds one edge between the forking task and its child. Join
// resolution is pairwise along edges: the first of the pair to join
// stashes its register file and terminates; the second merges register
// files per the ΔR of the continuation block's jtppt annotation and runs
// the combining block one level up the tree.
type JoinRecord struct {
	id   int // allocation sequence number
	cont *Block
}

// joinEdge is one parent↔child dependency edge in a record's fork tree.
type joinEdge struct {
	rec *JoinRecord

	// up is the edge the forking task was participating in when it issued
	// the fork, and upSide that task's role in it. The combining task
	// produced by resolving this edge resumes participation at (up,
	// upSide).
	up     *joinEdge
	upSide side

	// node is the edge's position in the race sanitizer's fork tree —
	// the parallel composition the sanitizer names when the edge's two
	// sides conflict. Built only under Config.RaceDetect.
	node *forkNode

	// stashed is the first of the pair to join: retired from the
	// schedule, its register file, side, span, and vector clock frozen
	// for the second arriver to merge.
	arrived bool
	stashed *Task
}

// side is a task's role on a join edge.
type side uint8

const (
	parentSide side = iota
	childSide
)

func (s side) String() string {
	if s == parentSide {
		return "parent"
	}
	return "child"
}
