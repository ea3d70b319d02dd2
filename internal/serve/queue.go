package serve

// drrQueue is a deficit-round-robin fair queue over tenant keys: each
// tenant holds a FIFO of queued jobs and a deficit counter; pop visits
// tenants in ring order, crediting quantum per visit, and dispatches a
// tenant's head job once its deficit covers the job's cost (the quoted
// step budget). A tenant streaming expensive jobs therefore yields the
// pool to cheap-job tenants in proportion to cost, while a lone tenant
// still gets every slot. The queue is not goroutine-safe; the service
// mutex guards it.
type drrQueue struct {
	quantum int64
	tenants map[string]*tenantQueue
	ring    []*tenantQueue // tenants with queued jobs, round-robin order
	cursor  int
	size    int
	// visits counts tenant inspections across all pops. It exists to pin
	// the shortfall-crediting fast path: a head job costing cost must be
	// dispatched in O(ring) visits, not O(cost/quantum) ring passes.
	visits int64
}

type tenantQueue struct {
	key     string
	jobs    []*Job
	deficit int64
}

func newDRRQueue(quantum int64) *drrQueue {
	return &drrQueue{quantum: quantum, tenants: make(map[string]*tenantQueue)}
}

func (q *drrQueue) len() int { return q.size }

// push appends a job to its tenant's FIFO, entering the tenant into
// the ring if it was idle.
func (q *drrQueue) push(j *Job) {
	tq := q.tenants[j.Tenant]
	if tq == nil {
		tq = &tenantQueue{key: j.Tenant}
		q.tenants[j.Tenant] = tq
	}
	if len(tq.jobs) == 0 {
		q.ring = append(q.ring, tq)
	}
	tq.jobs = append(tq.jobs, j)
	q.size++
}

// pop removes and returns the next job under DRR, or nil when empty.
// Each visit credits the tenant one quantum; when a full ring pass
// dispatches nothing (every backlogged head job still exceeds its
// deficit), the minimum shortfall across the ring is credited in one
// arithmetic step instead of re-scanning O(cost/quantum) times — the
// dispatch order is identical, because every tenant receives the same
// per-pass credit, so adding k·quantum to all of them at once lands on
// exactly the tenant (and ring position) the slow scan would have
// reached after k passes. A tenant drained to empty leaves both the
// ring and the tenant map: idle tenants keep no credit and no state.
func (q *drrQueue) pop() *Job {
	if q.size == 0 {
		return nil
	}
	for {
		for n := len(q.ring); n > 0; n-- {
			if q.cursor >= len(q.ring) {
				q.cursor = 0
			}
			tq := q.ring[q.cursor]
			tq.deficit += q.quantum
			q.visits++
			if head := tq.jobs[0]; tq.deficit >= head.cost {
				tq.deficit -= head.cost
				tq.jobs = tq.jobs[1:]
				q.size--
				if len(tq.jobs) == 0 {
					// An idle tenant keeps no credit and no map entry:
					// deficits only meter backlogged tenants against each
					// other, and a tenant key seen once must not leak a
					// tenantQueue forever.
					delete(q.tenants, tq.key)
					q.ring = append(q.ring[:q.cursor], q.ring[q.cursor+1:]...)
				} else {
					q.cursor++
				}
				return head
			}
			q.cursor++
		}
		// Full uncredited pass: no head job is affordable yet. Compute how
		// many more whole passes the smallest shortfall needs and credit
		// them all at once.
		passes := int64(1) << 62
		for _, tq := range q.ring {
			short := tq.jobs[0].cost - tq.deficit
			p := (short + q.quantum - 1) / q.quantum
			if p < passes {
				passes = p
			}
		}
		if passes > 1 {
			add := (passes - 1) * q.quantum
			for _, tq := range q.ring {
				tq.deficit += add
			}
		}
	}
}

// deficits snapshots the DRR credit of every backlogged tenant, for
// the /metrics fairness gauge. Idle tenants hold no credit (pop clears
// it), so only the ring is reported. Returns nil when nothing is queued.
func (q *drrQueue) deficits() map[string]int64 {
	if len(q.ring) == 0 {
		return nil
	}
	out := make(map[string]int64, len(q.ring))
	for _, tq := range q.ring {
		out[tq.key] = tq.deficit
	}
	return out
}

// drainAll empties the queue and returns every job that was waiting,
// in tenant-ring order. Tenant state is dropped wholesale.
func (q *drrQueue) drainAll() []*Job {
	var out []*Job
	for _, tq := range q.ring {
		out = append(out, tq.jobs...)
		tq.jobs = nil
		tq.deficit = 0
	}
	q.ring = q.ring[:0]
	q.tenants = make(map[string]*tenantQueue)
	q.cursor = 0
	q.size = 0
	return out
}
