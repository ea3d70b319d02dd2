package serve

import (
	"fmt"
	"sync"
	"time"

	"tpal/internal/tpal"
	"tpal/internal/tpal/machine"
	"tpal/internal/tpal/machine/compile"
)

// Batched admission: concurrent Submit calls are collected into
// batches by a leader/follower combiner. The leader drains whatever
// accumulated while it worked, runs the expensive admission analysis
// once per unique (fingerprint, entry) key per batch — concurrently
// across keys — and then finalizes the whole batch under a single
// service-mutex hold with one lock acquisition per destination shard.
// Followers just wait on their work item; under a submission burst the
// per-job cost amortizes to one map lookup and one queue push.

// submitWork is one submission moving through the batched admission
// pipeline. prepare fills the parse-derived fields; processBatch fills
// adm/compiled; finalizeBatch fills j or err and closes done.
type submitWork struct {
	req     SubmitRequest
	prog    *tpal.Program
	entry   []tpal.Reg
	autoRep *AutoparReport
	fp      string
	key     string // admitKey(fp, entry)

	adm      *admission
	compiled *compile.Program

	j    *Job
	err  error
	done chan struct{}
}

// batcher is the combining point: pending work plus whether a leader
// is currently processing.
type batcher struct {
	mu      sync.Mutex
	pending []*submitWork
	leading bool
}

// enqueueBatch hands one submission to the combiner and blocks until a
// leader (possibly this caller) has finalized it. The first caller to
// find no leader becomes one and keeps draining batches until the
// pending list is empty, so every submission is processed by exactly
// one leader pass and no goroutine waits on more than one batch.
func (s *Service) enqueueBatch(w *submitWork) {
	b := &s.batch
	b.mu.Lock()
	b.pending = append(b.pending, w)
	if b.leading {
		b.mu.Unlock()
		<-w.done
		return
	}
	b.leading = true
	for len(b.pending) > 0 {
		batch := b.pending
		b.pending = nil
		b.mu.Unlock()
		s.processBatch(batch)
		b.mu.Lock()
	}
	b.leading = false
	b.mu.Unlock()
}

// processBatch runs the admission pipeline for one batch: cached
// verdicts are reused, missing (fingerprint, entry) keys are analyzed
// once each — concurrently — and the batch is finalized atomically.
func (s *Service) processBatch(batch []*submitWork) {
	// Phase 1: resolve analysis verdicts against the cache; group the
	// misses by admission key so each key is analyzed exactly once.
	need := make(map[string][]*submitWork)
	s.mu.Lock()
	s.metrics.Batches++
	for _, w := range batch {
		if a, ok := s.admissions.get(w.key); ok {
			w.adm = a
			s.metrics.AnalysisHits++
			continue
		}
		need[w.key] = append(need[w.key], w)
	}
	s.mu.Unlock()

	// Phase 2: analyze the missing keys concurrently. analyze takes no
	// locks, so the batch pays max (not sum) of the pipeline latencies.
	if len(need) > 0 {
		var wg sync.WaitGroup
		for _, group := range need {
			lead := group[0]
			wg.Add(1)
			go func() {
				defer wg.Done()
				lead.adm = s.analyze(lead.prog, lead.entry, lead.fp)
			}()
		}
		wg.Wait()

		s.mu.Lock()
		for key, group := range need {
			a := group[0].adm
			if prev, ok := s.admissions.get(key); ok {
				// Lost a race against a direct admit() caller; their verdict
				// is for the same key, so every batch member is a cache hit.
				a = prev
				s.metrics.AnalysisHits += int64(len(group))
			} else {
				s.admissions.put(key, a)
				s.metrics.Analyses++
				s.metrics.AnalysisHits += int64(len(group) - 1)
			}
			for _, w := range group {
				w.adm = a
			}
		}
		s.mu.Unlock()
	}

	// Phase 3: compiled backend — lower each admitted program (the
	// admission entry dedupes repeats within and across batches).
	if s.cfg.Backend == machine.BackendCompiled {
		for _, w := range batch {
			if w.adm.rejected {
				continue
			}
			prog := w.prog
			if w.adm.optimized != nil {
				prog = w.adm.optimized
			}
			w.compiled = s.compiledFor(w.adm, prog, w.entry)
		}
	}

	s.finalizeBatch(batch)
	for _, w := range batch {
		close(w.done)
	}
}

// finalizeBatch admits the whole batch under one service-mutex hold:
// per-submission outcome (reject / cached / coalesce / throttle /
// queue), then one shard-lock acquisition per destination shard to push
// everything that queued, then a single worker wake-up.
func (s *Service) finalizeBatch(batch []*submitWork) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()

	if s.draining {
		for _, w := range batch {
			w.err = ErrDraining
		}
		return
	}

	groups := make(map[int][]*Job)
	pushed := 0
	for _, w := range batch {
		req, adm := w.req, w.adm
		prog := w.prog
		if adm.optimized != nil {
			prog = adm.optimized
		}

		tenant := req.Tenant
		if tenant == "" {
			tenant = "anonymous"
		}
		heartbeat := s.cfg.Heartbeat
		if req.Heartbeat > 0 {
			heartbeat = req.Heartbeat
		}
		timeout := s.cfg.DefaultTimeout
		if req.TimeoutMS > 0 {
			timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		}
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
		regs := make(machine.RegFile, len(req.Args))
		for k, v := range req.Args {
			regs[tpal.Reg(k)] = machine.IntV(v)
		}

		j := &Job{
			Tenant:      tenant,
			Fingerprint: adm.fingerprint,
			Quote:       adm.quote,
			Autopar:     w.autoRep,
			Submitted:   now,
			prog:        prog,
			compiled:    w.compiled,
			regs:        regs,
			heartbeat:   heartbeat,
			signal:      s.cfg.SignalPeriod,
			timeout:     timeout,
			traced:      req.Trace,
			done:        make(chan struct{}),
		}
		if req.Fuel > 0 && req.Fuel < j.Quote.Budget {
			j.Quote.Budget = req.Fuel
		}
		j.cost = j.Quote.Budget
		if j.cost <= 0 {
			j.cost = 1
		}
		j.cacheKey = resultKey(adm.fingerprint, req.Args, heartbeat, s.cfg.SignalPeriod)

		s.seq++
		j.ID = fmt.Sprintf("j%06d", s.seq)
		w.j = j

		primary, inflight := s.primaries[j.cacheKey]
		coalesce := inflight && !j.traced && primary.Quote.Budget == j.Quote.Budget
		var cached *cachedResult
		if !j.traced {
			cached, _ = s.results.get(j.cacheKey)
		}

		switch {
		case adm.rejected:
			j.Status = StatusRejected
			j.Diags = adm.diags
			j.Error = adm.reason
			j.Finished = now
			s.jobs[j.ID] = j
			s.metrics.Rejected++
			s.finishLocked(j)

		case cached != nil:
			j.Status = StatusDone
			j.Result = cached.result
			j.Stats = cached.stats
			j.Cached = true
			j.Started = now
			j.Finished = now
			s.jobs[j.ID] = j
			s.metrics.ResultHits++
			s.metrics.Admitted++
			s.metrics.Completed++
			s.metrics.noteAutopar(j.Autopar)
			s.finishLocked(j)

		case coalesce:
			// Singleflight: an identical submission is already in flight;
			// ride it instead of executing again.
			j.Status = StatusQueued
			j.Coalesced = true
			primary.followers = append(primary.followers, j)
			s.jobs[j.ID] = j
			s.metrics.Admitted++
			s.metrics.SingleflightCollapses++
			s.metrics.noteAutopar(j.Autopar)
			s.publishLocked(j, statusEvent(j))

		case s.queuedN >= s.cfg.QueueCap:
			s.metrics.Throttled++
			w.j = nil
			w.err = ErrQueueFull

		default:
			j.Status = StatusQueued
			s.jobs[j.ID] = j
			s.queuedN++
			if _, exists := s.primaries[j.cacheKey]; !exists {
				s.primaries[j.cacheKey] = j
			}
			s.metrics.Admitted++
			s.metrics.noteAutopar(j.Autopar)
			s.publishLocked(j, statusEvent(j))
			idx := tenantShard(tenant, len(s.shards))
			groups[idx] = append(groups[idx], j)
			pushed++
		}
	}

	for idx, js := range groups {
		sh := s.shards[idx]
		sh.mu.Lock()
		for _, j := range js {
			sh.q.push(j)
		}
		sh.mu.Unlock()
		s.qdepth.Add(int64(len(js)))
	}
	s.pruneLocked(now)
	if pushed > 0 {
		s.idleMu.Lock()
		s.idleCond.Broadcast()
		s.idleMu.Unlock()
	}
}
